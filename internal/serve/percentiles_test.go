package serve

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"optimus/internal/workload"
)

// nearestRankIndex computes the nearest-rank index ceil(q·n)-1 in exact
// integer arithmetic (q = num/100), the ground truth the float path in
// percentiles must match for every sample size.
func nearestRankIndex(num, n int) int {
	i := (num*n+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return i
}

// TestPercentilesNearestRank is the property suite pinning the nearest-rank
// definition: for identity samples (value == index) every quantile must
// land on its exact integer rank across a dense range of n, which makes any
// float off-by-one in ceil(q·n) visible as a wrong value. It also pins
// monotonicity in q and the documented small-sample saturation boundaries
// (n < 20 ⇒ P95 == Max, n < 100 ⇒ P99 == Max, with the first non-saturated
// n exactly at 20 and 100).
func TestPercentilesNearestRank(t *testing.T) {
	ns := make([]int, 0, 4300)
	for n := 1; n <= 4096; n++ {
		ns = append(ns, n)
	}
	// Spot-check large sizes where float error in q·n has the most room.
	for _, n := range []int{10_000, 99_999, 100_000, 999_999, 1_000_000} {
		ns = append(ns, n)
	}
	for _, n := range ns {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		p := percentiles(sorted)
		if want := float64(nearestRankIndex(50, n)); p.P50 != want {
			t.Fatalf("n=%d: P50 rank = %g, want %g", n, p.P50, want)
		}
		if want := float64(nearestRankIndex(95, n)); p.P95 != want {
			t.Fatalf("n=%d: P95 rank = %g, want %g", n, p.P95, want)
		}
		if want := float64(nearestRankIndex(99, n)); p.P99 != want {
			t.Fatalf("n=%d: P99 rank = %g, want %g", n, p.P99, want)
		}
		if !(p.P50 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max) {
			t.Fatalf("n=%d: quantiles not monotone: %+v", n, p)
		}
		if p.Max != sorted[n-1] {
			t.Fatalf("n=%d: Max = %g, want %g", n, p.Max, sorted[n-1])
		}
		// The documented small-sample saturation: nearest-rank pins the
		// tail quantiles to Max until the sample is large enough to carry
		// a distinct tail rank.
		if n < 20 && p.P95 != p.Max {
			t.Fatalf("n=%d: P95 = %g should saturate to Max %g", n, p.P95, p.Max)
		}
		if n < 100 && p.P99 != p.Max {
			t.Fatalf("n=%d: P99 = %g should saturate to Max %g", n, p.P99, p.Max)
		}
	}
	// The saturation boundary is sharp: the first distinct tail rank
	// appears exactly at n == 20 (P95) and n == 100 (P99).
	twenty := make([]float64, 20)
	hundred := make([]float64, 100)
	for i := range twenty {
		twenty[i] = float64(i)
	}
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if p := percentiles(twenty); p.P95 != 18 || p.Max != 19 {
		t.Errorf("n=20: P95 = %g (want 18, the first sub-Max rank), Max = %g", p.P95, p.Max)
	}
	if p := percentiles(hundred); p.P99 != 98 || p.Max != 99 {
		t.Errorf("n=100: P99 = %g (want 98, the first sub-Max rank), Max = %g", p.P99, p.Max)
	}
}

// TestSummarize: the exported wrapper sorts a copy — unsorted input yields
// the same summary as the pre-sorted sample and the caller's slice is left
// untouched; the empty sample is the zero summary.
func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 257)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	orig := append([]float64(nil), vals...)
	got := Summarize(vals)
	for i := range vals {
		if vals[i] != orig[i] {
			t.Fatal("Summarize mutated its input")
		}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if want := percentiles(sorted); got != want {
		t.Errorf("Summarize = %+v, want %+v", got, want)
	}
	if z := Summarize(nil); z != (Percentiles{}) {
		t.Errorf("empty Summarize = %+v, want zero", z)
	}
}

// TestSummarizePanicsOnNaN: a NaN sample breaks the sort's total order —
// every percentile would silently depend on the input's order — so
// Summarize refuses it loudly. Infinities are legal samples (a saturated
// SLO) and sort to the tail.
func TestSummarizePanicsOnNaN(t *testing.T) {
	for _, tc := range []struct {
		name      string
		vals      []float64
		wantPanic bool
	}{
		{"clean", []float64{3, 1, 2}, false},
		{"empty", nil, false},
		{"positive-inf", []float64{1, math.Inf(1)}, false},
		{"negative-inf", []float64{math.Inf(-1), 1}, false},
		{"nan-only", []float64{math.NaN()}, true},
		{"nan-mixed", []float64{1, math.NaN(), 2}, true},
		{"nan-tail", []float64{1, 2, math.NaN()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != tc.wantPanic {
					t.Errorf("panic = %v, wantPanic %v", r, tc.wantPanic)
				}
			}()
			p := Summarize(tc.vals)
			if tc.name == "positive-inf" && !math.IsInf(p.Max, 1) {
				t.Errorf("infinite sample should surface as Max, got %g", p.Max)
			}
		})
	}
}

// TestPoissonArrivalTimesPanicsOnBadInput: a zero, negative, NaN or
// infinite rate would silently yield Inf/NaN timestamps that stall every
// downstream event loop, and a negative count has no meaning — both
// violate the contract of the Poisson generator Run draws from
// (workload.AppendPoissonArrivals) and panic, exactly as Spec.Validate
// rejects them for Run.
func TestPoissonArrivalTimesPanicsOnBadInput(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rate      float64
		n         int
		wantPanic bool
	}{
		{"valid", 2.5, 8, false},
		{"zero-n", 1, 0, false},
		{"zero-rate", 0, 8, true},
		{"negative-rate", -1, 8, true},
		{"nan-rate", math.NaN(), 8, true},
		{"inf-rate", math.Inf(1), 8, true},
		{"negative-n", 1, -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != tc.wantPanic {
					t.Errorf("panic = %v, wantPanic %v", r, tc.wantPanic)
				}
			}()
			times := workload.AppendPoissonArrivals(nil, tc.rate, tc.n, 1)
			if len(times) != tc.n {
				t.Errorf("got %d timestamps, want %d", len(times), tc.n)
			}
			for i, ts := range times {
				if !(ts > 0) || math.IsInf(ts, 0) {
					t.Errorf("timestamp %d = %g, want positive finite", i, ts)
				}
				if i > 0 && ts < times[i-1] {
					t.Errorf("timestamps must be non-decreasing, got %g after %g", ts, times[i-1])
				}
			}
		})
	}
}
