package main

import (
	"errors"
	"math"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 1000, value: 990, pct: 99, beyond: 10},
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		// Too few samples: the maximum, with nothing beyond it.
		{n: 10, value: 10, pct: 100, beyond: 0},
		{n: 1, value: 1, pct: 100, beyond: 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			// Reversed, so tailOf must sort.
			xs[i] = float64(tc.n - i)
		}
		got := tailOf(xs)
		if got.value != tc.value || math.Abs(got.pct-tc.pct) > 1e-9 || got.beyond != tc.beyond || got.n != tc.n {
			t.Errorf("n=%d: got %+v, want value %g pct %g beyond %d", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		above := 0
		for _, x := range xs {
			if x > got.value {
				above++
			}
		}
		if above != got.beyond {
			t.Errorf("n=%d: %d samples above the tail, reported %d", tc.n, above, got.beyond)
		}
	}
	if got := tailOf(nil); !math.IsNaN(got.value) {
		t.Errorf("no samples: got %g, want NaN", got.value)
	}
}

func TestLedgerCountsFailures(t *testing.T) {
	l := newLedger()
	l.fail("pre-timing check", nil)
	l.record(outcome{key: "a", digest: "x", secs: 1, work: 10}, true)
	l.record(outcome{key: "a", digest: "x", secs: 3, work: 10}, true)
	l.record(outcome{key: "a", digest: "y", secs: 2, work: 10}, true) // digest changed
	l.record(outcome{key: "b", err: errors.New("lost requests")}, true)
	l.record(outcome{key: "b", digest: "z"}, false) // untimed
	l.fail("pooled equals fresh", errors.New("differs"))

	if l.attempted != 7 || l.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 7 and 3", l.attempted, l.failed)
	}
	if got, want := l.failRatio(), 3.0/7; got != want {
		t.Errorf("fail ratio %g, want %g", got, want)
	}
	if len(l.secs) != 4 || l.work != 30 || l.busy != 6 {
		t.Errorf("timed samples %v work %g busy %g, want 4 samples, 30 and 6", l.secs, l.work, l.busy)
	}
	if len(l.failures) != 3 {
		t.Errorf("failure reasons %q, want 3", l.failures)
	}
	if newLedger().failRatio() != 0 {
		t.Error("an empty ledger must report a zero fail ratio")
	}
}
