package sweep_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/sweep"
)

// bigGrid is a grid large enough (several thousand candidates, all fully
// costed) that a sweep takes tens of milliseconds — room for a
// cancellation to land mid-run.
func bigGrid(t testing.TB) sweep.Spec {
	return sweep.Spec{
		Models:        []model.Config{model.GPT175B(), model.GPT310B(), model.GPT530B()},
		Systems:       []*arch.System{dgx(t, 64), dgx(t, 128), dgx(t, 256)},
		GlobalBatches: []int{64, 128, 256, 512},
		Seqs:          []int{2048, 4096},
		// AllowOverflow forces full costing of every candidate, making
		// the grid expensive enough for cancellation to land mid-run.
		Constraints: sweep.Constraints{AllowOverflow: true, TopK: 10},
	}
}

// TestCancellationStopsEarly cancels a large sweep shortly after it
// starts and checks it returns promptly, reports the cancellation, and
// did not evaluate the whole grid.
func TestCancellationStopsEarly(t *testing.T) {
	spec := bigGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := sweep.Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	done := res.Stats.Pruned + res.Stats.Evaluated + res.Stats.MemoHits + res.Stats.Errors
	if res.Stats.Enumerated == 0 {
		t.Fatal("nothing enumerated before cancellation")
	}
	if done >= res.Stats.Enumerated {
		t.Errorf("cancellation did not stop the sweep early: %s", res.Stats)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled sweep still took %s", elapsed)
	}
	if len(res.Rows) != 0 {
		t.Errorf("cancelled sweep returned %d ranked rows", len(res.Rows))
	}
}

// TestPreCancelledContext returns immediately without costing anything.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sweep.Run(ctx, bigGrid(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Stats.Evaluated != 0 {
		t.Errorf("pre-cancelled sweep evaluated %d candidates", res.Stats.Evaluated)
	}
}

// TestMemoAcrossRuns re-runs an overlapping grid on a shared engine and
// checks the second pass is answered from the cache.
func TestMemoAcrossRuns(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT22B()},
		Systems:       []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{16},
		Constraints:   sweep.Constraints{AllowOverflow: true, TopK: 1000},
	}
	e := sweep.New(4)
	first, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.MemoHits != 0 {
		t.Errorf("first run should not hit the cache: %s", first.Stats)
	}
	if e.CacheSize() != first.Stats.Evaluated+first.Stats.Errors {
		t.Errorf("cache holds %d entries, expected %d", e.CacheSize(),
			first.Stats.Evaluated+first.Stats.Errors)
	}
	second, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 || second.Stats.MemoHits != first.Stats.Enumerated {
		t.Errorf("second run not fully memoized: %s", second.Stats)
	}
	if formatRows(second.Rows) != formatRows(first.Rows) {
		t.Error("memoized ranking diverges from the computed one")
	}
}

// TestMemoStress hammers one engine's memoization cache from many
// concurrent sweeps over the same grid — the -race workout for the
// claim/wait protocol. Every run must see the identical ranking, and each
// unique candidate must be costed exactly once across all runs.
func TestMemoStress(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT22B(), model.GPT7B()},
		Systems:       []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{16, 32},
		Constraints:   sweep.Constraints{AllowOverflow: true, TopK: 50},
	}
	e := sweep.New(8)
	const runs = 12
	results := make([]sweep.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	golden := formatRows(results[0].Rows)
	if golden == "" {
		t.Fatal("empty ranking")
	}
	var evaluated, hits int
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := formatRows(results[i].Rows); got != golden {
			t.Errorf("run %d ranking diverges under contention", i)
		}
		evaluated += results[i].Stats.Evaluated
		hits += results[i].Stats.MemoHits
	}
	unique := results[0].Stats.Enumerated
	if evaluated != unique {
		t.Errorf("unique candidates costed %d times total, want exactly %d (once each)",
			evaluated, unique)
	}
	if want := (runs - 1) * unique; hits != want {
		t.Errorf("memo hits %d, want %d", hits, want)
	}
}

// TestWorkerCountClamped: more workers than candidates must not spawn
// idle goroutines or change results.
func TestWorkerCountClamped(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT7B()},
		Systems:       []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{16},
		Workers:       10000,
		Constraints:   sweep.Constraints{TopK: 5},
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers > res.Stats.Enumerated {
		t.Errorf("pool of %d workers for %d candidates", res.Stats.Workers, res.Stats.Enumerated)
	}
}

// TestEngineWarmAllocBudget pins the engine layer's memory per enumerated
// candidate on a warm memo, where evaluation costs nothing and what is
// left is enumeration, dispatch and ranking. A grid-sized per-candidate
// slot or row array, or a merged copy of the grid, would exceed it.
func TestEngineWarmAllocBudget(t *testing.T) {
	const budget = 2500 // bytes per enumerated candidate
	var systems []*arch.System
	for _, n := range []int{64, 128, 256, 512} {
		systems = append(systems, dgx(t, n))
	}
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT175B(), model.GPT530B()},
		Systems:       systems,
		GlobalBatches: []int{512, 1024, 2048},
		Workers:       2,
	}
	e := sweep.New(2)
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	enumerated := 0
	for i := 0; i < runs; i++ {
		res, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		enumerated += res.Stats.Enumerated
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(enumerated)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(enumerated)
	t.Logf("%d candidates per run: %.0f B and %.2f allocs per candidate", enumerated/runs, per, allocs)
	if per > budget {
		t.Errorf("warm Engine.Run allocates %.0f B per candidate, budget %d", per, budget)
	}
}

// TestSweepAllocBudget pins the engine's allocation count on a warm memo:
// O(cells), not O(candidates). Enumeration allocates a few slices per
// (model, system, precision, batch, seq) cell and the run a fixed set
// (workers, channels, ranking); identifying, dispatching and answering a
// candidate from the memo allocates nothing, so a per-candidate key string
// or lookup allocation would blow the budget many times over.
func TestSweepAllocBudget(t *testing.T) {
	var systems []*arch.System
	for _, n := range []int{64, 128, 256, 512} {
		systems = append(systems, dgx(t, n))
	}
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT175B(), model.GPT530B()},
		Systems:       systems,
		GlobalBatches: []int{512, 1024, 2048},
		Seqs:          []int{2048, 4096},
		Workers:       2,
	}
	cells := len(spec.Models) * len(spec.Systems) * len(spec.GlobalBatches) * len(spec.Seqs)
	e := sweep.New(2)
	res, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d cells, %d candidates: %.0f allocs per warm run", cells, res.Stats.Enumerated, allocs)
	// Measured: 1750 allocations for 48 cells (about 36 per cell: the
	// divisor lists and each cell's mapping and point slices) and 9162
	// candidates. A key string per candidate alone would add 9162.
	const perCell, perRun = 40, 256
	if budget := float64(perCell*cells + perRun); allocs > budget {
		t.Errorf("warm Engine.Run allocates %.0f times for %d cells (%d candidates), budget %.0f",
			allocs, cells, res.Stats.Enumerated, budget)
	}
}
