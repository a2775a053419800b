package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// memoEntry is one cached evaluation. The claiming worker closes done
// after filling m/err; other workers block on done instead of recomputing.
type memoEntry struct {
	done chan struct{}
	m    Metrics
	err  error
}

// Engine evaluates sweeps over a bounded worker pool with a memoization
// cache that persists across Run calls, so repeated (model, system,
// mapping, …) evaluations — within one grid or across successive sweeps —
// are costed once.
type Engine struct {
	workers int

	mu   sync.Mutex
	memo map[ident]*memoEntry
	// toks interns the memo identities' tokens, for the engine's lifetime.
	toks *tokens
}

// New returns an engine with the given pool size; workers <= 0 means
// GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, memo: make(map[ident]*memoEntry), toks: newTokens()}
}

// CacheSize reports how many evaluations the memo holds.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.memo)
}

// counters aggregates per-run statistics across workers.
type counters struct {
	pruned    atomic.Int64
	evaluated atomic.Int64
	memoHits  atomic.Int64
	errors    atomic.Int64
}

// chunkSize is how many consecutive candidates of one cell a worker takes
// per dispatch: large enough to amortize the channel hand-off over cheap
// pruned or memo-hit candidates, small enough to spread a large cell
// across the pool.
const chunkSize = 32

// gridCell is one enumerated grid cell: its candidates and their tokens.
type gridCell struct {
	points []Point
	tok    cellTokens
}

// chunk is a run of consecutive candidates of one cell; base is the
// enumeration index of points[0], the rank tiebreak.
type chunk struct {
	base   int
	points []Point
	tok    cellTokens
}

// Run evaluates the grid concurrently and returns the same ranking Serial
// would produce. On cancellation it returns ctx.Err() alongside the
// statistics accumulated so far.
//
// The engine never copies the grid: it holds the enumerators' per-cell
// candidate lists, hands them to the workers in chunks, and each worker
// keeps only the rows rank could still return. Beyond those lists, memory
// is bounded by TopK × workers (at most 2 × TopK rows per worker), not by
// the grid size.
func (e *Engine) Run(ctx context.Context, s Spec) (Result, error) {
	start := time.Now() //lint:deterministic wall-clock feeds Stats.Elapsed instrumentation only, never rankings or metrics
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	// Bail before enumeration: large grids spend real time just being
	// expanded, which a cancelled caller should not pay for.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Every cell is walked before the pool starts, so the pool can be
	// clamped to the candidate count.
	var cells []gridCell
	enumerated := 0
	forEachCell(s, e.toks, func(points []Point, tok cellTokens) {
		cells = append(cells, gridCell{points, tok})
		enumerated += len(points)
	})
	c := s.Constraints.WithDefaults(firstSystem(s))
	// Overflowing candidates must still be costed when they are kept in
	// the ranking, so pruning is only sound when they would be dropped.
	prune := !c.AllowOverflow

	workers := e.workers
	if s.Workers > 0 {
		workers = s.Workers
	}
	if workers > enumerated {
		workers = enumerated
	}
	if workers < 1 {
		workers = 1
	}

	var ct counters
	chunks := make(chan chunk)
	// kept[w] is worker w's share of the ranking. rank's order (fits,
	// time, enumeration index) is total, so ranking the union of every
	// worker's top-K gives exactly the top-K of all rows.
	kept := make([][]Row, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled evaluator per worker: simulator slabs and pricing
			// tables survive across the points this goroutine costs
			// (byte-identical to fresh evaluation — see Evaluate).
			ev := newEvaluator()
			done := ctx.Done()
			var rows []Row
			for ch := range chunks {
				for i := range ch.points {
					select {
					case <-done:
						continue
					default:
					}
					p := &ch.points[i]
					m, ok := e.eval(ctx, p, ch.tok, prune, &ct, ev)
					if !ok {
						continue
					}
					rows = append(rows, Row{Point: *p, Metrics: m, order: ch.base + i})
					if len(rows)-c.TopK >= c.TopK {
						rows = rank(rows, c)
					}
				}
			}
			kept[w] = rows
		}()
	}
	base := 0
feed:
	for _, cl := range cells {
		for off := 0; off < len(cl.points); off += chunkSize {
			// Checked before the send: when both select cases are ready Go
			// picks randomly, which would let a cancelled context still
			// feed (and cost) candidates.
			if ctx.Err() != nil {
				break feed
			}
			select {
			case chunks <- chunk{base: base + off, points: cl.points[off:min(off+chunkSize, len(cl.points))], tok: cl.tok}:
			case <-ctx.Done():
				break feed
			}
		}
		base += len(cl.points)
	}
	close(chunks)
	wg.Wait()

	stats := Stats{
		Enumerated: enumerated,
		Pruned:     int(ct.pruned.Load()),
		Evaluated:  int(ct.evaluated.Load()),
		MemoHits:   int(ct.memoHits.Load()),
		Errors:     int(ct.errors.Load()),
		Workers:    workers,
		Elapsed:    time.Since(start), //lint:deterministic instrumentation-only elapsed time, not part of results
	}
	if err := ctx.Err(); err != nil {
		return Result{Stats: stats}, err
	}
	var rows []Row
	for _, r := range kept {
		rows = append(rows, r...)
	}
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	return Result{Rows: rank(rows, c), Stats: stats}, nil
}

// eval costs one point of the cell whose tokens are tok: a memoized full
// evaluation, preceded by the feasibility pre-check (when pruning is
// sound) on a memo miss. Only full evaluations enter the memo — a pruned
// point costs nothing and decides nothing beyond its own run.
//
//optimus:hotpath
func (e *Engine) eval(ctx context.Context, p *Point, tok cellTokens, prune bool, ct *counters, ev *evaluator) (Metrics, bool) {
	id := identOf(p, tok)
	e.mu.Lock()
	ent := e.memo[id]
	e.mu.Unlock()
	if ent == nil {
		return e.evalMiss(ctx, p, &id, prune, ct, ev)
	}
	return awaitEntry(ctx, ent, ct)
}

// evalMiss is eval's memo-miss path: prune, then claim the memo entry and
// evaluate — or wait on the claim another worker made meanwhile.
func (e *Engine) evalMiss(ctx context.Context, p *Point, id *ident, prune bool, ct *counters, ev *evaluator) (Metrics, bool) {
	if prune {
		fit, err := Feasible(*p)
		if err != nil {
			ct.errors.Add(1)
			return Metrics{}, false
		}
		if !fit {
			ct.pruned.Add(1)
			return Metrics{}, false
		}
		// The prune check ran unclaimed, so another worker may have
		// memoized the evaluation meanwhile; re-check below.
	}
	e.mu.Lock()
	ent := e.memo[*id]
	if ent != nil {
		e.mu.Unlock()
		return awaitEntry(ctx, ent, ct)
	}
	ent = &memoEntry{done: make(chan struct{})}
	e.memo[*id] = ent
	e.mu.Unlock()
	ent.m, ent.err = ev.evaluate(*p)
	close(ent.done)
	if ent.err != nil {
		ct.errors.Add(1)
		return Metrics{}, false
	}
	ct.evaluated.Add(1)
	return ent.m, true
}

// awaitEntry answers a point from a memo entry, waiting for the worker
// that claimed it to finish.
//
//optimus:hotpath
func awaitEntry(ctx context.Context, ent *memoEntry, ct *counters) (Metrics, bool) {
	select {
	case <-ent.done:
	case <-ctx.Done():
		return Metrics{}, false
	}
	// An errored cache entry counts as an error, not a hit, so the stats
	// components stay disjoint (their sum never exceeds Enumerated).
	if ent.err != nil {
		ct.errors.Add(1)
		return Metrics{}, false
	}
	ct.memoHits.Add(1)
	return ent.m, true
}

// Run evaluates the grid on a fresh engine — the package-level convenience
// used by the public optimus.Sweep API.
func Run(ctx context.Context, s Spec) (Result, error) {
	return New(s.Workers).Run(ctx, s)
}
