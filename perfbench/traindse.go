package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/kernels"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/train"
)

// train-dse is a seeded design-study session of sweep queries, the work
// behind `optimus sweep`: a user resumes from a persisted memo cache and
// explores plans for GPT-175B/530B/1008B on A100/H100/B200 systems,
// changing one axis at a time, with one inference sweep and one
// full-costing (AllowOverflow) sweep per session. The analytic core and
// the sweep phases do all the work; serve and cluster do none.
var trainDSEWorkload = benchWorkload{
	why:     "sweep queries: the analytic core and the sweep phases do all the work, serve and cluster none",
	work:    "candidates enumerated per CPU second of sweep queries",
	prepare: prepareTrainDSE,
	setup:   setupTrainDSE,
}

const (
	// dseSessions distinct sessions cycle through a run, so every query
	// repeats and its digest is checked against the first answer.
	dseSessions = 4
	// dseSamples bounds the evaluated candidates per traced query whose
	// analytic-core calls are timed one by one.
	dseSamples = 4
)

var (
	dseModels = []model.Config{model.GPT175B(), model.GPT530B(), model.GPT1008B()}
	dseGPUs   = []int{64, 128, 256, 512}
	dseSeqs   = []int{2048, 4096}
)

// dseDevice is a device with the fabrics it ships with.
type dseDevice struct {
	dev          arch.Device
	intra, inter tech.NetworkTech
}

var dseDevices = []dseDevice{
	{arch.A100(), tech.NVLink3, tech.IBHDR},
	{arch.H100(), tech.NVLink4, tech.IBNDR},
	{arch.B200(), tech.NVLink5, tech.IBNDR},
}

// dseSystems is one system per GPU count of a device.
func dseSystems(d dseDevice) ([]*arch.System, error) {
	var out []*arch.System
	for _, n := range dseGPUs {
		sys, err := arch.SystemOf(d.dev, n, 8, d.intra, d.inter)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}

// dseCells are the cells a session plans: each model on each pair of
// devices, with both devices' systems at every GPU count. Cells sharing a
// device share candidates, so the memo carries across them.
func dseCells() (cells []sweep.Spec, err error) {
	var systems [][]*arch.System
	for _, d := range dseDevices {
		sys, err := dseSystems(d)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	for _, m := range dseModels {
		for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
			cells = append(cells, sweep.Spec{
				Models:  []model.Config{m},
				Systems: append(append([]*arch.System(nil), systems[pair[0]]...), systems[pair[1]]...),
			})
		}
	}
	return cells, nil
}

// dseSession generates one session's queries. Each cell gets a base query
// and a follow-up that changes one axis — the batch sizes, the sequence
// length, or adds microbatch 8 — so queries overlap and the memo answers
// part of every follow-up. The seed orders the cells and deals the
// sequence lengths and follow-ups out evenly, so every session costs
// about the same.
func dseSession(seed int64) ([]sweep.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	cells, err := dseCells()
	if err != nil {
		return nil, err
	}
	seqRank, followRank := rng.Perm(len(cells)), rng.Perm(len(cells))
	var qs []sweep.Spec
	for _, c := range rng.Perm(len(cells)) {
		seq := dseSeqs[seqRank[c]%2]
		base := cells[c]
		base.GlobalBatches = []int{512, 1024, 2048}
		base.Seqs = []int{seq}
		follow := base
		switch followRank[c] % 3 {
		case 0:
			follow.GlobalBatches = [][]int{{256, 512, 1024}, {1024, 2048, 4096}}[rng.Intn(2)]
		case 1:
			follow.Seqs = []int{dseSeqs[0] + dseSeqs[1] - seq}
		default:
			follow.Constraints.Microbatches = []int{1, 2, 4, 8}
		}
		qs = append(qs, base, follow)
	}
	// One inference sweep across every model and device.
	inf := sweep.Spec{
		Workload: sweep.Inference, Models: dseModels,
		GlobalBatches: []int{1, 16}, Seqs: []int{200, 2000}, GenTokens: []int{200},
	}
	for _, d := range dseDevices {
		for _, n := range []int{8, 16} {
			sys, sysErr := arch.SystemOf(d.dev, n, 8, d.intra, d.inter)
			if sysErr != nil {
				return nil, sysErr
			}
			inf.Systems = append(inf.Systems, sys)
		}
	}
	// One full-costing query: overflowing candidates are kept, so none is
	// pruned and every one is costed.
	d := dseDevices[rng.Intn(len(dseDevices))]
	sys, err := arch.SystemOf(d.dev, dseGPUs[0], 8, d.intra, d.inter)
	if err != nil {
		return nil, err
	}
	over := sweep.Spec{
		Models: dseModels[:1], Systems: []*arch.System{sys},
		GlobalBatches: []int{[]int{512, 1024}[rng.Intn(2)]}, Seqs: dseSeqs[:1],
		Constraints: sweep.Constraints{AllowOverflow: true},
	}
	// The inference and full-costing queries land at seeded positions.
	for _, q := range []sweep.Spec{inf, over} {
		at := rng.Intn(len(qs) + 1)
		qs = append(qs[:at], append([]sweep.Spec{q}, qs[at:]...)...)
	}
	return qs, nil
}

// dseSeed derives session k's seed from the workload seed.
func dseSeed(seed int64, k int) int64 { return seed*1000003 + int64(k) + 17 }

func dseCachePath(cfg config) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("sweep-cache-seed%d.json", cfg.seed))
}

// prepareTrainDSE persists the memo of the coarse sweep the user ran
// before the session — every model on every device at batch 1024 and
// sequence 2048 — as the cache file every setup loads.
func prepareTrainDSE(cfg config) error {
	eng := sweep.New(cfg.procs)
	for _, d := range dseDevices {
		systems, err := dseSystems(d)
		if err != nil {
			return err
		}
		q := sweep.Spec{Models: dseModels, Systems: systems, GlobalBatches: []int{1024}, Seqs: dseSeqs[:1]}
		if _, err := eng.Run(context.Background(), q); err != nil {
			return err
		}
	}
	return eng.SaveCacheFile(dseCachePath(cfg))
}

type trainDSE struct {
	cfg      config
	sessions [][]sweep.Spec
	// cache is the persisted memo; every session starts from an engine
	// loaded with it.
	cache []byte
	eng   *sweep.Engine
	// fresh marks an engine no query has run on yet.
	fresh bool
	// memo mirrors the engine's memo keys for the traced serial replay,
	// starting from the cache's keys.
	cacheKeys map[string]struct{}
	memo      map[string]struct{}
	st        layerStats
}

func setupTrainDSE(cfg config) (instance, error) {
	t := &trainDSE{cfg: cfg}
	for k := 0; k < dseSessions; k++ {
		qs, err := dseSession(dseSeed(cfg.seed, k))
		if err != nil {
			return nil, err
		}
		t.sessions = append(t.sessions, qs)
	}
	b, err := os.ReadFile(dseCachePath(cfg))
	if err != nil {
		return nil, err
	}
	t.cache = b
	t.eng = sweep.New(cfg.procs)
	if err := t.eng.LoadCache(bytes.NewReader(b)); err != nil {
		return nil, err
	}
	t.fresh = true
	return t, nil
}

func (t *trainDSE) cycle() int { return dseSessions * len(t.sessions[0]) }

func (t *trainDSE) query(i int) (k, j int) {
	i %= t.cycle()
	return i / len(t.sessions[0]), i % len(t.sessions[0])
}

// check compares the first query's Engine.Run ranking with the serial
// golden reference on a fresh, cache-less engine.
func (t *trainDSE) check(l *ledger) {
	q := t.sessions[0][0]
	got, err := sweep.New(t.cfg.procs).Run(context.Background(), q)
	if err == nil {
		var want sweep.Result
		want, err = sweep.Serial(q)
		if err == nil && rowsDigest(got) != rowsDigest(want) {
			err = fmt.Errorf("Engine.Run ranking %s differs from Serial's %s", rowsDigest(got), rowsDigest(want))
		}
	}
	l.fail("engine equals serial", err)
}

func rowsDigest(r sweep.Result) string {
	parts := make([]any, 0, 2*len(r.Rows))
	for _, row := range r.Rows {
		parts = append(parts, row.Point.Key(), row.Metrics)
	}
	return digest(parts...)
}

func (t *trainDSE) op(i int, tr *tracer) outcome {
	k, j := t.query(i)
	if j == 0 && !t.fresh {
		// A new session resumes from the persisted cache (untimed).
		t.eng = sweep.New(t.cfg.procs)
		if err := t.eng.LoadCache(bytes.NewReader(t.cache)); err != nil {
			return outcome{key: "load", err: err}
		}
		t.memo = nil
		// Collect the reload's garbage here, outside the timed queries: a
		// real session loads the cache once, at setup.
		runtime.GC()
	}
	t.fresh = false
	q := t.sessions[k][j]
	out := outcome{key: fmt.Sprintf("s%d.q%d", k, j)}
	root := tr.begin("bench.op")
	var allocs allocCounter
	if tr != nil {
		allocs = countAllocs()
	}
	sp := tr.begin("sweep.Engine.Run")
	c := startClock()
	res, err := t.eng.Run(context.Background(), q)
	out.secs, out.wall = c.stop()
	tr.end(sp)
	if err == nil && tr != nil {
		m, _ := allocs.stop()
		st := res.Stats
		t.st.runSecs += out.wall
		t.st.workers = st.Workers
		t.st.allocs += m
		t.st.enumerated += st.Enumerated
		t.st.pruned += st.Pruned
		t.st.evaluated += st.Evaluated
		t.st.hits += st.MemoHits
		err = t.replay(q, st, tr)
	}
	tr.end(root)
	if err != nil {
		out.err = err
		return out
	}
	out.work = float64(res.Stats.Enumerated)
	out.digest = rowsDigest(res)
	if res.Stats.Errors > 0 {
		out.err = fmt.Errorf("%d candidates errored", res.Stats.Errors)
	}
	return out
}

// replay re-runs a traced query serially through the public phase
// functions Engine.Run hides — Enumerate, Point.Key, Feasible, Evaluate —
// making the engine's decisions against a mirror of its memo, and checks
// that it prunes, hits and evaluates exactly what the engine did. It then
// times the analytic core on a few of the evaluated candidates.
func (t *trainDSE) replay(q sweep.Spec, st sweep.Stats, tr *tracer) error {
	if t.cacheKeys == nil {
		var file struct {
			Entries map[string]json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(t.cache, &file); err != nil {
			return err
		}
		t.cacheKeys = make(map[string]struct{}, len(file.Entries))
		for k := range file.Entries {
			t.cacheKeys[k] = struct{}{}
		}
	}
	if t.memo == nil {
		t.memo = maps.Clone(t.cacheKeys)
	}
	rp := tr.begin("sweep.replay")
	defer tr.end(rp)

	sp := tr.begin("sweep.Enumerate")
	points := sweep.Enumerate(q)
	t.st.enumSecs += tr.end(sp)
	if len(points) != st.Enumerated {
		return fmt.Errorf("Enumerate gave %d candidates, Engine.Run %d", len(points), st.Enumerated)
	}

	// Engine.Run never calls Point.Key: enumeration builds each key once,
	// with the model and system tokens made once per cell, so the
	// engine's key cost lies inside Enumerate. Point.Key rebuilds those
	// tokens on every call. The replay needs the keys only to mirror the
	// memo, so the span is kept outside the op, in no layer's share of op
	// self time, and sweep.key_ns_per_cand times the public re-keying
	// path.
	op := tr.op
	tr.setOp(-1)
	sp = tr.begin("sweep.Point.Key")
	keys := make([]string, len(points))
	for i, p := range points {
		keys[i] = p.Key()
	}
	t.st.keySecs += tr.end(sp)
	tr.setOp(op)

	prune := !q.Constraints.AllowOverflow
	var evaluate []int
	hits, pruned := 0, 0
	sp = tr.begin("sweep.Feasible")
	for i, p := range points {
		if _, ok := t.memo[keys[i]]; ok {
			hits++
			continue
		}
		if prune {
			fit, err := sweep.Feasible(p)
			t.st.feasibleCalls++
			if err != nil {
				tr.end(sp)
				return err
			}
			if !fit {
				pruned++
				continue
			}
		}
		evaluate = append(evaluate, i)
	}
	t.st.feasibleSecs += tr.end(sp)

	sp = tr.begin("sweep.Evaluate")
	for _, i := range evaluate {
		if _, err := sweep.Evaluate(points[i]); err != nil {
			tr.end(sp)
			return err
		}
		t.memo[keys[i]] = struct{}{}
	}
	t.st.evalSecs += tr.end(sp)
	t.st.evalCount += len(evaluate)

	if hits != st.MemoHits || pruned != st.Pruned || len(evaluate) != st.Evaluated {
		return fmt.Errorf("serial replay hit/pruned/evaluated %d/%d/%d, Engine.Run %d/%d/%d",
			hits, pruned, len(evaluate), st.MemoHits, st.Pruned, st.Evaluated)
	}
	for n, i := range evaluate {
		if n == dseSamples {
			break
		}
		if err := t.sample(points[i], tr); err != nil {
			return err
		}
	}
	return nil
}

// sample times one evaluated candidate's analytic-core calls one by one.
func (t *trainDSE) sample(p sweep.Point, tr *tracer) error {
	s := &t.st
	if p.Workload == sweep.Inference {
		sp := tr.begin("infer.Predict")
		_, err := infer.Predict(inferSpecOf(p))
		s.inferPredictSecs += tr.end(sp)
		s.inferPredicts++
		return err
	}
	a := countAllocs()
	sp := tr.begin("train.Predict")
	_, err := train.Predict(train.Spec{
		Model: p.Model, System: p.System, Map: p.Map, GlobalBatch: p.GlobalBatch,
		Seq: p.Seq, Precision: p.Precision, Recompute: p.Recompute,
	})
	s.predictSecs += tr.end(sp)
	m, _ := a.stop()
	s.predictAllocs += m
	s.predicts++
	if err != nil {
		return err
	}

	sp = tr.begin("memfoot.Train")
	_, err = memfoot.Train(memfoot.TrainSpec{
		Model: p.Model, Map: p.Map, Seq: p.Seq, GlobalBatch: p.GlobalBatch, Recompute: p.Recompute,
	})
	s.memfootSecs += tr.end(sp)
	s.memfoots++
	if err != nil {
		return err
	}

	// The forward layer exactly as train.Predict enumerates it.
	exec := kernels.Exec{
		Batch: p.Map.Microbatch, Seq: p.Seq, Context: p.Seq, TP: p.Map.TP, SP: p.Map.SP,
		Precision: p.Precision, Store: tech.BF16, Phase: kernels.TrainForward,
	}
	sp = tr.begin("kernels.LayerForward")
	ops := kernels.LayerForward(p.Model, exec)
	s.layerFwdSecs += tr.end(sp)
	s.layerFwds++

	eng := roofline.New(p.System.Device)
	a = countAllocs()
	sp = tr.begin("roofline.EstimateGEMM")
	for _, op := range ops {
		if op.Kind == kernels.KindGEMM {
			eng.EstimateGEMM(op.GEMM)
			s.gemms++
		}
	}
	s.gemmSecs += tr.end(sp)
	sp = tr.begin("roofline.EstimateElementwise")
	for _, op := range ops {
		if op.Kind == kernels.KindElementwise {
			eng.EstimateElementwise(op.EW)
			s.ews++
		}
	}
	s.ewSecs += tr.end(sp)
	m, _ = a.stop()
	s.estimateAlloc += m
	return nil
}

func inferSpecOf(p sweep.Point) infer.Spec {
	return infer.Spec{
		Model: p.Model, System: p.System, TP: p.Map.TP, Batch: p.GlobalBatch,
		PromptTokens: p.Seq, GenTokens: p.GenTokens, Precision: p.Precision,
	}
}

// layerProbe times the persist phase — saving the session memo and
// loading it back — and the step-cost engine on the inference query's
// candidates.
func (t *trainDSE) layerProbe(tr *tracer) error {
	s := &t.st
	var buf bytes.Buffer
	sp := tr.begin("sweep.Engine.SaveCache")
	err := t.eng.SaveCache(&buf)
	s.saveSecs += tr.end(sp)
	if err != nil {
		return err
	}
	s.cacheBytes += float64(buf.Len())
	sp = tr.begin("sweep.Engine.LoadCache")
	err = sweep.New(t.cfg.procs).LoadCache(&buf)
	s.loadSecs += tr.end(sp)
	s.cacheOps++
	if err != nil {
		return err
	}
	var specs []infer.Spec
	for _, q := range t.sessions[0] {
		if q.Workload != sweep.Inference {
			continue
		}
		for _, p := range sweep.Enumerate(q) {
			specs = append(specs, inferSpecOf(p))
		}
	}
	return s.probeStepCoster(tr, specs)
}

func (t *trainDSE) layers() map[string]metric { return t.st.metrics() }
