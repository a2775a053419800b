package main

import (
	"optimus/internal/cluster"
	"optimus/internal/infer"
	"optimus/internal/serve"
)

// layerStats accumulates what traced ops observe at each module boundary.
// A workload fills the fields of the layers on its path; the rest stay
// zero and their metrics read 0.
type layerStats struct {
	// internal/sweep, from Engine.Run and its serial replay.
	runSecs, allocs                           float64
	workers                                   int
	enumerated, pruned, evaluated, hits       int
	enumSecs, keySecs, feasibleSecs, evalSecs float64
	feasibleCalls, evalCount                  int
	saveSecs, loadSecs, cacheBytes            float64
	cacheOps                                  int

	// The analytic core, from sampled evaluated candidates.
	predicts                        int
	predictSecs, predictAllocs      float64
	memfoots, layerFwds             int
	memfootSecs, layerFwdSecs       float64
	gemms, ews                      int
	gemmSecs, ewSecs, estimateAlloc float64

	// internal/infer.
	inferPredicts, costers, prefills, decodes             int
	inferPredictSecs, costerSecs, prefillSecs, decodeSecs float64

	// internal/workload.
	genReqs int
	genSecs float64

	// internal/serve: timed direct Runner.Run calls, and the simulated
	// counts of every serve simulation seen (direct or a fleet replica).
	serveRuns                                       int
	serveSecs, serveIters, serveSeqIters            float64
	serveAllocs, serveBytes                         float64
	simRuns, simPreempts, simHits, simDone, simSwap int
	simIters, simSeqIters, simKVIters               float64

	// internal/cluster, from FindKnee and its replayed probes.
	knees, probes                    int
	kneeSecs, probeSecs, probeAllocs float64
	arrivalSecs                      map[cluster.Routing]float64
	arrivals                         map[cluster.Routing]int
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order; the self-time shares and the tracing overhead come from the
// tracer.
var perLayer = []struct{ name, unit string }{
	{"sweep.enumerate_ns_per_cand", "ns"},
	{"sweep.key_ns_per_cand", "ns"},
	{"sweep.feasible_ns_per_cand", "ns"},
	{"sweep.evaluate_us_per_cand", "us"},
	{"sweep.allocs_per_cand", "count"},
	{"sweep.prune_ratio", "ratio"},
	{"sweep.memo_hit_ratio", "ratio"},
	{"sweep.parallel_efficiency", "ratio"},
	{"sweep.save_cache_ms", "ms"},
	{"sweep.load_cache_ms", "ms"},
	{"sweep.cache_bytes", "bytes"},
	{"train.predict_us", "us"},
	{"train.allocs_per_predict", "count"},
	{"memfoot.train_ns", "ns"},
	{"kernels.layer_forward_ns", "ns"},
	{"roofline.gemm_ns", "ns"},
	{"roofline.elementwise_ns", "ns"},
	{"roofline.allocs_per_estimate", "count"},
	{"infer.predict_us", "us"},
	{"infer.stepcoster_build_us", "us"},
	{"infer.prefill_ns", "ns"},
	{"infer.decode_step_ns", "ns"},
	{"workload.generate_ns_per_req", "ns"},
	{"serve.run_ms", "ms"},
	{"serve.ns_per_iter", "ns"},
	{"serve.ns_per_seq_iter", "ns"},
	{"serve.allocs_per_run", "count"},
	{"serve.bytes_per_run", "bytes"},
	{"serve.iters_per_run", "count"},
	{"serve.mean_batch", "count"},
	{"serve.preempts_per_run", "count"},
	{"serve.prefix_hit_ratio", "ratio"},
	{"serve.swap_outs_per_run", "count"},
	{"serve.kv_util_pct", "%"},
	{"cluster.probe_ms", "ms"},
	{"cluster.ns_per_arrival.least-queue", "ns"},
	{"cluster.ns_per_arrival.round-robin", "ns"},
	{"cluster.allocs_per_probe", "count"},
	{"cluster.probes_per_knee", "count"},
	{"cluster.bisect_self_ms", "ms"},
	{"bench.tracing_overhead_pct", "%"},
	{"self_pct.analytic", "%"},
	{"self_pct.bench", "%"},
	{"self_pct.cluster", "%"},
	{"self_pct.infer", "%"},
	{"self_pct.serve", "%"},
	{"self_pct.sweep", "%"},
	{"self_pct.workload", "%"},
}

// per divides, reading 0 when nothing was counted.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// metrics turns the accumulated counts into the per-layer metrics.
func (s *layerStats) metrics() map[string]metric {
	f := func(n int) float64 { return float64(n) }
	v := map[string]float64{
		"sweep.enumerate_ns_per_cand":  1e9 * per(s.enumSecs, f(s.enumerated)),
		"sweep.key_ns_per_cand":        1e9 * per(s.keySecs, f(s.enumerated)),
		"sweep.feasible_ns_per_cand":   1e9 * per(s.feasibleSecs, f(s.feasibleCalls)),
		"sweep.evaluate_us_per_cand":   1e6 * per(s.evalSecs, f(s.evalCount)),
		"sweep.allocs_per_cand":        per(s.allocs, f(s.enumerated)),
		"sweep.prune_ratio":            per(f(s.pruned), f(s.enumerated)),
		"sweep.memo_hit_ratio":         per(f(s.hits), f(s.hits+s.evaluated)),
		"sweep.parallel_efficiency":    per(s.enumSecs+s.feasibleSecs+s.evalSecs, s.runSecs*f(s.workers)),
		"sweep.save_cache_ms":          1e3 * per(s.saveSecs, f(s.cacheOps)),
		"sweep.load_cache_ms":          1e3 * per(s.loadSecs, f(s.cacheOps)),
		"sweep.cache_bytes":            per(s.cacheBytes, f(s.cacheOps)),
		"train.predict_us":             1e6 * per(s.predictSecs, f(s.predicts)),
		"train.allocs_per_predict":     per(s.predictAllocs, f(s.predicts)),
		"memfoot.train_ns":             1e9 * per(s.memfootSecs, f(s.memfoots)),
		"kernels.layer_forward_ns":     1e9 * per(s.layerFwdSecs, f(s.layerFwds)),
		"roofline.gemm_ns":             1e9 * per(s.gemmSecs, f(s.gemms)),
		"roofline.elementwise_ns":      1e9 * per(s.ewSecs, f(s.ews)),
		"roofline.allocs_per_estimate": per(s.estimateAlloc, f(s.gemms+s.ews)),
		"infer.predict_us":             1e6 * per(s.inferPredictSecs, f(s.inferPredicts)),
		"infer.stepcoster_build_us":    1e6 * per(s.costerSecs, f(s.costers)),
		"infer.prefill_ns":             1e9 * per(s.prefillSecs, f(s.prefills)),
		"infer.decode_step_ns":         1e9 * per(s.decodeSecs, f(s.decodes)),
		"workload.generate_ns_per_req": 1e9 * per(s.genSecs, f(s.genReqs)),
		"serve.run_ms":                 1e3 * per(s.serveSecs, f(s.serveRuns)),
		"serve.ns_per_iter":            1e9 * per(s.serveSecs, s.serveIters),
		"serve.ns_per_seq_iter":        1e9 * per(s.serveSecs, s.serveSeqIters),
		"serve.allocs_per_run":         per(s.serveAllocs, f(s.serveRuns)),
		"serve.bytes_per_run":          per(s.serveBytes, f(s.serveRuns)),
		"serve.iters_per_run":          per(s.simIters, f(s.simRuns)),
		"serve.mean_batch":             per(s.simSeqIters, s.simIters),
		"serve.preempts_per_run":       per(f(s.simPreempts), f(s.simRuns)),
		"serve.prefix_hit_ratio":       per(f(s.simHits), f(s.simDone)),
		"serve.swap_outs_per_run":      per(f(s.simSwap), f(s.simRuns)),
		"serve.kv_util_pct":            100 * per(s.simKVIters, s.simIters),
		"cluster.probe_ms":             1e3 * per(s.probeSecs, f(s.probes)),
		"cluster.allocs_per_probe":     per(s.probeAllocs, f(s.probes)),
		"cluster.probes_per_knee":      per(f(s.probes), f(s.knees)),
		// FindKnee's own time beyond its fleet simulations: the replayed
		// probes stand in for the ones it ran.
		"cluster.bisect_self_ms": 1e3 * per(s.kneeSecs-s.probeSecs, f(s.knees)),
	}
	for _, r := range []cluster.Routing{cluster.LeastQueue, cluster.RoundRobin} {
		v["cluster.ns_per_arrival."+r.String()] = 1e9 * per(s.arrivalSecs[r], f(s.arrivals[r]))
	}
	out := make(map[string]metric, len(v))
	for _, m := range perLayer {
		if x, ok := v[m.name]; ok {
			out[m.name] = metric{x, m.unit}
		}
	}
	return out
}

// simulated adds one serve simulation's exact counts.
func (s *layerStats) simulated(r serve.Result) {
	s.simRuns++
	it := float64(r.Iterations)
	s.simIters += it
	s.simSeqIters += r.MeanBatch * it
	s.simKVIters += r.MeanKVUtil * it
	s.simPreempts += r.Preemptions
	s.simHits += r.PrefixHits
	s.simDone += r.Requests
	s.simSwap += r.KVSwapOuts
}

// probeStepCoster times the step-cost engine outside any op: building a
// coster for each spec, then pricing prefill and decode steps across the
// batch sizes a continuous-batching iteration takes.
func (s *layerStats) probeStepCoster(tr *tracer, specs []infer.Spec) error {
	for _, is := range specs {
		sp := tr.begin("infer.NewStepCoster")
		c, err := infer.NewStepCoster(is)
		s.costerSecs += tr.end(sp)
		s.costers++
		if err != nil {
			return err
		}
		sp = tr.begin("infer.StepCoster.Prefill")
		for b := 1; b <= 64; b++ {
			c.Prefill(b)
		}
		s.prefillSecs += tr.end(sp)
		s.prefills += 64
		kv := is.PromptTokens + is.GenTokens
		sp = tr.begin("infer.StepCoster.DecodeStep")
		for b := 1; b <= 64; b++ {
			c.DecodeStep(kv, b)
		}
		s.decodeSecs += tr.end(sp)
		s.decodes += 64
	}
	return nil
}
