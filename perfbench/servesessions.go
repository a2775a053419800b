package main

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// serve-sessions is pooled serve.Runner.Run calls back to back, the work
// behind `optimus serve`: multi-turn session cohorts with growing shared
// prefixes and lognormal lengths, paged KV under pressure and a host KV
// tier, on Llama2-13B (2×H100) and Llama2-70B (4×H100). Workload
// generation, step-cost lookup, paged admission, prefix caching and swap
// carry the load; the analytic core runs only in setup.
var serveSessionsWorkload = benchWorkload{
	why:     "session-cohort serving: generation, step-cost lookup, paged admission, prefix cache and swap carry the load",
	work:    "simulated requests completed per CPU second of serve.Runner.Run",
	prepare: func(config) error { return nil },
	setup:   setupServeSessions,
}

const (
	sessionRequests = 8192
	// sessionKVTokens is the device KV budget in tokens: a few of the
	// longest session contexts, so admission preempts and swaps.
	sessionKVTokens = 24 << 10
	sessionHostKV   = 64 << 10
)

// sessionMix has prefix-free tenants (sessions own their prefixes) with
// heavy-tailed lengths.
var sessionMix = []workload.TenantLoad{
	{Tenant: "chat", Share: 3, PromptTokens: 160, GenTokens: 120, PromptSigma: 0.6, GenSigma: 0.5},
	{Tenant: "agent", Share: 1, PromptTokens: 480, GenTokens: 80, PromptSigma: 0.4, GenSigma: 0.4},
}

// servingConfig is one serving deployment: a model on a TP group of
// H100s, at a session arrival rate it sustains under KV pressure without
// a growing queue, so a run's cost does not hinge on its seed.
type servingConfig struct {
	model model.Config
	tp    int
	rate  float64
}

var sessionConfigs = []servingConfig{
	{model.Llama2_13B(), 2, 1.0},
	{model.Llama2_70B(), 4, 0.6},
}

// sessionPool is the op cycle as (config, seed index) pairs: two 13B runs
// per 70B run, each with its own seed.
var sessionPool = [][2]int{{0, 0}, {0, 1}, {1, 0}, {0, 2}, {0, 3}, {1, 1}}

func h100System(tp int) (*arch.System, error) {
	return arch.SystemOf(arch.H100(), tp, 8, tech.NVLink4, tech.IBNDR)
}

// kvBytes is the per-device KV cache of tokens tokens of one sequence.
func kvBytes(c servingConfig, tokens int) float64 {
	return memfoot.Inference(c.model, c.tp, 1, tokens, tech.FP16.Bytes()).KVCache
}

func sessionSpec(c servingConfig, seed int64) (serve.Spec, error) {
	sys, err := h100System(c.tp)
	if err != nil {
		return serve.Spec{}, err
	}
	return serve.Spec{
		Model: c.model, System: sys, TP: c.tp, Precision: tech.FP16,
		Mix: sessionMix, Rate: c.rate, Turns: 4, Think: 5,
		Requests: sessionRequests, Seed: seed,
		Policy:     serve.Paged,
		KVCapacity: kvBytes(c, sessionKVTokens), HostKVBytes: kvBytes(c, sessionHostKV),
	}, nil
}

type serveSessions struct {
	specs   []serve.Spec
	cfgOf   []int
	runners []*serve.Runner
	st      layerStats
}

// setupServeSessions builds the pool and runs it once cold on fresh
// runners, filling each runner's pricing tables.
func setupServeSessions(cfg config) (instance, error) {
	s := &serveSessions{}
	for _, pc := range sessionPool {
		spec, err := sessionSpec(sessionConfigs[pc[0]], cfg.seed*7919+int64(pc[1]))
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, spec)
		s.cfgOf = append(s.cfgOf, pc[0])
	}
	for range sessionConfigs {
		s.runners = append(s.runners, serve.NewRunner())
	}
	for i, spec := range s.specs {
		if _, err := s.runners[s.cfgOf[i]].Run(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *serveSessions) cycle() int { return len(s.specs) }

// check compares every pooled runner's result with a fresh serve.Run.
func (s *serveSessions) check(l *ledger) {
	for i, spec := range s.specs {
		pooled, err := s.runners[s.cfgOf[i]].Run(spec)
		if err == nil {
			var fresh serve.Result
			fresh, err = serve.Run(spec)
			if err == nil && serveDigest(pooled) != serveDigest(fresh) {
				err = fmt.Errorf("pooled result %s differs from fresh %s", serveDigest(pooled), serveDigest(fresh))
			}
		}
		l.fail(fmt.Sprintf("pooled equals fresh, spec %d", i), err)
	}
}

// complete checks that a simulation finished every request it was given.
func complete(got, want int) error {
	if got != want {
		return fmt.Errorf("completed %d of %d requests", got, want)
	}
	return nil
}

func (s *serveSessions) op(i int, tr *tracer) outcome {
	i %= len(s.specs)
	spec, rn := s.specs[i], s.runners[s.cfgOf[i]]
	out := outcome{key: fmt.Sprintf("spec%d", i)}
	root := tr.begin("bench.op")
	if tr != nil {
		// The arrival stream Run generates internally, generated again
		// on its own to time the workload layer.
		sp := tr.begin("workload.ArrivalProcess.Generate")
		proc := workload.ArrivalProcess{Rate: spec.Rate, Turns: spec.Turns, Think: spec.Think, Seed: spec.Seed}
		arr, _ := proc.Generate(spec.Mix, spec.Requests, nil, nil)
		s.st.genSecs += tr.end(sp)
		s.st.genReqs += len(arr)
	}
	var allocs allocCounter
	if tr != nil {
		allocs = countAllocs()
	}
	sp := tr.begin("serve.Runner.Run")
	c := startClock()
	res, err := rn.Run(spec)
	out.secs, out.wall = c.stop()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		m, b := allocs.stop()
		st := &s.st
		st.serveRuns++
		st.serveSecs += out.wall
		st.serveAllocs += m
		st.serveBytes += b
		st.serveIters += float64(res.Iterations)
		st.serveSeqIters += res.MeanBatch * float64(res.Iterations)
		st.simulated(res)
	}
	out.digest = serveDigest(res)
	out.work = float64(res.Requests)
	out.err = complete(res.Requests, spec.Requests)
	return out
}

func (s *serveSessions) layerProbe(tr *tracer) error {
	return s.st.probeStepCoster(tr, configInferSpecs(s.specs))
}

// configInferSpecs returns the step-cost configuration of each distinct
// (model, TP) in specs, at the largest median prompt and generation of
// its mix.
func configInferSpecs(specs []serve.Spec) []infer.Spec {
	var out []infer.Spec
	seen := map[string]bool{}
	for _, s := range specs {
		k := fmt.Sprint(s.Model.Name, s.TP)
		if seen[k] {
			continue
		}
		seen[k] = true
		prompt, gen := 0, 0
		for _, t := range s.Mix {
			prompt, gen = max(prompt, t.PromptTokens), max(gen, t.GenTokens)
		}
		out = append(out, infer.Spec{
			Model: s.Model, System: s.System, TP: s.TP, Batch: 1,
			PromptTokens: prompt, GenTokens: gen, Precision: s.Precision,
		})
	}
	return out
}

func (s *serveSessions) layers() map[string]metric { return s.st.metrics() }
