package main

import (
	"fmt"

	"optimus/internal/cluster"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// fleet-knee is cluster.FindKnee searches, the work behind `optimus
// cluster -slo-e2e-p95`: four Llama2-13B replicas on 2×H100 with reserve
// admission behind least-queue or round-robin routing, under a
// two-tenant Poisson mix. The router barrier and the serve core's
// incremental Instance path carry the load; it is the no-change control
// for paged-admission and analytic-core changes.
var fleetKneeWorkload = benchWorkload{
	why:     "fleet knee searches: the router barrier and the serve core's Instance path carry the load, with reserve admission",
	work:    "simulated requests completed per CPU second, over every knee probe",
	prepare: func(config) error { return nil },
	setup:   setupFleetKnee,
}

const (
	fleetReplicas = 4
	fleetRequests = 2048
	fleetMinRate  = 2
	fleetMaxRate  = 512
	// fleetSLOFactor sets each knee's p95 E2E target to this multiple of
	// the fleet's p95 at the bracket's low edge, so every knee saturates
	// inside the bracket.
	fleetSLOFactor = 2
)

var fleetMix = []workload.TenantLoad{
	{Tenant: "chat", Share: 3, PromptTokens: 200, GenTokens: 200},
	{Tenant: "batch", Share: 1, PromptTokens: 1000, GenTokens: 100},
}

// fleetPool is the op cycle: least-queue alternates with round-robin,
// two least-queue knees per round-robin one, so the median op always
// falls among the least-queue knees.
var fleetPool = []struct {
	routing cluster.Routing
	seed    int
}{
	{cluster.LeastQueue, 0}, {cluster.RoundRobin, 0}, {cluster.LeastQueue, 1},
	{cluster.LeastQueue, 2}, {cluster.RoundRobin, 1}, {cluster.LeastQueue, 3},
}

type fleetKnee struct {
	specs []cluster.KneeSpec
	st    layerStats
}

// setupFleetKnee builds the fleet specs and calibrates each SLO with one
// fleet simulation at the bracket's low edge.
func setupFleetKnee(cfg config) (instance, error) {
	sys, err := h100System(2)
	if err != nil {
		return nil, err
	}
	replica := serve.Spec{Model: sessionConfigs[0].model, System: sys, TP: 2, Precision: tech.FP16}
	f := &fleetKnee{}
	for _, p := range fleetPool {
		cs := cluster.Spec{
			Replicas: []cluster.Replica{{Spec: replica, Count: fleetReplicas}},
			Routing:  p.routing, Mix: fleetMix,
			Requests: fleetRequests, Seed: cfg.seed*7919 + int64(p.seed),
		}
		at := cs
		at.Rate = fleetMinRate
		res, err := cluster.Run(at)
		if err != nil {
			return nil, err
		}
		f.specs = append(f.specs, cluster.KneeSpec{
			Cluster: cs, SLOE2EP95: fleetSLOFactor * res.E2E.P95,
			MinRate: fleetMinRate, MaxRate: fleetMaxRate,
		})
	}
	return f, nil
}

func (f *fleetKnee) cycle() int { return len(f.specs) }

// check runs each fleet at the middle of its bracket and requires every
// request to complete.
func (f *fleetKnee) check(l *ledger) {
	for i, ks := range f.specs {
		cs := ks.Cluster
		cs.Rate = (ks.MinRate + ks.MaxRate) / 2
		res, err := cluster.Run(cs)
		if err == nil {
			err = complete(res.Requests, cs.Requests)
		}
		l.fail(fmt.Sprintf("fleet completes, spec %d", i), err)
	}
}

func (f *fleetKnee) op(i int, tr *tracer) outcome {
	i %= len(f.specs)
	ks := f.specs[i]
	out := outcome{key: fmt.Sprintf("knee%d", i)}
	root := tr.begin("bench.op")
	defer tr.end(root)
	sp := tr.begin("cluster.FindKnee")
	c := startClock()
	knee, err := cluster.FindKnee(ks)
	out.secs, out.wall = c.stop()
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	out.digest = digest(knee)
	out.work = float64(len(knee.Probes) * ks.Cluster.Requests)
	if !knee.Converged || !knee.Saturated {
		out.err = fmt.Errorf("knee converged=%v saturated=%v", knee.Converged, knee.Saturated)
		return out
	}
	if tr != nil {
		f.st.knees++
		f.st.kneeSecs += out.wall
		out.err = f.replay(ks, knee, tr)
	}
	return out
}

// replay re-runs a traced knee's probes on a fresh cluster.Runner, as
// FindKnee does, timing each fleet simulation and checking that it
// reproduces the probe's p95 and completes every request.
func (f *fleetKnee) replay(ks cluster.KneeSpec, knee cluster.Knee, tr *tracer) error {
	st := &f.st
	cs := ks.Cluster
	sp := tr.begin("workload.ArrivalProcess.Generate")
	proc := workload.ArrivalProcess{Rate: knee.Rate, Seed: cs.Seed}
	arr, _ := proc.Generate(cs.Mix, cs.Requests, nil, nil)
	st.genSecs += tr.end(sp)
	st.genReqs += len(arr)

	rp := tr.begin("cluster.replay")
	defer tr.end(rp)
	if st.arrivals == nil {
		st.arrivals = map[cluster.Routing]int{}
		st.arrivalSecs = map[cluster.Routing]float64{}
	}
	rn := cluster.NewRunner()
	for _, p := range knee.Probes {
		cs.Rate = p.Rate
		a := countAllocs()
		sp := tr.begin("cluster.Runner.Run")
		res, err := rn.Run(cs)
		secs := tr.end(sp)
		m, _ := a.stop()
		if err != nil {
			return err
		}
		//lint:floateq the simulation is deterministic, so a replayed probe must reproduce FindKnee's p95 bit for bit
		if res.E2E.P95 != p.P95E2E {
			return fmt.Errorf("replayed probe at %g req/s gave p95 %g, FindKnee %g", p.Rate, res.E2E.P95, p.P95E2E)
		}
		if err := complete(res.Requests, cs.Requests); err != nil {
			return err
		}
		st.probes++
		st.probeSecs += secs
		st.probeAllocs += m
		st.arrivalSecs[cs.Routing] += secs
		st.arrivals[cs.Routing] += cs.Requests
		for _, r := range res.PerReplica {
			st.simulated(r.Result)
		}
	}
	return nil
}

func (f *fleetKnee) layerProbe(tr *tracer) error {
	var specs []serve.Spec
	for _, ks := range f.specs {
		s := ks.Cluster.Replicas[0].Spec
		s.Mix = ks.Cluster.Mix
		specs = append(specs, s)
	}
	return f.st.probeStepCoster(tr, configInferSpecs(specs))
}

func (f *fleetKnee) layers() map[string]metric { return f.st.metrics() }
