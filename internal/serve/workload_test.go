package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"optimus/internal/workload"
)

// uniformMix rewrites a spec-wide-shaped spec as its explicit one-tenant
// mix — the degenerate workload the equivalence suite pins.
func uniformMix(s Spec) Spec {
	s.Mix = []workload.TenantLoad{{
		Tenant: workload.DefaultTenant, Share: 1,
		PromptTokens: s.PromptTokens, GenTokens: s.GenTokens,
	}}
	s.PromptTokens, s.GenTokens = 0, 0
	return s
}

// TestUniformMixMatchesSpecWide is the tentpole equivalence gate: an
// explicit uniform single-tenant mix must reproduce the spec-wide
// (PR-3 interface) simulation byte-identically — same percentiles,
// per-request timelines, per-tenant breakdowns, KV accounting — across a
// rate × cap × policy × seed grid covering reservation, paged preemption
// and paged NoPreempt. JSON byte comparison makes "byte-identical"
// literal.
func TestUniformMixMatchesSpecWide(t *testing.T) {
	base := spec0(t)
	for _, rate := range []float64{0.25, 1, 2.5, 5} {
		for _, batchCap := range []int{0, 3, 16} {
			for _, seed := range []int64{1, 7} {
				for _, pol := range []struct {
					name   string
					mutate func(*Spec)
				}{
					{"reserve", func(s *Spec) {}},
					{"paged", func(s *Spec) { s.Policy = Paged }},
					{"paged-no-preempt", func(s *Spec) { s.Policy = Paged; s.NoPreempt = true }},
				} {
					specWide := base
					specWide.Rate, specWide.MaxBatch, specWide.Seed = rate, batchCap, seed
					pol.mutate(&specWide)
					want, err := Run(specWide)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(uniformMix(specWide))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s rate=%g cap=%d seed=%d: uniform mix diverges from spec-wide result",
							pol.name, rate, batchCap, seed)
					}
					ja, _ := json.Marshal(got)
					jb, _ := json.Marshal(want)
					if string(ja) != string(jb) {
						t.Fatalf("%s rate=%g cap=%d seed=%d: JSON encodings differ",
							pol.name, rate, batchCap, seed)
					}
				}
			}
		}
	}
}

// TestUniformMixMatchesSpecWideUnderPressure extends the equivalence to a
// preempting paged run and a closed-loop run — the stateful corners where
// a stray spec-wide constant would first diverge.
func TestUniformMixMatchesSpecWideUnderPressure(t *testing.T) {
	pressured := pressureSpec(t)
	want, err := Run(pressured)
	if err != nil {
		t.Fatal(err)
	}
	if want.Preemptions == 0 {
		t.Fatal("equivalence must be exercised under preemption")
	}
	got, err := Run(uniformMix(pressured))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("uniform mix diverges from spec-wide result on a preempting run")
	}

	closed := spec0(t)
	closed.Arrival, closed.Rate, closed.Clients = ClosedLoop, 0, 6
	closed.Requests = 32
	want, err = Run(closed)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Run(uniformMix(closed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("uniform mix diverges from spec-wide result on a closed-loop run")
	}
}

// mixedSpec is a two-tenant chat+batch workload: short interactive
// requests sharing the engine with long-prompt batch jobs.
func mixedSpec(t *testing.T) Spec {
	s := spec0(t)
	s.PromptTokens, s.GenTokens = 0, 0
	s.Mix = []workload.TenantLoad{
		{Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 200},
		{Tenant: "batch", Share: 0.3, PromptTokens: 1200, GenTokens: 100},
	}
	s.Rate = 2
	s.Requests = 96
	return s
}

// TestMixedWorkloadBehavior: a heterogeneous mix must complete every
// request with per-request shapes echoed, produce a per-tenant breakdown
// that partitions the aggregate, respect the share weighting, and price
// the long-prompt tenant's prefill visibly higher (TTFT).
func TestMixedWorkloadBehavior(t *testing.T) {
	s := mixedSpec(t)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != s.Requests {
		t.Fatalf("completed %d of %d requests", res.Requests, s.Requests)
	}
	shapes := map[string]workload.TenantLoad{}
	for _, tl := range s.Mix {
		shapes[tl.Tenant] = tl
	}
	genSum := 0
	for _, m := range res.PerRequest {
		tl, ok := shapes[m.Tenant]
		if !ok {
			t.Fatalf("request %d carries unknown tenant %q", m.ID, m.Tenant)
		}
		if m.PromptTokens != tl.PromptTokens || m.GenTokens != tl.GenTokens {
			t.Fatalf("request %d shape %d+%d does not match tenant %q's %d+%d",
				m.ID, m.PromptTokens, m.GenTokens, m.Tenant, tl.PromptTokens, tl.GenTokens)
		}
		if m.Admitted < m.Arrival || m.FirstToken <= m.Admitted || m.Done < m.FirstToken {
			t.Errorf("request %d timeline out of order: %+v", m.ID, m)
		}
		genSum += m.GenTokens
	}
	if got := res.TokensPerSec * res.SimTime; math.Abs(got-float64(genSum)) > 1e-6*float64(genSum) {
		t.Errorf("TokensPerSec %g inconsistent with %d generated tokens over %g s",
			res.TokensPerSec, genSum, res.SimTime)
	}

	if len(res.PerTenant) != 2 {
		t.Fatalf("expected 2 tenant summaries, got %+v", res.PerTenant)
	}
	if res.PerTenant[0].Tenant != "batch" || res.PerTenant[1].Tenant != "chat" {
		t.Fatalf("per-tenant rows must be sorted by name: %+v", res.PerTenant)
	}
	total := 0
	for _, tm := range res.PerTenant {
		total += tm.Requests
		if tm.Requests == 0 {
			t.Fatalf("tenant %q drew no requests; loosen the seed or requests", tm.Tenant)
		}
	}
	if total != res.Requests {
		t.Errorf("per-tenant requests sum to %d, result says %d", total, res.Requests)
	}
	// 0.7/0.3 shares over 96 requests: the split is random but a 50/50 or
	// worse inversion would mean the weighting is broken.
	chat := res.PerTenant[1]
	if chat.Requests <= res.PerTenant[0].Requests {
		t.Errorf("chat (share 0.7) drew %d requests, batch (share 0.3) %d — weighting inverted",
			chat.Requests, res.PerTenant[0].Requests)
	}
	// The 1200-token prefill costs strictly more than the 200-token one,
	// so the batch tenant's median TTFT must sit above chat's.
	if res.PerTenant[0].TTFT.P50 <= chat.TTFT.P50 {
		t.Errorf("long-prompt tenant should pay more TTFT: batch p50 %g vs chat p50 %g",
			res.PerTenant[0].TTFT.P50, chat.TTFT.P50)
	}
}

// TestMixedWorkloadDeterminism: multi-tenant runs draw tenant assignments
// from their own seeded stream and must stay byte-identical across runs,
// while a different seed reshuffles the assignment.
func TestMixedWorkloadDeterminism(t *testing.T) {
	s := mixedSpec(t)
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("repeated mixed runs at one seed must be byte-identical")
	}
	s.Seed = 99
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.PerRequest, c.PerRequest) {
		t.Error("different seeds should reshuffle arrivals and tenant draws")
	}
}

// TestMixedPagedConservation runs the per-iteration KV probe invariant on
// a heterogeneous paged workload under pressure: per-request page math
// must never leak or over-commit even when page needs differ per request,
// with and without preemption.
func TestMixedPagedConservation(t *testing.T) {
	for name, noPreempt := range map[string]bool{"preempting": false, "no-preempt": true} {
		s := mixedSpec(t)
		s.Policy = Paged
		s.Rate = 6
		s.Requests = 64
		_, perRequest := s.kvBudget()
		s.KVCapacity = 5 * perRequest
		s.NoPreempt = noPreempt
		steps := 0
		s.probe = func(ps probeState) {
			steps++
			if ps.runningPages > ps.usedPages {
				t.Fatalf("%s iter %d: running set holds %d pages but only %d committed — leak",
					name, ps.iteration, ps.runningPages, ps.usedPages)
			}
			if !noPreempt && ps.usedPages != ps.runningPages {
				t.Fatalf("%s iter %d: policy committed %d pages, running set holds %d — leak",
					name, ps.iteration, ps.usedPages, ps.runningPages)
			}
			if ps.usedPages > ps.totalPages {
				t.Fatalf("%s iter %d: %d pages committed of a %d-page pool",
					name, ps.iteration, ps.usedPages, ps.totalPages)
			}
			if ps.usedBytes > ps.budget*(1+1e-12) {
				t.Fatalf("%s iter %d: %g KV bytes committed of a %g budget",
					name, ps.iteration, ps.usedBytes, ps.budget)
			}
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if steps != res.Iterations {
			t.Fatalf("%s: probe saw %d iterations, result says %d", name, steps, res.Iterations)
		}
		if !noPreempt && res.Preemptions == 0 {
			t.Fatalf("%s: invariant must be exercised under preemption; tighten the KV budget", name)
		}
		if noPreempt && res.Preemptions != 0 {
			t.Fatalf("%s: NoPreempt run evicted", name)
		}
	}
}

// TestMixedReserveHeterogeneousAccounting: under reservation, requests
// reserve their own context bytes — the long-prompt tenant more, the chat
// tenant less — and the peak commitment stays within the budget.
func TestMixedReserveHeterogeneousAccounting(t *testing.T) {
	s := mixedSpec(t)
	s.Rate = 6
	_, perLargest := s.kvBudget()
	s.KVCapacity = 4 * perLargest
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakKVBytes > s.KVCapacity*(1+1e-12) {
		t.Errorf("peak KV %g exceeds budget %g", res.PeakKVBytes, s.KVCapacity)
	}
	// Four largest contexts fit; chat contexts are smaller (400 of 1300
	// tokens), so a chat-heavy batch must at some point hold more than
	// four concurrent sequences — per-request accounting, not the old
	// spec-wide perRequest multiply.
	if res.PeakBatch <= 4 {
		t.Errorf("heterogeneous reservation should admit more small requests than budget/largest (peak %d)",
			res.PeakBatch)
	}
}

// TestTraceReplay: an explicit trace must complete exactly its events,
// honor its arrival times and shapes, and be byte-identical across runs.
func TestTraceReplay(t *testing.T) {
	s := spec0(t)
	s.PromptTokens, s.GenTokens, s.Rate, s.Requests, s.Seed = 0, 0, 0, 0, 0
	s.Trace = []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
		{Arrival: 0.05, Request: workload.Request{Tenant: "batch", PromptTokens: 900, GenTokens: 80}},
		{Arrival: 0.05, Request: workload.Request{Tenant: "chat", PromptTokens: 120, GenTokens: 30}},
		{Arrival: 2.5, Request: workload.Request{Tenant: "chat", PromptTokens: 80, GenTokens: 20}},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(s.Trace) {
		t.Fatalf("completed %d of %d trace events", res.Requests, len(s.Trace))
	}
	for i, m := range res.PerRequest {
		ev := s.Trace[i]
		if m.Arrival != ev.Arrival || m.Tenant != ev.Tenant ||
			m.PromptTokens != ev.PromptTokens || m.GenTokens != ev.GenTokens {
			t.Errorf("request %d does not echo its trace event: %+v vs %+v", i, m, ev)
		}
		if m.Admitted < m.Arrival {
			t.Errorf("request %d admitted before it arrived", i)
		}
	}
	again, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(res)
	jb, _ := json.Marshal(again)
	if string(ja) != string(jb) {
		t.Error("trace replay must be byte-identical across runs")
	}
}

// TestWorkloadValidation covers the mix/trace spec checks.
func TestWorkloadValidation(t *testing.T) {
	check := func(name string, wantErr bool, mutate func(*Spec)) {
		t.Helper()
		s := spec0(t)
		mutate(&s)
		err := s.Validate()
		if wantErr && err == nil {
			t.Errorf("%s should fail validation", name)
		}
		if !wantErr && err != nil {
			t.Errorf("%s should validate: %v", name, err)
		}
	}
	clearShape := func(s *Spec) { s.PromptTokens, s.GenTokens = 0, 0 }
	goodMix := []workload.TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50},
		{Tenant: "b", Share: 2, PromptTokens: 300, GenTokens: 20},
	}
	goodTrace := []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
		{Arrival: 1, Request: workload.Request{Tenant: "b", PromptTokens: 200, GenTokens: 20}},
	}
	clearArrival := func(s *Spec) { s.Rate, s.Clients, s.Requests, s.Seed = 0, 0, 0, 0 }

	check("two-tenant mix", false, func(s *Spec) { clearShape(s); s.Mix = goodMix })
	check("trace", false, func(s *Spec) { clearShape(s); clearArrival(s); s.Trace = goodTrace })
	check("mix with spec-wide shape", true, func(s *Spec) { s.Mix = goodMix })
	check("trace with spec-wide shape", true, func(s *Spec) { clearArrival(s); s.Trace = goodTrace })
	check("mix and trace together", true, func(s *Spec) { clearShape(s); clearArrival(s); s.Mix = goodMix; s.Trace = goodTrace })
	check("trace with a rate", true, func(s *Spec) { clearShape(s); s.Trace = goodTrace; s.Rate = 1; s.Requests = 0; s.Seed = 0 })
	check("trace with explicit requests", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = goodTrace
		s.Requests = 7
	})
	check("empty tenant name", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	// Separator-bearing tenant names make FormatMix's rendering ambiguous:
	// "a:1:2:3,b" as one tenant renders identically to two tenants, so two
	// distinct workloads would share one sweep memo token and CSV column.
	check("tenant name with colons", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a:1:2:3", Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	check("tenant name with a comma", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a,b", Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	check("tenant name with trailing whitespace", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a ", Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	check("trace tenant name with a comma", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a,b", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace tenant name with a colon", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a:b", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace tenant name with leading whitespace", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: " a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("duplicate tenant", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{
			{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50},
			{Tenant: "a", Share: 1, PromptTokens: 200, GenTokens: 50},
		}
	})
	check("zero share", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 0, PromptTokens: 100, GenTokens: 50}}
	})
	check("NaN share", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: math.NaN(), PromptTokens: 100, GenTokens: 50}}
	})
	check("zero mix gen", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100}}
	})
	check("zero mix prompt", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 1, GenTokens: 100}}
	})
	check("unsorted trace", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{
			{Arrival: 2, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
			{Arrival: 1, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
		}
	})
	check("negative trace arrival", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: -1, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace event without tenant", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{PromptTokens: 100, GenTokens: 10}}}
	})
	// The largest mix request must fit, not just the average one.
	check("mix with an unfittable tenant", true, func(s *Spec) {
		clearShape(s)
		s.Mix = goodMix
		_, per := Spec{
			Model: s.Model, System: s.System, TP: s.TP, Precision: s.Precision,
			PromptTokens: 300, GenTokens: 20,
		}.kvBudget()
		s.KVCapacity = per / 2
	})
}

// TestSingleTenantPerTenantBreakdown: the degenerate workload reports one
// DefaultTenant summary that mirrors the aggregate percentiles.
func TestSingleTenantPerTenantBreakdown(t *testing.T) {
	res, err := Run(spec0(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTenant) != 1 || res.PerTenant[0].Tenant != workload.DefaultTenant {
		t.Fatalf("degenerate run should report one %q tenant, got %+v", workload.DefaultTenant, res.PerTenant)
	}
	tm := res.PerTenant[0]
	if tm.Requests != res.Requests || tm.TTFT != res.TTFT || tm.TPOT != res.TPOT ||
		tm.E2E != res.E2E || tm.Queue != res.Queue {
		t.Error("single-tenant breakdown must mirror the aggregate percentiles")
	}
}

// TestMixFeasibilityUsesLargestRequest: Feasible must gate on the mix's
// largest context — a budget that fits the small tenant but not the large
// one is infeasible, matching Run's verdict.
func TestMixFeasibilityUsesLargestRequest(t *testing.T) {
	s := mixedSpec(t)
	if !Feasible(s) {
		t.Fatal("baseline mixed spec must be feasible")
	}
	_, perLargest := s.kvBudget()
	s.KVCapacity = perLargest * 0.75
	if Feasible(s) {
		t.Error("budget below the largest request's context must be infeasible")
	}
	if _, err := Run(s); err == nil {
		t.Error("Run must reject what Feasible rejects")
	}
}
