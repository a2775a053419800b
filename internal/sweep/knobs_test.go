package sweep

import (
	"testing"

	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// knobSetter sets one serve knob on a serve.Spec and, where the grid has
// an axis for it, on a sweep Spec.
type knobSetter struct {
	serve func(*serve.Spec)
	sweep func(*Spec)
}

// knobSetters covers every knob of serve's table; TestKnobTableParity
// fails on a knob without an entry, so a new knob cannot land in one
// layer only.
var knobSetters = [serve.NumKnobs]knobSetter{
	serve.KnobPageTokens: {
		func(s *serve.Spec) { s.PageTokens = 32 },
		func(s *Spec) { s.ServePageTokens = 32 },
	},
	serve.KnobNoPreempt: {func(s *serve.Spec) { s.NoPreempt = true }, nil},
	serve.KnobPoolSplit: {
		func(s *serve.Spec) { s.PrefillDevices, s.DecodeDevices = 1, 1 },
		func(s *Spec) { s.PoolSplits = []PoolSplit{{Prefill: 1, Decode: 1}} },
	},
	serve.KnobTransferGBps: {
		func(s *serve.Spec) { s.TransferGBps = 25 },
		func(s *Spec) { s.TransferGBps = 25 },
	},
	serve.KnobPrefix: {
		func(s *serve.Spec) { s.PrefixTokens = 64 },
		func(s *Spec) { s.PrefixTokens = []int{0, 64} },
	},
	serve.KnobSessions: {
		func(s *serve.Spec) { s.Turns = 3 },
		func(s *Spec) { s.Turns = []int{0, 3} },
	},
	serve.KnobHostKV: {
		func(s *serve.Spec) { s.HostKVBytes = 4e9 },
		func(s *Spec) { s.HostKVBytes = []float64{0, 4e9} },
	},
	serve.KnobSwapGBps: {
		func(s *serve.Spec) { s.SwapGBps = 16 },
		func(s *Spec) { s.SwapGBps = 16 },
	},
	serve.KnobThink: {
		func(s *serve.Spec) { s.Think = 2 },
		func(s *Spec) { s.Think = 2 },
	},
}

// TestKnobTableParity ties serve's and the sweep's validation to the one
// knob table. For every knob (with the knob it refines) × policy ×
// NoPreempt, serve.Spec.Validate rejects exactly the settings the table
// rejects — for a lone knob with preemption on, exactly the policies that
// do not read it. For every knob axis × non-empty policy list,
// sweep.Spec.Validate rejects exactly when no listed policy reads the knob
// (or the knob it refines).
func TestKnobTableParity(t *testing.T) {
	grid := servingSpec0(t)
	sys := grid.Systems[0]
	base := serve.Spec{
		Model: grid.Models[0], System: sys, TP: sys.NumDevices(), Precision: tech.FP16,
		PromptTokens: 200, GenTokens: 100, Rate: 2, Requests: 16, Seed: 1,
	}
	policies := []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated}
	for k := serve.Knob(0); k < serve.NumKnobs; k++ {
		st := knobSetters[k]
		if st.serve == nil {
			t.Fatalf("knob %d has no setter: extend knobSetters", k)
		}
		dep, _, hasDep := k.Requires()
		set := serve.KnobSet(0).With(k, true).With(dep, hasDep)
		for _, pol := range policies {
			for _, noPreempt := range []bool{false, true} {
				s := base
				s.Policy = pol
				st.serve(&s)
				if hasDep {
					knobSetters[dep].serve(&s)
				}
				s.NoPreempt = s.NoPreempt || noPreempt
				_, fault := serve.CheckKnobSet(set.With(serve.KnobNoPreempt, s.NoPreempt), []serve.Policy{pol}, s.NoPreempt)
				if !s.NoPreempt && !hasDep && (fault == serve.KnobUnread) == pol.Reads(k) {
					t.Errorf("knob %d, %v: table fault %d disagrees with Reads %v", k, pol, fault, pol.Reads(k))
				}
				if err := s.Validate(); (err != nil) != (fault != serve.KnobOK) {
					t.Errorf("knob %d, %v, NoPreempt %v: serve.Validate error %v, table fault %d", k, pol, s.NoPreempt, err, fault)
				}
			}
		}
		if st.sweep == nil {
			continue
		}
		needed := []serve.Knob{k}
		if hasDep {
			needed = append(needed, dep)
		}
		for mask := 1; mask < 1<<len(policies); mask++ {
			var listed []serve.Policy
			read := true
			for _, j := range needed {
				anyReads := false
				for i, pol := range policies {
					anyReads = anyReads || (mask>>i&1 == 1 && pol.Reads(j))
				}
				read = read && anyReads
			}
			for i, pol := range policies {
				if mask>>i&1 == 1 {
					listed = append(listed, pol)
				}
			}
			g := servingSpec0(t)
			g.Policies = listed
			st.sweep(&g)
			if hasDep {
				knobSetters[dep].sweep(&g)
			}
			if err := g.Validate(); (err != nil) == read {
				t.Errorf("knob %d axis, Policies %v: sweep.Validate error %v, a listed policy reads it: %v", k, listed, err, read)
			}
		}
	}
}

// TestCheckKnobsAllocFree pins the knob check off the allocator: it runs on
// every serve.Runner.Run and fleet probe.
func TestCheckKnobsAllocFree(t *testing.T) {
	grid := servingSpec0(t)
	s := serve.Spec{
		Model: grid.Models[0], System: grid.Systems[0], TP: 1, Precision: tech.FP16,
		PromptTokens: 200, GenTokens: 100, PrefixTokens: 64, Rate: 2,
		Policy: serve.Paged, HostKVBytes: 4e9, Turns: 3, Think: 1,
	}
	if allocs := testing.AllocsPerRun(100, func() { s.CheckKnobs() }); allocs != 0 {
		t.Errorf("CheckKnobs allocates %v times per call, want 0", allocs)
	}
}

// TestServingSessionMixMatchesServe: the sweep accepts a session grid over
// a mix exactly when serve accepts the mix under a session cohort — a
// zero-token PrefixID included, which serve rejects (a session owns its
// prefix) and the grid used to let through, leaving every candidate to
// error.
func TestServingSessionMixMatchesServe(t *testing.T) {
	grid := servingSpec0(t)
	sys := grid.Systems[0]
	for _, mix := range [][]workload.TenantLoad{
		{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}},
		{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50, PrefixID: "sys"}},
		{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50, PrefixID: "sys", PrefixTokens: 40}},
	} {
		serveErr := serve.Spec{
			Model: grid.Models[0], System: sys, TP: sys.NumDevices(), Precision: tech.FP16,
			Mix: mix, Rate: 2, Requests: 16, Seed: 1, Policy: serve.Paged, Turns: 3,
		}.Validate()
		g := servingSpec0(t)
		g.Policies, g.Turns, g.Mixes = []serve.Policy{serve.Paged}, []int{3}, [][]workload.TenantLoad{mix}
		sweepErr := g.Validate()
		if (serveErr != nil) != (sweepErr != nil) {
			t.Errorf("mix %+v: serve error %v, sweep error %v", mix, serveErr, sweepErr)
		}
	}
}
