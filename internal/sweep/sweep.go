// Package sweep evaluates large cross-product experiment grids — models ×
// systems × precisions × batch sizes × sequence lengths × parallelization
// mappings × schedules × recomputation regimes for training and inference,
// plus arrival rates × batch caps for continuous-batching serving — the
// plan-space exploration the paper builds on its validated models (§5.1:
// "determine the best parallelism mapping or training settings for an LLM
// model on a certain hardware system").
//
// Every serving candidate — spec-wide shapes, mixes and traces, single
// instances and fleets — is built by one enumerator, enumerateServing,
// which canonicalizes its axes under serve's own rules, and is costed by
// one evaluator.
//
// The package has two execution paths over the same candidate enumeration:
//
//   - Serial is the golden reference: it costs every candidate one at a
//     time, in enumeration order, with no shortcuts. internal/mapsearch
//     builds its single-cell planner on it.
//   - Engine.Run is the production path: a bounded worker pool with
//     memory-feasibility pruning before costing, memoization of repeated
//     evaluations, and context cancellation. Its rankings are
//     byte-identical to Serial's at any worker count. The memo can be
//     persisted across processes with SaveCache/LoadCache, so repeated
//     CLI invocations and CI sweeps skip re-costing unchanged grid cells.
package sweep

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"

	"optimus/internal/arch"
	"optimus/internal/cluster"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/workload"
)

// Workload selects which predictor a sweep exercises.
type Workload int

const (
	// Training sweeps rank strategies by predicted seconds per batch.
	Training Workload = iota
	// Inference sweeps rank configurations by end-to-end request latency.
	Inference
	// Serving sweeps run the continuous-batching simulator per candidate
	// (arrival rates × batch caps × systems × precisions) and rank by p95
	// end-to-end latency — SLO-centric capacity planning.
	Serving
)

// String names the workload.
func (w Workload) String() string {
	switch w {
	case Training:
		return "training"
	case Inference:
		return "inference"
	case Serving:
		return "serving"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Constraints bound the mapping enumeration of one grid cell.
type Constraints struct {
	// MaxTP caps the tensor-parallel degree; zero means the node size
	// (TP and SP stay inside a node, §4.2), negative is rejected.
	MaxTP int
	// Microbatches are the candidate per-device microbatch sizes;
	// nil means {1, 2, 4}.
	Microbatches []int
	// Recomputes are the regimes to consider; nil means all three.
	Recomputes []memfoot.Recompute
	// Schedules are the pipeline schedules to consider; nil means 1F1B
	// and interleaved (v=2).
	Schedules []parallel.Schedule
	// AllowOverflow keeps memory-overflowing candidates in the ranking
	// (flagged, after all fitting ones). It also disables the engine's
	// feasibility pruning, since overflowing candidates must be costed.
	AllowOverflow bool
	// TopK bounds the returned rows; zero means 10, negative is
	// rejected.
	TopK int
}

// WithDefaults fills the zero-value fields for a search over sys.
func (c Constraints) WithDefaults(sys *arch.System) Constraints {
	if c.MaxTP <= 0 {
		c.MaxTP = sys.DevicesPerNode
	}
	if len(c.Microbatches) == 0 {
		c.Microbatches = []int{1, 2, 4}
	}
	if len(c.Recomputes) == 0 {
		c.Recomputes = []memfoot.Recompute{memfoot.NoRecompute, memfoot.Selective, memfoot.Full}
	}
	if len(c.Schedules) == 0 {
		c.Schedules = []parallel.Schedule{parallel.OneFOneB, parallel.Interleaved1F1B}
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	return c
}

// Spec describes one experiment grid: the cross product of every axis,
// with the mapping space of each (model, system) cell enumerated under
// Constraints.
type Spec struct {
	// Workload selects training or inference; the zero value is training.
	Workload Workload
	// Models and Systems are the required grid axes.
	Models  []model.Config
	Systems []*arch.System
	// Precisions defaults to {BF16} for training and {FP16} for inference.
	Precisions []tech.Precision
	// GlobalBatches are global batch sizes (training) or concurrent
	// sequences (inference); nil means {64} and {1} respectively.
	GlobalBatches []int
	// Seqs are sequence lengths (training) or prompt lengths (inference);
	// nil means {2048} and {200}.
	Seqs []int
	// GenTokens are generation lengths, inference and serving only; nil
	// means {200}.
	GenTokens []int
	// Rates are Poisson arrival rates in requests/sec, serving only; nil
	// means {1} (unless Schedules or Trace supplies the arrival process).
	Rates []float64
	// Schedules are piecewise-constant arrival-rate timelines
	// (workload.Schedule), serving only: each entry is one grid-axis value
	// replacing the constant rate, so one sweep can rank a bursty diurnal
	// profile against its flat average. Mutually exclusive with Rates and
	// Trace (each fixes the arrival process). A schedule that canonicalizes
	// to a constant rate enumerates as the equivalent plain-rate candidate
	// — one memo key, like the policy-knob axes.
	Schedules []workload.Schedule
	// Turns are the session-cohort depths to compare per grid cell, serving
	// only: each entry above 1 expands the candidate's arrival stream into
	// multi-turn client sessions (serve.Spec.Turns), whose growing shared
	// context exercises the paged prefix cache. 0 and 1 are the plain
	// single-turn stream. Entries above 1 require a Paged entry in Policies
	// (other policies canonicalize the axis to zero) and replace the
	// spec-wide PrefixTokens axis (a session owns its shared prefix).
	Turns []int
	// Think is the pause between a session's consecutive turns in seconds,
	// serving only; requires a Turns entry above 1 (zero with single-turn
	// candidates).
	Think float64
	// BatchCaps are iteration batch caps, serving only; 0 derives the
	// largest KV-fitting batch. Nil means {0}.
	BatchCaps []int
	// Mixes are multi-tenant workload mixes, serving only: each entry is
	// one grid-axis value, so one sweep can rank a chat-heavy mix against
	// a batch-heavy one per rate × batch-cap point. Mixes replaces the
	// Seqs/GenTokens axes (a mix fixes its own request shapes).
	Mixes [][]workload.TenantLoad
	// Trace replays one fixed request timeline per serving candidate
	// (systems × precisions × batch caps × policies), serving only. It
	// replaces the Rates, Seqs and GenTokens axes and is mutually
	// exclusive with Mixes.
	Trace []workload.TraceEvent
	// Policies are the KV admission policies to compare per grid cell
	// (serve.ReserveFull vs serve.Paged), serving only; nil means
	// {ReserveFull}. Making the policy a grid axis is what lets one sweep
	// rank reservation against paged admission per rate × batch-cap
	// point.
	Policies []serve.Policy
	// ServePageTokens is the paged policy's KV block size in tokens,
	// serving only; zero means serve.DefaultPageTokens.
	ServePageTokens int
	// PoolSplits are the disaggregated prefill/decode pool splits to
	// compare per grid cell, serving only: each entry is one grid-axis
	// value for the serve.Disaggregated candidates (other policies ignore
	// the axis), so one sweep can rank a 2+6 split against a 4+4 one per
	// rate × batch-cap point. Requires a Disaggregated entry in Policies;
	// nil with one present means the co-located split (both pools spanning
	// every device). A split asking for more devices than a grid system
	// has skips that cell, like an indivisible head count.
	PoolSplits []PoolSplit
	// TransferGBps is the disaggregated policy's KV-transfer interconnect
	// bandwidth in GB/s, serving only; zero means
	// serve.DefaultTransferGBps, math.Inf(1) a free transfer.
	TransferGBps float64
	// PrefixTokens are the shared-prompt-prefix lengths to compare per
	// grid cell, serving only: each entry gives the spec-wide request
	// shape that many shared prefix tokens (serve.Spec.PrefixTokens), so
	// one sweep can rank prefix-cache savings across hit fractions. A
	// zero entry is the plain unprefixed shape; nil means {0}. Requires a
	// Paged entry in Policies when non-zero (other policies ignore the
	// axis and canonicalize to zero); Mixes and Trace carry per-entry
	// prefixes instead, so the axis is rejected alongside them. Entries
	// at or beyond a cell's prompt length skip that cell.
	PrefixTokens []int
	// HostKVBytes are the host KV tier capacities (bytes) to compare per
	// grid cell, serving only: each entry lets the paged policy's
	// preemption victims swap pages to a host tier that large
	// (serve.Spec.HostKVBytes). A zero entry is the recompute-only
	// baseline; nil means {0}. Requires a Paged entry in Policies when
	// non-zero.
	HostKVBytes []float64
	// SwapGBps is the host tier's swap-link bandwidth in GB/s, serving
	// only; zero means serve.DefaultSwapGBps, math.Inf(1) a free swap.
	// Requires a non-zero HostKVBytes entry.
	SwapGBps float64
	// Replicas are the fleet sizes to compare per grid cell, serving only:
	// each entry runs the candidate's serve configuration as a homogeneous
	// R-replica cluster (internal/cluster) instead of a single instance,
	// ranking fleet-wide SLO percentiles. A zero entry is the plain
	// single-instance simulation; nil means {0}.
	Replicas []int
	// Routings are the cluster routing policies to compare per fleet
	// candidate, serving only. Requires Replicas; nil with fleet sizes
	// present means {cluster.RoundRobin}. Fleets of one replica route
	// identically under every policy, so their routing axis canonicalizes
	// to round-robin (one memo key, like the policy-knob axes).
	Routings []cluster.Routing
	// ServeRequests is the simulated request count per serving candidate;
	// zero means 128.
	ServeRequests int
	// ServeSeed seeds each serving candidate's arrival process; zero
	// means 1.
	ServeSeed int64
	// Constraints bound the per-cell mapping enumeration.
	Constraints Constraints
	// Workers bounds the engine's pool; zero means GOMAXPROCS, negative
	// is rejected. Serial ignores it.
	Workers int
}

// PoolSplit is one disaggregated prefill/decode pool split: the device
// counts backing each pool (serve.Spec.PrefillDevices/DecodeDevices).
// Zero fields default to each grid system's full device count — the
// co-located split.
type PoolSplit struct {
	Prefill int
	Decode  int
}

func (s Spec) withDefaults() Spec {
	// A serving sweep whose requests are shaped by a mix or a trace has no
	// spec-wide Seqs/GenTokens axes to default (and a trace fixes the
	// arrival process, so no Rates either).
	shaped := s.Workload == Serving && (len(s.Mixes) > 0 || len(s.Trace) > 0)
	if len(s.Precisions) == 0 {
		if s.Workload == Training {
			s.Precisions = []tech.Precision{tech.BF16}
		} else {
			s.Precisions = []tech.Precision{tech.FP16}
		}
	}
	if len(s.GlobalBatches) == 0 {
		switch s.Workload {
		case Training:
			s.GlobalBatches = []int{64}
		default:
			// Inference batch; serving ignores it (admission batches).
			s.GlobalBatches = []int{1}
		}
	}
	if len(s.Seqs) == 0 && !shaped {
		if s.Workload == Training {
			s.Seqs = []int{2048}
		} else {
			s.Seqs = []int{200}
		}
	}
	if len(s.GenTokens) == 0 && !shaped {
		s.GenTokens = []int{200}
	}
	if len(s.Rates) == 0 && len(s.Trace) == 0 && len(s.Schedules) == 0 {
		s.Rates = []float64{1}
	}
	if len(s.Turns) == 0 {
		s.Turns = []int{0}
	}
	if len(s.BatchCaps) == 0 {
		s.BatchCaps = []int{0}
	}
	if len(s.Policies) == 0 {
		s.Policies = []serve.Policy{serve.ReserveFull}
	}
	if len(s.PoolSplits) == 0 {
		// The zero split canonicalizes per system to the co-located
		// configuration (both pools spanning every device).
		s.PoolSplits = []PoolSplit{{}}
	}
	if s.ServeRequests == 0 {
		s.ServeRequests = 128
	}
	if s.ServeSeed == 0 {
		s.ServeSeed = 1
	}
	if len(s.Replicas) == 0 {
		s.Replicas = []int{0}
	}
	if len(s.Routings) == 0 {
		s.Routings = []cluster.Routing{cluster.RoundRobin}
	}
	if len(s.PrefixTokens) == 0 {
		s.PrefixTokens = []int{0}
	}
	if len(s.HostKVBytes) == 0 {
		s.HostKVBytes = []float64{0}
	}
	return s
}

// Validate checks the grid shape.
func (s Spec) Validate() error {
	if s.Constraints.TopK < 0 {
		return fmt.Errorf("sweep: negative Constraints.TopK %d (zero means 10)", s.Constraints.TopK)
	}
	if s.Workers < 0 {
		return fmt.Errorf("sweep: negative Workers %d (zero means GOMAXPROCS)", s.Workers)
	}
	if s.Constraints.MaxTP < 0 {
		return fmt.Errorf("sweep: negative Constraints.MaxTP %d (zero means the node size)", s.Constraints.MaxTP)
	}
	if s.Workload != Serving {
		if len(s.Rates) > 0 || len(s.BatchCaps) > 0 || s.ServeRequests != 0 || s.ServeSeed != 0 {
			return fmt.Errorf("sweep: Rates/BatchCaps/ServeRequests/ServeSeed apply to serving sweeps only")
		}
		if len(s.Policies) > 0 || s.ServePageTokens != 0 {
			return fmt.Errorf("sweep: Policies/ServePageTokens apply to serving sweeps only")
		}
		if len(s.PoolSplits) > 0 || s.TransferGBps != 0 {
			// NaN bandwidths land here too: NaN != 0.
			return fmt.Errorf("sweep: PoolSplits/TransferGBps apply to serving sweeps only")
		}
		if len(s.Mixes) > 0 || len(s.Trace) > 0 {
			return fmt.Errorf("sweep: Mixes/Trace apply to serving sweeps only")
		}
		if len(s.Replicas) > 0 || len(s.Routings) > 0 {
			return fmt.Errorf("sweep: Replicas/Routings apply to serving sweeps only")
		}
		if len(s.PrefixTokens) > 0 || len(s.HostKVBytes) > 0 || s.SwapGBps != 0 {
			// NaN bandwidths land here too: NaN != 0.
			return fmt.Errorf("sweep: PrefixTokens/HostKVBytes/SwapGBps apply to serving sweeps only")
		}
		if len(s.Schedules) > 0 || len(s.Turns) > 0 || s.Think != 0 {
			// NaN think times land here too: NaN != 0.
			return fmt.Errorf("sweep: Schedules/Turns/Think apply to serving sweeps only")
		}
	}
	switch s.Workload {
	case Training:
		if len(s.GenTokens) > 0 {
			return fmt.Errorf("sweep: GenTokens applies to inference and serving sweeps only")
		}
		if mb, bad := firstBelow(s.Constraints.Microbatches, 1); bad {
			return fmt.Errorf("sweep: non-positive microbatch %d", mb)
		}
	case Inference, Serving:
		// Inference and serving maps are fixed to TP = device count
		// (§1.3); reject the training-only axes rather than silently
		// ignoring them.
		c := s.Constraints
		if c.MaxTP != 0 || len(c.Microbatches) > 0 || len(c.Recomputes) > 0 || len(c.Schedules) > 0 {
			return fmt.Errorf("sweep: MaxTP/Microbatches/Recomputes/Schedules apply to training sweeps only")
		}
		if s.Workload == Serving {
			// The simulator's admission policy is the batch: a global
			// batch axis would be silently ignored.
			if len(s.GlobalBatches) > 0 {
				return fmt.Errorf("sweep: GlobalBatches does not apply to serving sweeps (use BatchCaps)")
			}
			for _, r := range s.Rates {
				// Negated-positive form rejects NaN, which would stall
				// the serving simulator's event loop.
				if !(r > 0) || math.IsInf(r, 0) {
					return fmt.Errorf("sweep: arrival rate %g not positive and finite", r)
				}
			}
			if len(s.Schedules) > 0 && len(s.Rates) > 0 {
				return fmt.Errorf("sweep: Schedules and Rates both fix the arrival rate — set exactly one axis")
			}
			for _, sch := range s.Schedules {
				if err := sch.Validate(); err != nil {
					return fmt.Errorf("sweep: %w", err)
				}
			}
			if c, bad := firstBelow(s.BatchCaps, 0); bad {
				return fmt.Errorf("sweep: negative batch cap %d", c)
			}
			if s.ServeRequests < 0 {
				return fmt.Errorf("sweep: negative serving request count %d", s.ServeRequests)
			}
			for _, pol := range s.Policies {
				switch pol {
				case serve.ReserveFull, serve.Paged, serve.Disaggregated:
				default:
					return fmt.Errorf("sweep: unknown serving policy %v", pol)
				}
			}
			if s.ServePageTokens < 0 {
				return fmt.Errorf("sweep: negative serving page size %d tokens", s.ServePageTokens)
			}
			for _, sp := range s.PoolSplits {
				if sp.Prefill < 0 || sp.Decode < 0 {
					return fmt.Errorf("sweep: negative pool split %d+%d devices", sp.Prefill, sp.Decode)
				}
			}
			if s.TransferGBps < 0 || math.IsNaN(s.TransferGBps) {
				return fmt.Errorf("sweep: KV-transfer bandwidth %g GB/s not non-negative", s.TransferGBps)
			}
			if pre, bad := firstBelow(s.PrefixTokens, 0); bad {
				return fmt.Errorf("sweep: negative prefix length %d tokens", pre)
			}
			if t, bad := firstBelow(s.Turns, 0); bad {
				return fmt.Errorf("sweep: negative session turns %d", t)
			}
			if !(s.Think >= 0) || math.IsInf(s.Think, 0) {
				return fmt.Errorf("sweep: think time %g not finite and non-negative", s.Think)
			}
			for _, hb := range s.HostKVBytes {
				if hb < 0 || math.IsNaN(hb) || math.IsInf(hb, 0) {
					return fmt.Errorf("sweep: host KV capacity %g bytes not finite and non-negative", hb)
				}
			}
			if s.SwapGBps < 0 || math.IsNaN(s.SwapGBps) {
				return fmt.Errorf("sweep: swap bandwidth %g GB/s not non-negative", s.SwapGBps)
			}
			// Knob axes no listed policy reads would be silently discarded
			// at enumeration — reject them, in serve's own terms.
			switch k, fault := s.CheckKnobs(); fault {
			case serve.KnobUnread:
				return fmt.Errorf("sweep: %s needs a %s in Policies", knobAxes[k], k.Readers("or"))
			case serve.KnobNeedsDependency:
				dep, purpose, _ := k.Requires()
				return fmt.Errorf("sweep: %s %s — set %s with it", knobAxes[k], purpose, knobAxes[dep])
			}
			if anyAbove(s.PrefixTokens, 0) && (len(s.Mixes) > 0 || len(s.Trace) > 0) {
				return fmt.Errorf("sweep: PrefixTokens shapes the spec-wide workload — give Mixes/Trace entries their own per-entry prefixes")
			}
			if anyAbove(s.Turns, 1) {
				if anyAbove(s.PrefixTokens, 0) {
					return fmt.Errorf("sweep: session cohorts own the shared prefix — drop the PrefixTokens axis with Turns above 1")
				}
				// Serve's rule, per mix: a session owns its prefix.
				for _, mix := range s.Mixes {
					if err := workload.ValidateSessionMix(mix); err != nil {
						return err
					}
				}
			}
			if g, bad := firstBelow(s.GenTokens, 1); bad {
				return fmt.Errorf("sweep: serving needs at least one generated token, got %d", g)
			}
			// Zero is the explicit single-instance entry; a negative fleet
			// cannot be meant.
			if r, bad := firstBelow(s.Replicas, 0); bad {
				return fmt.Errorf("sweep: negative fleet size %d replicas", r)
			}
			for _, rt := range s.Routings {
				switch rt {
				case cluster.RoundRobin, cluster.LeastQueue, cluster.LeastKV, cluster.TenantAffinity:
				default:
					return fmt.Errorf("sweep: unknown routing policy %v", rt)
				}
			}
			// Without a fleet axis every candidate is single-instance and
			// the routing axis would be silently discarded — reject, like
			// ServePageTokens without a paging policy.
			if len(s.Routings) > 0 && !anyAbove(s.Replicas, 0) {
				return fmt.Errorf("sweep: Routings needs a positive fleet size in Replicas")
			}
			if len(s.Mixes) > 0 {
				if len(s.Trace) > 0 {
					return fmt.Errorf("sweep: Mixes and Trace are mutually exclusive")
				}
				if len(s.Seqs) > 0 || len(s.GenTokens) > 0 {
					return fmt.Errorf("sweep: Mixes replaces the Seqs/GenTokens axes (a mix fixes its own request shapes)")
				}
				for _, mix := range s.Mixes {
					if err := workload.ValidateMix(mix); err != nil {
						return err
					}
				}
			}
			if len(s.Trace) > 0 {
				if len(s.Rates) > 0 || len(s.Seqs) > 0 || len(s.GenTokens) > 0 {
					return fmt.Errorf("sweep: Trace replaces the Rates/Seqs/GenTokens axes (a trace fixes arrivals and request shapes)")
				}
				if len(s.Schedules) > 0 || len(s.Turns) > 0 {
					return fmt.Errorf("sweep: Trace fixes the arrival process — leave the Schedules/Turns axes unset")
				}
				// The trace also fixes the request count and carries no
				// arrival randomness — reject the knobs it would silently
				// ignore.
				if s.ServeRequests != 0 || s.ServeSeed != 0 {
					return fmt.Errorf("sweep: Trace fixes the request count and arrivals — leave ServeRequests/ServeSeed unset")
				}
				if err := workload.ValidateTrace(s.Trace); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("sweep: unknown workload %v", s.Workload)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("sweep: no models")
	}
	if len(s.Systems) == 0 {
		return fmt.Errorf("sweep: no systems")
	}
	for _, m := range s.Models {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	for _, sys := range s.Systems {
		if sys == nil {
			return fmt.Errorf("sweep: nil system")
		}
		if err := sys.Validate(); err != nil {
			return err
		}
	}
	if b, bad := firstBelow(s.GlobalBatches, 1); bad {
		return fmt.Errorf("sweep: non-positive batch %d", b)
	}
	if q, bad := firstBelow(s.Seqs, 1); bad {
		return fmt.Errorf("sweep: non-positive sequence length %d", q)
	}
	if g, bad := firstBelow(s.GenTokens, 0); bad {
		return fmt.Errorf("sweep: negative generation length %d", g)
	}
	return nil
}

// CheckKnobs applies serve's knob table to the grid in axis form: a knob
// axis passes when at least one listed policy reads it
// (serve.CheckKnobSet). Validate reports its verdict naming Spec axes; the
// CLI queries it directly to name its flags instead.
func (s Spec) CheckKnobs() (serve.Knob, serve.KnobFault) {
	set := serve.KnobSet(0).With(serve.KnobPageTokens, s.ServePageTokens != 0).
		With(serve.KnobPoolSplit, len(s.PoolSplits) > 0).
		With(serve.KnobTransferGBps, s.TransferGBps != 0).
		With(serve.KnobPrefix, anyAbove(s.PrefixTokens, 0) || workload.Prefixed(s.Trace, s.Mixes...)).
		With(serve.KnobSessions, anyAbove(s.Turns, 1)).
		With(serve.KnobHostKV, anyAbove(s.HostKVBytes, 0)).
		With(serve.KnobSwapGBps, s.SwapGBps != 0).
		With(serve.KnobThink, s.Think != 0)
	return serve.CheckKnobSet(set, s.withDefaults().Policies, false)
}

// knobAxes names each serve knob in Spec axes, for Validate's messages.
// The grid has no NoPreempt axis, so that knob is never set.
var knobAxes = [serve.NumKnobs]string{
	serve.KnobPageTokens:   "ServePageTokens",
	serve.KnobPoolSplit:    "PoolSplits",
	serve.KnobTransferGBps: "TransferGBps",
	serve.KnobPrefix:       "a shared prefix (a PrefixTokens entry or a per-entry Mixes/Trace prefix)",
	serve.KnobSessions:     "a Turns entry above 1",
	serve.KnobHostKV:       "a non-zero HostKVBytes entry",
	serve.KnobSwapGBps:     "SwapGBps",
	serve.KnobThink:        "Think",
}

// anyAbove reports whether some entry of xs exceeds min.
func anyAbove[T int | float64](xs []T, min T) bool {
	for _, x := range xs {
		if x > min {
			return true
		}
	}
	return false
}

// firstBelow returns the first entry of xs below min, NaN included.
func firstBelow[T int | float64](xs []T, min T) (T, bool) {
	for _, x := range xs {
		if !(x >= min) {
			return x, true
		}
	}
	return 0, false
}

// Point is one fully instantiated candidate experiment.
type Point struct {
	Workload  Workload
	Model     model.Config
	System    *arch.System
	Map       parallel.Mapping
	Recompute memfoot.Recompute
	Precision tech.Precision
	// GlobalBatch is the global batch (training) or concurrent sequences
	// (inference).
	GlobalBatch int
	// Seq is the sequence length (training) or prompt length (inference
	// and serving).
	Seq int
	// GenTokens is the generation length; inference and serving only.
	GenTokens int
	// Rate is the Poisson arrival rate in requests/sec; serving only.
	Rate float64
	// BatchCap is the iteration batch cap (0 = derive); serving only.
	BatchCap int
	// Policy is the KV admission policy and PageTokens the paged block
	// size in tokens (0 under ReserveFull); serving only.
	Policy     serve.Policy
	PageTokens int
	// PrefillDevices/DecodeDevices are the disaggregated pool split and
	// TransferGBps its KV-transfer bandwidth (all zero under other
	// policies); serving only. They shape the simulated capacity, so they
	// are part of the candidate's identity.
	PrefillDevices int
	DecodeDevices  int
	TransferGBps   float64
	// PrefixTokens is the spec-wide shape's shared prefix length and
	// HostKVBytes/SwapGBps the paged policy's host KV tier capacity and
	// swap-link bandwidth (all zero under other policies); serving only.
	// They shape the simulated admission behavior, so they are part of
	// the candidate's identity.
	PrefixTokens int
	HostKVBytes  float64
	SwapGBps     float64
	// Mix is the candidate's multi-tenant workload (nil for spec-wide
	// shapes); Trace its replayed request timeline. Both shape the
	// simulated distribution, so they are part of the candidate's
	// identity. Serving only.
	Mix   []workload.TenantLoad
	Trace []workload.TraceEvent
	// ServeRequests and ServeSeed fix the simulated request count and
	// arrival seed; serving only. They shape the simulated distribution,
	// so they are part of the candidate's identity.
	ServeRequests int
	ServeSeed     int64
	// Replicas is the homogeneous fleet size the candidate simulates
	// (0 = plain single-instance serve) and Routing its cluster routing
	// policy (canonically RoundRobin for fleets of at most one replica);
	// serving only.
	Replicas int
	Routing  cluster.Routing
	// Schedule is the candidate's piecewise arrival-rate timeline (nil for
	// the constant Rate — enumeration canonicalizes constant schedules to
	// it), Turns its session-cohort depth (0 for the single-turn stream;
	// canonically 0 unless Policy is Paged) and Think the pause between a
	// session's turns (canonically 0 without cohorts); serving only. All
	// three shape the simulated arrival stream, so they are part of the
	// candidate's identity.
	Schedule workload.Schedule
	Turns    int
	Think    float64
}

// Key canonically identifies everything the evaluation depends on — the
// persisted memo key. It is always computed from the current field
// values, so mutated Point copies never alias a stale identity. The engine
// itself keys on the comparable ident and formats this string only where
// an identity leaves the process (SaveCache).
func (p Point) Key() string {
	id := identOf(&p, cellTokens{})
	cell := modelToken(p.Model) + "|" + systemToken(p.System)
	return string(appendKey(make([]byte, 0, len(cell)+keyFieldsCap), &id, cell,
		workload.FormatSchedule(p.Schedule), workloadToken(p.Mix, p.Trace)))
}

// modelToken identifies a model configuration: names alone are not enough,
// since external descriptions can be edited and reloaded under the same
// name (§3.1), and a collision would silently serve the wrong memoized
// metrics.
func modelToken(cfg model.Config) string {
	return cfg.Name + "#" + fingerprint(cfg)
}

// systemToken identifies a full system configuration, same rationale.
func systemToken(sys *arch.System) string {
	return sys.String() + "#" + fingerprint(*sys)
}

// fingerprint collapses a configuration struct into a short stable token
// (fmt renders map fields with sorted keys, so the rendering — and the
// hash — is deterministic).
func fingerprint(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return strconv.FormatUint(h.Sum64(), 16)
}

// workloadToken identifies a serving candidate's request-shape workload —
// the mix or trace it simulates. Tenant names are arbitrary strings, so
// the token is a fingerprint rather than a literal rendering (which could
// collide with the key's separators); empty for spec-wide-shaped
// candidates, keeping their keys stable relative to each other.
func workloadToken(mix []workload.TenantLoad, trace []workload.TraceEvent) string {
	switch {
	case len(trace) > 0:
		return "trace#" + fingerprint(trace)
	case len(mix) > 0:
		return "mix#" + fingerprint(mix)
	default:
		return ""
	}
}

// Metrics is the outcome of costing one point.
type Metrics struct {
	// Time is seconds per training batch, end-to-end inference latency,
	// or p95 end-to-end serving latency — the ranking key for each
	// workload.
	Time float64
	// MFU is the model-FLOPs utilization; training only.
	MFU float64
	// Memory is the per-device training footprint.
	Memory memfoot.Breakdown
	// Footprint is the per-device inference/serving footprint (for
	// serving: weights plus the peak KV reservation observed).
	Footprint memfoot.InferenceBreakdown
	// Fits reports whether the footprint fits device memory.
	Fits bool

	// TTFTP95 and TPOTP95 are the serving SLO percentiles in seconds;
	// TokensPerSec is the aggregate simulated generation throughput.
	// Serving only.
	TTFTP95      float64
	TPOTP95      float64
	TokensPerSec float64
	// Preemptions, RecomputedTokens and KVUtil surface the admission
	// policy's pressure behavior (evictions, discarded generated tokens,
	// mean fraction of the KV budget held). Serving only.
	Preemptions      int
	RecomputedTokens int
	KVUtil           float64
	// KVTransfers and TransferTime count the disaggregated policy's
	// prefill→decode KV migrations and the total interconnect seconds
	// they cost. Serving only, disaggregated candidates only.
	KVTransfers  int
	TransferTime float64
	// PrefixHits/PrefixSavedTokens count the paged policy's prefix-cache
	// admissions that found their shared prefix resident and the prefill
	// tokens those hits skipped; KVSwapOuts/KVSwapIns/SwapTime count the
	// host KV tier's page movements and the total link seconds they cost.
	// Serving only, paged candidates with those mechanisms only.
	PrefixHits        int
	PrefixSavedTokens int
	KVSwapOuts        int
	KVSwapIns         int
	SwapTime          float64
	// PerTenant breaks the SLO percentiles down per workload tenant,
	// sorted by tenant name. Serving only.
	PerTenant []TenantSLO
}

// TenantSLO is one tenant's SLO summary within a serving candidate.
type TenantSLO struct {
	Tenant   string
	Requests int
	TTFTP95  float64
	TPOTP95  float64
	E2EP95   float64
}

// Row is one ranked result.
type Row struct {
	Point   Point
	Metrics Metrics
	// order is the enumeration index, the deterministic tie-breaker.
	order int
}

// Stats summarizes how the sweep executed.
type Stats struct {
	// Enumerated is the candidate count after grid deduplication.
	Enumerated int
	// Pruned counts candidates rejected by the memory-feasibility check
	// before any costing.
	Pruned int
	// Evaluated counts full predictor evaluations.
	Evaluated int
	// MemoHits counts successful evaluations answered from the
	// memoization cache (errored cache entries count under Errors).
	MemoHits int
	// Errors counts candidates dropped because the predictor rejected
	// them.
	Errors int
	// Workers is the pool size used (1 for Serial).
	Workers int
	// Elapsed is the wall-clock sweep time.
	Elapsed time.Duration
}

// String renders a one-line execution summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d candidates: %d pruned, %d evaluated, %d memoized, %d errored (%d workers, %s)",
		s.Enumerated, s.Pruned, s.Evaluated, s.MemoHits, s.Errors, s.Workers,
		s.Elapsed.Round(time.Millisecond))
}

// Result is a ranked sweep outcome.
type Result struct {
	// Rows are the surviving candidates: fitting first, then by time,
	// ties broken by enumeration order. Bounded by Constraints.TopK.
	Rows  []Row
	Stats Stats
}

// divisors returns the divisors of n in ascending order.
func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// EnumerateTraining lists the candidate training points of one (model,
// system, batch, seq, precision) grid cell: the feasible (DP, TP, PP, SP,
// microbatch, schedule, recompute) space under c, in deterministic order.
// With duplicate-free Microbatches, Recomputes and Schedules the points
// are pairwise distinct.
func EnumerateTraining(cfg model.Config, sys *arch.System, batch, seq int, prec tech.Precision, c Constraints) []Point {
	c = c.WithDefaults(sys)
	devices := sys.NumDevices()
	var maps []parallel.Mapping
	for _, tp := range divisors(devices) {
		if tp > c.MaxTP || cfg.Heads%tp != 0 {
			continue
		}
		for _, pp := range divisors(devices / tp) {
			if cfg.Layers%pp != 0 {
				// No schedule splits the layers into pp stages: skip the
				// degree before Mapping.Validate builds an error per
				// rejected candidate.
				continue
			}
			dp := devices / (tp * pp)
			for _, mb := range c.Microbatches {
				if batch%(dp*mb) != 0 {
					continue
				}
				// The schedule is meaningless at PP=1 (no bubble, one
				// microbatch in flight): keep only the first valid one.
				pp1Done := false
				for _, sched := range c.Schedules {
					if pp == 1 && pp1Done {
						continue
					}
					m := parallel.Mapping{
						DP: dp, TP: tp, PP: pp, SP: tp > 1,
						Microbatch: mb, Schedule: sched,
					}
					if sched == parallel.Interleaved1F1B {
						if pp < 2 || cfg.Layers%(pp*2) != 0 {
							continue
						}
						m.VirtualStages = 2
					}
					if m.Validate(cfg.Layers, batch) != nil {
						continue
					}
					pp1Done = true
					maps = append(maps, m)
				}
			}
		}
	}
	// Points are large: build them in place, in a slice sized once.
	out := make([]Point, 0, len(maps)*len(c.Recomputes))
	for _, m := range maps {
		for _, rec := range c.Recomputes {
			out = append(out, Point{
				Workload: Training, Model: cfg, System: sys,
				Map: m, Recompute: rec, Precision: prec,
				GlobalBatch: batch, Seq: seq,
			})
		}
	}
	return out
}

// enumerateInference lists the candidate inference point of one grid
// cell. Inference involves only TP across the devices of the system
// (§1.3), so each cell yields at most one mapping.
func enumerateInference(cfg model.Config, sys *arch.System, batch, prompt, gen int, prec tech.Precision) []Point {
	tp := sys.NumDevices()
	if cfg.Heads%tp != 0 {
		return nil
	}
	return []Point{{
		Workload: Inference, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, GlobalBatch: batch, Seq: prompt, GenTokens: gen,
	}}
}

// enumerateServing canonicalizes one serving candidate. base carries the
// candidate's model, system, precision and every serving axis value, plus
// its request shape: the spec-wide Seq/GenTokens/PrefixTokens, a Mix, or a
// Trace. The mapping is fixed to TP = device count as in inference. Knobs
// serve's table says the policy ignores are zeroed — the prefix, host tier
// and session cohort, and the think time without a cohort — and the page
// size, pool split, transfer and swap bandwidths resolve through serve's
// Canonical* rules, the page size clamped at the context serve itself
// runs. Equal-behavior candidates thus always share one identity, under
// exactly the rules the simulator applies. A cell that cannot be simulated
// yields nil, like an indivisible head count: a prefix leaving no
// non-shared prompt token (or beside a session cohort, which owns its
// prefix), or a pool split asking for more devices than the system has.
func enumerateServing(base Point, pageTokens int, split PoolSplit) []Point {
	p := base
	tp := p.System.NumDevices()
	if p.Model.Heads%tp != 0 {
		return nil
	}
	p.Workload = Serving
	p.Map = parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1}
	if !p.Policy.Reads(serve.KnobPrefix) {
		p.PrefixTokens = 0
	}
	if !p.Policy.Reads(serve.KnobHostKV) {
		p.HostKVBytes = 0
	}
	if !p.Policy.Reads(serve.KnobSessions) || p.Turns <= 1 {
		// Think refines a session cohort: without one it goes too.
		p.Turns, p.Think = 0, 0
	}
	if p.PrefixTokens > 0 && (p.PrefixTokens >= p.Seq || p.Turns > 0) {
		return nil
	}
	p.PrefillDevices, p.DecodeDevices = serve.CanonicalPoolSplit(p.Policy, split.Prefill, split.Decode, tp)
	if p.PrefillDevices > tp || p.DecodeDevices > tp {
		return nil
	}
	p.TransferGBps = serve.CanonicalTransferGBps(p.Policy, p.TransferGBps)
	p.SwapGBps = serve.CanonicalSwapGBps(p.Policy, p.HostKVBytes, p.SwapGBps)
	p.PageTokens = serve.CanonicalPageTokens(p.Policy, pageTokens, servingSpec(p).MaxContext())
	return []Point{p}
}

// servingValue is one value of a serving grid's arrival or request-shape
// axis: the fields it sets on a candidate — the rate and schedule, or the
// shape with the request count and seed it implies — and its schedule or
// workload token.
type servingValue struct {
	base Point
	tok  uint32
}

// servingAxes builds a serving grid's arrival and request-shape axes,
// interning each value's token in toks once. The arrivals are every
// constant rate, then every schedule — canonicalized first, so a schedule
// that is constant after merging enumerates as the equivalent plain-rate
// candidate and deduplicates against it; a trace fixes the arrival
// process, so it gets one empty entry. The shapes are the trace, each mix,
// or prefix × seq × gen; workload tokens fingerprint the full mix or trace
// contents, so each is hashed once per grid.
func servingAxes(s Spec, toks *tokens) (arrivals, shapes []servingValue) {
	if len(s.Trace) > 0 {
		return []servingValue{{}}, []servingValue{{
			Point{Trace: s.Trace, ServeRequests: len(s.Trace)}, toks.intern(workloadToken(nil, s.Trace)),
		}}
	}
	for _, r := range s.Rates {
		arrivals = append(arrivals, servingValue{base: Point{Rate: r}})
	}
	for _, sch := range s.Schedules {
		cs, cr := workload.CanonicalSchedule(sch, 0)
		arrivals = append(arrivals, servingValue{
			Point{Rate: cr, Schedule: cs}, toks.intern(workload.FormatSchedule(cs)),
		})
	}
	for _, mix := range s.Mixes {
		shapes = append(shapes, servingValue{
			Point{Mix: mix, ServeRequests: s.ServeRequests, ServeSeed: s.ServeSeed}, toks.intern(workloadToken(mix, nil)),
		})
	}
	if len(s.Mixes) > 0 {
		return arrivals, shapes
	}
	for _, prefix := range s.PrefixTokens {
		for _, seq := range s.Seqs {
			for _, gen := range s.GenTokens {
				shapes = append(shapes, servingValue{base: Point{
					Seq: seq, GenTokens: gen, PrefixTokens: prefix,
					ServeRequests: s.ServeRequests, ServeSeed: s.ServeSeed,
				}})
			}
		}
	}
	return arrivals, shapes
}

// Enumerate expands the full grid into its deduplicated candidate list,
// in deterministic order.
func Enumerate(s Spec) []Point {
	var out []Point
	forEachCell(s, newTokens(), func(cell []Point, _ cellTokens) { out = append(out, cell...) })
	return out
}

// forEachCell walks the grid cell by cell in enumeration order and hands
// emit each non-empty cell's candidates, none seen before, with the cell's
// tokens interned in toks; concatenating the emitted slices gives
// Enumerate's list.
//
// Training and inference identities are injective in a cell's axis values
// and its mappings, so deduplicating each axis list once — keeping every
// value's first occurrence — removes every duplicate candidate, in the
// order a per-candidate seen set would have kept them, without a lookup
// per candidate. Serving canonicalization can merge distinct axis values
// into one candidate, so only the serving branch keeps a seen set.
func forEachCell(s Spec, toks *tokens, emit func([]Point, cellTokens)) {
	s = s.withDefaults()
	models, modelToks := uniqueBy(s.Models, modelToken)
	systems, sysToks := uniqueBy(s.Systems, systemToken)
	precisions := unique(s.Precisions)
	c := s.Constraints
	c.Microbatches, c.Recomputes, c.Schedules = unique(c.Microbatches), unique(c.Recomputes), unique(c.Schedules)
	batches, seqs, gens := unique(s.GlobalBatches), unique(s.Seqs), unique(s.GenTokens)
	var arrivals, shapes []servingValue
	var seen map[ident]bool
	if s.Workload == Serving {
		arrivals, shapes = servingAxes(s, toks)
		seen = make(map[ident]bool)
	}
	// The pool split is a grid axis for the policies that read it only;
	// other policies see the zero split, which canonicalizes away (no
	// duplicate cells).
	polSplits := func(pol serve.Policy) []PoolSplit {
		if pol.Reads(serve.KnobPoolSplit) {
			return s.PoolSplits
		}
		return []PoolSplit{{}}
	}
	for mi, cfg := range models {
		for si, sys := range systems {
			tok := cellTokens{cell: toks.intern(modelToks[mi] + "|" + sysToks[si])}
			for _, prec := range precisions {
				switch s.Workload {
				case Serving:
					for _, ar := range arrivals {
						for _, turns := range s.Turns {
							for _, batchCap := range s.BatchCaps {
								for _, pol := range s.Policies {
									for _, split := range polSplits(pol) {
										for _, host := range s.HostKVBytes {
											for _, sh := range shapes {
												for _, reps := range s.Replicas {
													// Every policy routes a fleet of at
													// most one replica identically, so
													// its routing axis collapses.
													routings := s.Routings
													if reps <= 1 {
														routings = []cluster.Routing{cluster.RoundRobin}
													}
													for _, rt := range routings {
														p := sh.base
														p.Model, p.System, p.Precision = cfg, sys, prec
														p.Rate, p.Schedule, p.Turns, p.Think = ar.base.Rate, ar.base.Schedule, turns, s.Think
														p.BatchCap, p.Policy, p.TransferGBps = batchCap, pol, s.TransferGBps
														p.HostKVBytes, p.SwapGBps = host, s.SwapGBps
														p.Replicas, p.Routing = reps, rt
														pts := enumerateServing(p, s.ServePageTokens, split)
														if len(pts) == 0 {
															continue
														}
														tok.wl, tok.sched = sh.tok, ar.tok
														if id := identOf(&pts[0], tok); !seen[id] {
															seen[id] = true
															emit(pts, tok)
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				case Inference:
					for _, batch := range batches {
						for _, seq := range seqs {
							for _, gen := range gens {
								if pts := enumerateInference(cfg, sys, batch, seq, gen, prec); len(pts) > 0 {
									emit(pts, tok)
								}
							}
						}
					}
				default:
					for _, batch := range batches {
						for _, seq := range seqs {
							if pts := EnumerateTraining(cfg, sys, batch, seq, prec, c); len(pts) > 0 {
								emit(pts, tok)
							}
						}
					}
				}
			}
		}
	}
}

// uniqueBy keeps each value's first occurrence in xs, comparing values by
// key, and returns the kept values' keys alongside them.
func uniqueBy[T any, K comparable](xs []T, key func(T) K) (vals []T, keys []K) {
	seen := make(map[K]bool, len(xs))
	for _, x := range xs {
		if k := key(x); !seen[k] {
			seen[k] = true
			vals, keys = append(vals, x), append(keys, k)
		}
	}
	return vals, keys
}

// unique keeps each value's first occurrence in xs.
func unique[T comparable](xs []T) []T {
	vals, _ := uniqueBy(xs, func(x T) T { return x })
	return vals
}

// Evaluate runs the full cost model on one point — on fresh simulator
// state. The engine and Serial evaluate through a pooled per-worker
// evaluator instead, which reuses simulator slabs across points;
// TestRunnerReuseMatchesFresh (serve) and TestClusterRunnerReuseMatchesFresh
// pin that reuse byte-identical, so the two paths cannot diverge.
func Evaluate(p Point) (Metrics, error) {
	return newEvaluator().evaluate(p)
}

// evaluator carries the pooled serving simulators one sweep worker reuses
// across the points it costs. Inference and training predictions are
// stateless; only the serving paths hold reusable state. NOT safe for
// concurrent use — each worker owns one.
type evaluator struct {
	serve   *serve.Runner
	cluster *cluster.Runner
}

func newEvaluator() *evaluator {
	return &evaluator{serve: serve.NewRunner(), cluster: cluster.NewRunner()}
}

func (ev *evaluator) evaluate(p Point) (Metrics, error) {
	switch p.Workload {
	case Inference:
		return evaluateInference(p)
	case Serving:
		return ev.evaluateServing(p)
	default:
		return evaluateTraining(p)
	}
}

func evaluateTraining(p Point) (Metrics, error) {
	res, err := train.Predict(train.Spec{
		Model:       p.Model,
		System:      p.System,
		Map:         p.Map,
		GlobalBatch: p.GlobalBatch,
		Seq:         p.Seq,
		Precision:   p.Precision,
		Recompute:   p.Recompute,
	})
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Time:   res.Total,
		MFU:    res.MFU,
		Memory: res.MemoryPerDevice,
		Fits:   memfoot.FitsDevice(res.MemoryPerDevice, p.System.Device.DRAMCapacity()),
	}, nil
}

func evaluateInference(p Point) (Metrics, error) {
	res, err := infer.Predict(infer.Spec{
		Model:        p.Model,
		System:       p.System,
		TP:           p.Map.TP,
		Batch:        p.GlobalBatch,
		PromptTokens: p.Seq,
		GenTokens:    p.GenTokens,
		Precision:    p.Precision,
	})
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Time:      res.Total,
		Footprint: res.Footprint,
		Fits:      res.Fits,
	}, nil
}

// servingSpec builds the simulator configuration of one serving point.
// Enumeration already canonicalized the policy knobs and zeroed the shape
// fields the candidate does not use — exactly one of its trace, mix, or
// spec-wide prompt/generation fields is set, and a trace candidate's
// rate, seed and arrival fields are zero with its request count the
// trace's length — so the fields pass straight through serve.Spec's
// strict validation.
func servingSpec(p Point) serve.Spec {
	return serve.Spec{
		Model: p.Model, System: p.System, TP: p.Map.TP, Precision: p.Precision,
		MaxBatch: p.BatchCap, Policy: p.Policy, PageTokens: p.PageTokens,
		PrefillDevices: p.PrefillDevices, DecodeDevices: p.DecodeDevices,
		TransferGBps: p.TransferGBps,
		HostKVBytes:  p.HostKVBytes, SwapGBps: p.SwapGBps,
		PromptTokens: p.Seq, GenTokens: p.GenTokens, PrefixTokens: p.PrefixTokens,
		Mix: p.Mix, Trace: p.Trace,
		Rate: p.Rate, Requests: p.ServeRequests, Seed: p.ServeSeed,
		Schedule: p.Schedule, Turns: p.Turns, Think: p.Think,
	}
}

// evaluateServing costs a serving point: a single-instance simulation, or
// for Replicas > 0 a homogeneous fleet of Replicas copies of its capacity
// through internal/cluster, whose fleet-wide result maps onto the same
// Metrics surface (per-device footprint from the worst replica, KV
// utilization averaged across the fleet).
func (ev *evaluator) evaluateServing(p Point) (Metrics, error) {
	var res serve.Result
	if p.Replicas > 0 {
		fleet, err := ev.cluster.Run(cluster.FleetOf(servingSpec(p), p.Replicas, p.Routing))
		if err != nil {
			return Metrics{}, err
		}
		res = serve.Result{
			TTFT: fleet.TTFT, TPOT: fleet.TPOT, E2E: fleet.E2E,
			TokensPerSec:      fleet.TokensPerSec,
			Preemptions:       fleet.Preemptions,
			RecomputedTokens:  fleet.RecomputedTokens,
			KVTransfers:       fleet.KVTransfers,
			TransferTimeTotal: fleet.TransferTimeTotal,
			PrefixHits:        fleet.PrefixHits,
			PrefixSavedTokens: fleet.PrefixSavedTokens,
			KVSwapOuts:        fleet.KVSwapOuts,
			KVSwapIns:         fleet.KVSwapIns,
			SwapTimeTotal:     fleet.SwapTimeTotal,
			PerTenant:         fleet.PerTenant,
		}
		for _, rr := range fleet.PerReplica {
			res.PeakKVBytes = math.Max(res.PeakKVBytes, rr.Result.PeakKVBytes)
			res.MeanKVUtil += rr.Result.MeanKVUtil
		}
		res.MeanKVUtil /= float64(len(fleet.PerReplica))
	} else {
		var err error
		if res, err = ev.serve.Run(servingSpec(p)); err != nil {
			return Metrics{}, err
		}
	}
	m := Metrics{
		Time: res.E2E.P95,
		Footprint: memfoot.InferenceBreakdown{
			// The weights do not depend on the context.
			Weights: memfoot.Inference(p.Model, p.Map.TP, 0, 0, p.Precision.Bytes()).Weights,
			KVCache: res.PeakKVBytes,
		},
		// Admission never over-commits the device, so a completed
		// simulation fits by construction.
		Fits:              true,
		TTFTP95:           res.TTFT.P95,
		TPOTP95:           res.TPOT.P95,
		TokensPerSec:      res.TokensPerSec,
		Preemptions:       res.Preemptions,
		RecomputedTokens:  res.RecomputedTokens,
		KVUtil:            res.MeanKVUtil,
		KVTransfers:       res.KVTransfers,
		TransferTime:      res.TransferTimeTotal,
		PrefixHits:        res.PrefixHits,
		PrefixSavedTokens: res.PrefixSavedTokens,
		KVSwapOuts:        res.KVSwapOuts,
		KVSwapIns:         res.KVSwapIns,
		SwapTime:          res.SwapTimeTotal,
	}
	for _, tm := range res.PerTenant {
		m.PerTenant = append(m.PerTenant, TenantSLO{
			Tenant: tm.Tenant, Requests: tm.Requests,
			TTFTP95: tm.TTFT.P95, TPOTP95: tm.TPOT.P95, E2EP95: tm.E2E.P95,
		})
	}
	return m, nil
}

// Feasible reports whether p fits device memory, using only the footprint
// model — orders of magnitude cheaper than the full predictor, so the
// engine runs it before costing and skips candidates it rejects. The
// verdict matches the Fits field Evaluate would return (for serving:
// whether the simulator can ever admit a request, which is when Evaluate
// succeeds).
func Feasible(p Point) (bool, error) {
	capacity := p.System.Device.DRAMCapacity()
	if p.Workload == Serving {
		// Fleet candidates are homogeneous, so one replica's admission
		// feasibility is the fleet's.
		return serve.Feasible(servingSpec(p)), nil
	}
	if p.Workload == Inference {
		fp := memfoot.Inference(p.Model, p.Map.TP, p.GlobalBatch, p.Seq+p.GenTokens, p.Precision.Bytes())
		return fp.Total() <= capacity, nil
	}
	bd, err := memfoot.Train(memfoot.TrainSpec{
		Model: p.Model, Map: p.Map, Seq: p.Seq, GlobalBatch: p.GlobalBatch,
		Recompute: p.Recompute,
	})
	if err != nil {
		return false, err
	}
	return memfoot.FitsDevice(bd, capacity), nil
}

// rank filters and orders rows: fitting candidates first, then by
// predicted time, ties broken by enumeration order — fully deterministic
// regardless of how the rows were produced.
func rank(rows []Row, c Constraints) []Row {
	if !c.AllowOverflow {
		kept := rows[:0]
		for _, r := range rows {
			if r.Metrics.Fits {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Metrics.Fits != rows[j].Metrics.Fits {
			return rows[i].Metrics.Fits
		}
		//lint:floateq exact compare guarding a strict-< tiebreak: equal bit patterns must fall through to the stable order index
		if rows[i].Metrics.Time != rows[j].Metrics.Time {
			return rows[i].Metrics.Time < rows[j].Metrics.Time
		}
		return rows[i].order < rows[j].order
	})
	if c.TopK > 0 && len(rows) > c.TopK {
		rows = rows[:c.TopK]
	}
	return rows
}

// Serial evaluates the grid one candidate at a time in enumeration order,
// with no pruning, memoization, or concurrency — the golden reference the
// concurrent engine must reproduce byte for byte.
func Serial(s Spec) (Result, error) {
	start := time.Now() //lint:deterministic wall-clock feeds Stats.Elapsed instrumentation only, never rankings or metrics
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	points := Enumerate(s)
	c := s.Constraints.WithDefaults(firstSystem(s))
	rows := make([]Row, 0, len(points))
	stats := Stats{Enumerated: len(points), Workers: 1}
	ev := newEvaluator()
	for i, p := range points {
		m, err := ev.evaluate(p)
		if err != nil {
			stats.Errors++
			continue
		}
		stats.Evaluated++
		rows = append(rows, Row{Point: p, Metrics: m, order: i})
	}
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	return Result{Rows: rank(rows, c), Stats: stats}, nil
}

func firstSystem(s Spec) *arch.System {
	if len(s.Systems) > 0 {
		return s.Systems[0]
	}
	return nil
}
