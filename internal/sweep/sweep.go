// Package sweep evaluates large cross-product experiment grids — models ×
// systems × precisions × batch sizes × sequence lengths × parallelization
// mappings × schedules × recomputation regimes for training and inference,
// plus arrival rates × batch caps for continuous-batching serving — the
// plan-space exploration the paper builds on its validated models (§5.1:
// "determine the best parallelism mapping or training settings for an LLM
// model on a certain hardware system").
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
	"strings"
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
	// (TP and SP stay inside a node, §4.2).
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
	Mixes [][]serve.TenantLoad
	// Trace replays one fixed request timeline per serving candidate
	// (systems × precisions × batch caps × policies), serving only. It
	// replaces the Rates, Seqs and GenTokens axes and is mutually
	// exclusive with Mixes.
	Trace []serve.TraceEvent
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

// hasPolicy reports whether pol appears in the (possibly defaulted)
// policy axis.
func hasPolicy(policies []serve.Policy, pol serve.Policy) bool {
	for _, p := range policies {
		if p == pol {
			return true
		}
	}
	return false
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
	if len(s.PoolSplits) == 0 && hasPolicy(s.Policies, serve.Disaggregated) {
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
		for _, mb := range s.Constraints.Microbatches {
			if mb <= 0 {
				return fmt.Errorf("sweep: non-positive microbatch %d", mb)
			}
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
			for _, c := range s.BatchCaps {
				if c < 0 {
					return fmt.Errorf("sweep: negative batch cap %d", c)
				}
			}
			if s.ServeRequests < 0 {
				return fmt.Errorf("sweep: negative serving request count %d", s.ServeRequests)
			}
			hasPaged, hasDisagg := false, false
			for _, pol := range s.Policies {
				switch pol {
				case serve.Paged:
					hasPaged = true
				case serve.Disaggregated:
					hasDisagg = true
				case serve.ReserveFull:
				default:
					return fmt.Errorf("sweep: unknown serving policy %v", pol)
				}
			}
			if s.ServePageTokens < 0 {
				return fmt.Errorf("sweep: negative serving page size %d tokens", s.ServePageTokens)
			}
			// Without a paging policy entry the page size would be silently
			// discarded at enumeration — reject, matching serve.Spec's
			// strictness about knobs the chosen policy ignores.
			if s.ServePageTokens != 0 && !hasPaged && !hasDisagg {
				return fmt.Errorf("sweep: ServePageTokens needs a Paged or Disaggregated entry in Policies")
			}
			for _, sp := range s.PoolSplits {
				if sp.Prefill < 0 || sp.Decode < 0 {
					return fmt.Errorf("sweep: negative pool split %d+%d devices", sp.Prefill, sp.Decode)
				}
			}
			if len(s.PoolSplits) > 0 && !hasDisagg {
				return fmt.Errorf("sweep: PoolSplits needs a Disaggregated entry in Policies")
			}
			if s.TransferGBps < 0 || math.IsNaN(s.TransferGBps) {
				return fmt.Errorf("sweep: KV-transfer bandwidth %g GB/s not non-negative", s.TransferGBps)
			}
			if s.TransferGBps != 0 && !hasDisagg {
				return fmt.Errorf("sweep: TransferGBps needs a Disaggregated entry in Policies")
			}
			hasPrefix, hasHost := false, false
			for _, pre := range s.PrefixTokens {
				if pre < 0 {
					return fmt.Errorf("sweep: negative prefix length %d tokens", pre)
				}
				if pre > 0 {
					hasPrefix = true
				}
			}
			if hasPrefix && !hasPaged {
				return fmt.Errorf("sweep: PrefixTokens needs a Paged entry in Policies")
			}
			if hasPrefix && (len(s.Mixes) > 0 || len(s.Trace) > 0) {
				return fmt.Errorf("sweep: PrefixTokens shapes the spec-wide workload — give Mixes/Trace entries their own per-entry prefixes")
			}
			hasSessions := false
			for _, t := range s.Turns {
				if t < 0 {
					return fmt.Errorf("sweep: negative session turns %d", t)
				}
				if t > 1 {
					hasSessions = true
				}
			}
			if hasSessions && !hasPaged {
				return fmt.Errorf("sweep: Turns above 1 needs a Paged entry in Policies (session cohorts grow a shared prefix)")
			}
			if hasSessions && hasPrefix {
				return fmt.Errorf("sweep: session cohorts own the shared prefix — drop the PrefixTokens axis with Turns above 1")
			}
			if hasSessions {
				for _, mix := range s.Mixes {
					for _, t := range mix {
						if t.PrefixTokens > 0 {
							return fmt.Errorf("sweep: session cohorts own the shared prefix — drop per-entry prefixes from the mixes (tenant %q carries one)", t.Tenant)
						}
					}
				}
			}
			if s.Think != 0 && !hasSessions {
				return fmt.Errorf("sweep: Think is the pause between session turns — set a Turns entry above 1 with it, got Think %g", s.Think)
			}
			if !(s.Think >= 0) || math.IsInf(s.Think, 0) {
				return fmt.Errorf("sweep: think time %g not finite and non-negative", s.Think)
			}
			for _, hb := range s.HostKVBytes {
				if hb < 0 || math.IsNaN(hb) || math.IsInf(hb, 0) {
					return fmt.Errorf("sweep: host KV capacity %g bytes not finite and non-negative", hb)
				}
				if hb > 0 {
					hasHost = true
				}
			}
			if hasHost && !hasPaged {
				return fmt.Errorf("sweep: HostKVBytes needs a Paged entry in Policies")
			}
			if s.SwapGBps < 0 || math.IsNaN(s.SwapGBps) {
				return fmt.Errorf("sweep: swap bandwidth %g GB/s not non-negative", s.SwapGBps)
			}
			if s.SwapGBps != 0 && !hasHost {
				return fmt.Errorf("sweep: SwapGBps needs a non-zero host tier capacity in HostKVBytes")
			}
			for _, g := range s.GenTokens {
				if g < 1 {
					return fmt.Errorf("sweep: serving needs at least one generated token, got %d", g)
				}
			}
			hasFleet := false
			for _, r := range s.Replicas {
				// Zero is the explicit single-instance entry; a negative
				// fleet cannot be meant.
				if r < 0 {
					return fmt.Errorf("sweep: negative fleet size %d replicas", r)
				}
				if r > 0 {
					hasFleet = true
				}
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
			if len(s.Routings) > 0 && !hasFleet {
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
					if err := serve.ValidateMix(mix); err != nil {
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
				if err := serve.ValidateTrace(s.Trace); err != nil {
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
	for _, b := range s.GlobalBatches {
		if b <= 0 {
			return fmt.Errorf("sweep: non-positive batch %d", b)
		}
	}
	for _, q := range s.Seqs {
		if q <= 0 {
			return fmt.Errorf("sweep: non-positive sequence length %d", q)
		}
	}
	for _, g := range s.GenTokens {
		if g < 0 {
			return fmt.Errorf("sweep: negative generation length %d", g)
		}
	}
	return nil
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
	Mix   []serve.TenantLoad
	Trace []serve.TraceEvent
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

	// key is the precomputed canonical identity; enumeration fills it so
	// the engine's hot path never formats strings.
	key string //lint:nokey memo slot for the key itself, not an input to it
}

// Key canonically identifies everything the evaluation depends on — the
// memoization and deduplication key. It is always computed from the
// current field values, so mutated Point copies never alias a stale
// identity; the engine uses the enumeration-time cache internally.
func (p Point) Key() string {
	return p.buildKey(modelToken(p.Model), systemToken(p.System), workloadToken(p.Mix, p.Trace))
}

// cachedKey returns the enumeration-time key without re-formatting; hot
// paths use it on points the enumerators built.
func (p *Point) cachedKey() string {
	if p.key != "" {
		return p.key
	}
	return p.Key()
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

// keyFieldsCap reserves room for the key's separators and numeric fields,
// beyond its tokens: training keys take 66–69 bytes there, so 96 covers
// them and typical serving keys without the buffer growing.
const keyFieldsCap = 96

// buildKey assembles the canonical key without fmt: key construction runs
// once per enumerated candidate and dominated sweep time when it used
// reflection-based formatting. The model, system and workload tokens are
// computed once per grid cell (or once per grid, for a shared trace) by
// the enumerators. The builder is sized up front, so the common key costs
// one allocation.
func (p *Point) buildKey(modelStr, sysStr, workloadStr string) string {
	sp := 0
	if p.Map.SP {
		sp = 1
	}
	var b strings.Builder
	b.Grow(len(modelStr) + len(sysStr) + len(workloadStr) + keyFieldsCap)
	b.WriteString(modelStr)
	b.WriteByte('|')
	b.WriteString(sysStr)
	var num [32]byte
	for _, v := range [...]int{
		int(p.Workload), p.Map.DP, p.Map.TP, p.Map.PP, sp,
		p.Map.Microbatch, int(p.Map.Schedule), p.Map.VirtualStages,
		int(p.Recompute), int(p.Precision), p.GlobalBatch, p.Seq, p.GenTokens,
		p.BatchCap, p.ServeRequests, int(p.Policy), p.PageTokens,
		p.PrefillDevices, p.DecodeDevices, p.Replicas, int(p.Routing),
		p.PrefixTokens, p.Turns,
	} {
		b.WriteByte('|')
		b.Write(strconv.AppendInt(num[:0], int64(v), 10))
	}
	b.WriteByte('|')
	b.Write(strconv.AppendInt(num[:0], p.ServeSeed, 10))
	for _, f := range [...]float64{p.Rate, p.TransferGBps, p.HostKVBytes, p.SwapGBps, p.Think} {
		b.WriteByte('|')
		if math.Float64bits(f) == 0 {
			// +0, the common case, rendered as AppendFloat would.
			b.WriteByte('0')
			continue
		}
		b.Write(strconv.AppendFloat(num[:0], f, 'g', -1, 64))
	}
	// The schedule token is FormatSchedule's canonical rendering: digits
	// and ,-:. only, so it cannot collide with the key's separators.
	b.WriteByte('|')
	b.WriteString(workload.FormatSchedule(p.Schedule))
	b.WriteByte('|')
	b.WriteString(workloadStr)
	return b.String()
}

// workloadToken identifies a serving candidate's request-shape workload —
// the mix or trace it simulates. Tenant names are arbitrary strings, so
// the token is a fingerprint rather than a literal rendering (which could
// collide with the key's separators); empty for spec-wide-shaped
// candidates, keeping their keys stable relative to each other.
func workloadToken(mix []serve.TenantLoad, trace []serve.TraceEvent) string {
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
func EnumerateTraining(cfg model.Config, sys *arch.System, batch, seq int, prec tech.Precision, c Constraints) []Point {
	return enumerateTraining(cfg, sys, batch, seq, prec, c, modelToken(cfg), systemToken(sys))
}

// enumerateTraining is EnumerateTraining with the model and system tokens
// made by the caller, once per grid rather than once per cell.
func enumerateTraining(cfg model.Config, sys *arch.System, batch, seq int, prec tech.Precision, c Constraints, modelStr, sysStr string) []Point {
	c = c.WithDefaults(sys)
	devices := sys.NumDevices()
	var maps []parallel.Mapping
	for _, tp := range divisors(devices) {
		if tp > c.MaxTP || cfg.Heads%tp != 0 {
			continue
		}
		for _, pp := range divisors(devices / tp) {
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
			p := &out[len(out)-1]
			p.key = p.buildKey(modelStr, sysStr, "")
		}
	}
	return out
}

// EnumerateInference lists the candidate inference points of one grid
// cell. Inference involves only TP across the devices of the system
// (§1.3), so each cell yields at most one mapping.
func EnumerateInference(cfg model.Config, sys *arch.System, batch, prompt, gen int, prec tech.Precision) []Point {
	return enumerateInference(cfg, sys, batch, prompt, gen, prec, modelToken(cfg), systemToken(sys))
}

// enumerateInference is EnumerateInference with caller-made tokens.
func enumerateInference(cfg model.Config, sys *arch.System, batch, prompt, gen int, prec tech.Precision, modelStr, sysStr string) []Point {
	tp := sys.NumDevices()
	if cfg.Heads%tp != 0 {
		return nil
	}
	p := Point{
		Workload: Inference, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, GlobalBatch: batch, Seq: prompt, GenTokens: gen,
	}
	p.key = p.buildKey(modelStr, sysStr, "")
	return []Point{p}
}

// servingPolicyAxes canonicalizes one serving candidate's policy knobs
// for a system of tp devices: the block size through
// serve.CanonicalPageTokens and the disaggregated pool split and transfer
// bandwidth through serve.CanonicalPoolSplit/CanonicalTransferGBps — all
// zeroed for policies that ignore them — so equal-behavior candidates
// always share one memo key, under exactly the rules the simulator
// applies. ok is false when the split asks for more devices than the
// system has: that (system, split) cell is skipped, like an indivisible
// head count.
func servingPolicyAxes(pol serve.Policy, pageTokens, context int, split PoolSplit, transferGBps float64, tp int, hostBytes, swapGBps float64) (pt, prefill, decode int, gbps, host, swap float64, ok bool) {
	pt = serve.CanonicalPageTokens(pol, pageTokens, context)
	prefill, decode = serve.CanonicalPoolSplit(pol, split.Prefill, split.Decode, tp)
	gbps = serve.CanonicalTransferGBps(pol, transferGBps)
	if pol != serve.Paged {
		// Only the paged policy holds a host tier; the axis canonicalizes
		// away for the others so they keep one memo key per cell.
		hostBytes = 0
	}
	host = hostBytes
	swap = serve.CanonicalSwapGBps(pol, hostBytes, swapGBps)
	if pol == serve.Disaggregated && (prefill > tp || decode > tp) {
		return 0, 0, 0, 0, 0, 0, false
	}
	return pt, prefill, decode, gbps, host, swap, true
}

// EnumerateServing lists the candidate serving points of one grid cell:
// one continuous-batching simulation per (rate, batch cap, admission
// policy, pool split), with the mapping fixed to TP = device count as in
// inference. pageTokens, split and transferGBps are canonicalized per
// point through the serve package's canonical rules — resolved to the
// serve defaults for the policies that use them, zeroed for the others —
// so equal-behavior candidates always share one memo key, under exactly
// the rules the simulator applies.
func EnumerateServing(cfg model.Config, sys *arch.System, rate float64, batchCap, prompt, gen int, prec tech.Precision, requests int, seed int64, pol serve.Policy, pageTokens int, split PoolSplit, transferGBps float64, prefix int, hostBytes, swapGBps float64) []Point {
	tp := sys.NumDevices()
	if cfg.Heads%tp != 0 {
		return nil
	}
	if pol != serve.Paged {
		// Only the paged policy caches prefixes; the axis canonicalizes
		// away for the others so they keep one memo key per cell.
		prefix = 0
	}
	if prefix > 0 && prefix >= prompt {
		// A prefix must leave at least one non-shared prompt token; this
		// (prompt, prefix) cell cannot be simulated, like an indivisible
		// head count.
		return nil
	}
	pt, prefill, decode, gbps, host, swap, ok := servingPolicyAxes(pol, pageTokens, prompt+gen, split, transferGBps, tp, hostBytes, swapGBps)
	if !ok {
		return nil
	}
	p := Point{
		Workload: Serving, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, Seq: prompt, GenTokens: gen,
		Rate: rate, BatchCap: batchCap, ServeRequests: requests, ServeSeed: seed,
		Policy: pol, PageTokens: pt,
		PrefillDevices: prefill, DecodeDevices: decode, TransferGBps: gbps,
		PrefixTokens: prefix, HostKVBytes: host, SwapGBps: swap,
	}
	p.key = p.buildKey(modelToken(cfg), systemToken(sys), "")
	return []Point{p}
}

// EnumerateServingMix lists the candidate serving points of one grid cell
// whose requests are shaped by a multi-tenant mix: one continuous-batching
// simulation per (rate, batch cap, policy, pool split, mix), with the page
// size canonicalized against the mix's largest context.
func EnumerateServingMix(cfg model.Config, sys *arch.System, mix []serve.TenantLoad, rate float64, batchCap int, prec tech.Precision, requests int, seed int64, pol serve.Policy, pageTokens int, split PoolSplit, transferGBps float64, hostBytes, swapGBps float64) []Point {
	return enumerateServingMix(cfg, sys, mix, rate, batchCap, prec, requests, seed, pol, pageTokens, split, transferGBps, hostBytes, swapGBps, workloadToken(mix, nil))
}

// enumerateServingMix is EnumerateServingMix with the mix's workload token
// precomputed, so Enumerate fingerprints each mix once per grid rather
// than once per candidate.
func enumerateServingMix(cfg model.Config, sys *arch.System, mix []serve.TenantLoad, rate float64, batchCap int, prec tech.Precision, requests int, seed int64, pol serve.Policy, pageTokens int, split PoolSplit, transferGBps, hostBytes, swapGBps float64, workloadStr string) []Point {
	tp := sys.NumDevices()
	if cfg.Heads%tp != 0 {
		return nil
	}
	pt, prefill, decode, gbps, host, swap, ok := servingPolicyAxes(pol, pageTokens, serve.MixContext(mix), split, transferGBps, tp, hostBytes, swapGBps)
	if !ok {
		return nil
	}
	p := Point{
		Workload: Serving, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, Mix: mix,
		Rate: rate, BatchCap: batchCap, ServeRequests: requests, ServeSeed: seed,
		Policy: pol, PageTokens: pt,
		PrefillDevices: prefill, DecodeDevices: decode, TransferGBps: gbps,
		HostKVBytes: host, SwapGBps: swap,
	}
	p.key = p.buildKey(modelToken(cfg), systemToken(sys), workloadStr)
	return []Point{p}
}

// EnumerateServingTrace lists the candidate serving points of one grid
// cell replaying a fixed trace: one simulation per (batch cap, policy,
// pool split). The trace fixes arrivals and request count, so Rate and
// ServeSeed are canonicalized to zero — two candidates differing only in
// them would simulate identically.
func EnumerateServingTrace(cfg model.Config, sys *arch.System, trace []serve.TraceEvent, batchCap int, prec tech.Precision, pol serve.Policy, pageTokens int, split PoolSplit, transferGBps float64, hostBytes, swapGBps float64) []Point {
	return enumerateServingTrace(cfg, sys, trace, batchCap, prec, pol, pageTokens, split, transferGBps, hostBytes, swapGBps, workloadToken(nil, trace))
}

// enumerateServingTrace is EnumerateServingTrace with the trace's workload
// token precomputed — a trace can be large, and hashing it per candidate
// would put reflection back on the enumeration path.
func enumerateServingTrace(cfg model.Config, sys *arch.System, trace []serve.TraceEvent, batchCap int, prec tech.Precision, pol serve.Policy, pageTokens int, split PoolSplit, transferGBps, hostBytes, swapGBps float64, workloadStr string) []Point {
	tp := sys.NumDevices()
	if cfg.Heads%tp != 0 {
		return nil
	}
	pt, prefill, decode, gbps, host, swap, ok := servingPolicyAxes(pol, pageTokens, serve.TraceContext(trace), split, transferGBps, tp, hostBytes, swapGBps)
	if !ok {
		return nil
	}
	p := Point{
		Workload: Serving, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, Trace: trace,
		BatchCap: batchCap, ServeRequests: len(trace),
		Policy: pol, PageTokens: pt,
		PrefillDevices: prefill, DecodeDevices: decode, TransferGBps: gbps,
		HostKVBytes: host, SwapGBps: swap,
	}
	p.key = p.buildKey(modelToken(cfg), systemToken(sys), workloadStr)
	return []Point{p}
}

// Enumerate expands the full grid into its deduplicated candidate list,
// in deterministic order.
func Enumerate(s Spec) []Point {
	var out []Point
	forEachCell(s, func(cell []Point) { out = append(out, cell...) })
	return out
}

// forEachCell walks the grid cell by cell in enumeration order and hands
// emit each cell's candidates with every key already seen dropped; empty
// cells are skipped. Concatenating the emitted slices gives Enumerate's
// list. A cell is copied only when it holds a duplicate: the enumerators'
// slices are never compacted in place, since addFleet reads a cell again
// after adding it.
func forEachCell(s Spec, emit func([]Point)) {
	s = s.withDefaults()
	// Workload tokens are fingerprints over the full mix/trace contents;
	// hash each once per grid, not once per candidate.
	traceTok := workloadToken(nil, s.Trace)
	mixToks := make([]string, len(s.Mixes))
	for i, mix := range s.Mixes {
		mixToks[i] = workloadToken(mix, nil)
	}
	seen := make(map[string]bool)
	add := func(points []Point) {
		for i := range points {
			k := points[i].cachedKey()
			if !seen[k] {
				seen[k] = true
				continue
			}
			kept := append(make([]Point, 0, len(points)-1), points[:i]...)
			for j := range points[i+1:] {
				p := &points[i+1+j]
				if k := p.cachedKey(); !seen[k] {
					seen[k] = true
					kept = append(kept, *p)
				}
			}
			points = kept
			break
		}
		if len(points) > 0 {
			emit(points)
		}
	}
	for _, cfg := range s.Models {
		modelTok := modelToken(cfg)
		for _, sys := range s.Systems {
			sysTok := systemToken(sys)
			for _, prec := range s.Precisions {
				switch s.Workload {
				case Serving:
					// The pool split is a grid axis for disaggregated
					// candidates only; other policies see the zero split,
					// which canonicalizes away (no duplicate cells).
					polSplits := func(pol serve.Policy) []PoolSplit {
						if pol == serve.Disaggregated {
							return s.PoolSplits
						}
						return []PoolSplit{{}}
					}
					// addFleet stamps the fleet axes onto the cell's base
					// candidates: one copy per (fleet size, routing), with
					// the routing axis collapsed to round-robin for
					// single-instance and one-replica entries (every policy
					// routes a fleet of one identically, so they would be
					// duplicate simulations under distinct keys). The base
					// enumerators key their points with zero fleet fields,
					// so only fleet copies need re-keying.
					// The arrival axis: every constant rate, then every
					// schedule — canonicalized first, so a schedule that is
					// constant after merging enumerates as the equivalent
					// plain-rate candidate (rate set, schedule nil) and
					// deduplicates against it.
					type arrivalAxis struct {
						rate  float64
						sched workload.Schedule
					}
					arrivals := make([]arrivalAxis, 0, len(s.Rates)+len(s.Schedules))
					for _, r := range s.Rates {
						arrivals = append(arrivals, arrivalAxis{rate: r})
					}
					for _, sch := range s.Schedules {
						cs, cr := workload.CanonicalSchedule(sch, 0)
						arrivals = append(arrivals, arrivalAxis{rate: cr, sched: cs})
					}
					addFleet := func(points []Point, wlTok string) {
						for _, reps := range s.Replicas {
							rts := s.Routings
							if reps <= 1 {
								rts = []cluster.Routing{cluster.RoundRobin}
							}
							for _, rt := range rts {
								if reps == 0 {
									add(points)
									continue
								}
								stamped := make([]Point, len(points))
								for i, p := range points {
									p.Replicas, p.Routing = reps, rt
									p.key = p.buildKey(modelTok, sysTok, wlTok)
									stamped[i] = p
								}
								add(stamped)
							}
						}
					}
					// addTemporal stamps the arrival-process axes onto the
					// cell's base candidates before the fleet stamping:
					// schedule, session depth and think time, with the
					// degenerate values canonicalized away (constant
					// schedule → nil, single-turn or non-paged → zero
					// turns, turnless → zero think) so degenerate corners
					// share the base candidate's memo key.
					addTemporal := func(points []Point, wlTok string, sched workload.Schedule, turns int) {
						for i := range points {
							p := &points[i]
							t := turns
							if p.Policy != serve.Paged || t <= 1 {
								t = 0
							}
							if len(sched) == 0 && t == 0 {
								continue
							}
							p.Schedule, p.Turns = sched, t
							if t > 1 {
								p.Think = s.Think
							}
							p.key = p.buildKey(modelTok, sysTok, wlTok)
						}
						addFleet(points, wlTok)
					}
					switch {
					case len(s.Trace) > 0:
						for _, batchCap := range s.BatchCaps {
							for _, pol := range s.Policies {
								for _, split := range polSplits(pol) {
									for _, host := range s.HostKVBytes {
										addFleet(enumerateServingTrace(cfg, sys, s.Trace, batchCap, prec, pol, s.ServePageTokens, split, s.TransferGBps, host, s.SwapGBps, traceTok), traceTok)
									}
								}
							}
						}
					case len(s.Mixes) > 0:
						for _, ar := range arrivals {
							for _, turns := range s.Turns {
								for _, batchCap := range s.BatchCaps {
									for _, pol := range s.Policies {
										for _, split := range polSplits(pol) {
											for _, host := range s.HostKVBytes {
												for i, mix := range s.Mixes {
													addTemporal(enumerateServingMix(cfg, sys, mix, ar.rate, batchCap, prec, s.ServeRequests, s.ServeSeed, pol, s.ServePageTokens, split, s.TransferGBps, host, s.SwapGBps, mixToks[i]), mixToks[i], ar.sched, turns)
												}
											}
										}
									}
								}
							}
						}
					default:
						for _, ar := range arrivals {
							for _, turns := range s.Turns {
								for _, batchCap := range s.BatchCaps {
									for _, pol := range s.Policies {
										for _, split := range polSplits(pol) {
											for _, host := range s.HostKVBytes {
												for _, prefix := range s.PrefixTokens {
													if turns > 1 && pol == serve.Paged && prefix > 0 {
														// A session owns its shared prefix; the
														// spec-wide prefixed shape cannot carry
														// one too (serve rejects the combination).
														continue
													}
													for _, seq := range s.Seqs {
														for _, gen := range s.GenTokens {
															addTemporal(EnumerateServing(cfg, sys, ar.rate, batchCap, seq, gen, prec, s.ServeRequests, s.ServeSeed, pol, s.ServePageTokens, split, s.TransferGBps, prefix, host, s.SwapGBps), "", ar.sched, turns)
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
					for _, batch := range s.GlobalBatches {
						for _, seq := range s.Seqs {
							for _, gen := range s.GenTokens {
								add(enumerateInference(cfg, sys, batch, seq, gen, prec, modelTok, sysTok))
							}
						}
					}
				default:
					for _, batch := range s.GlobalBatches {
						for _, seq := range s.Seqs {
							add(enumerateTraining(cfg, sys, batch, seq, prec, s.Constraints, modelTok, sysTok))
						}
					}
				}
			}
		}
	}
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
// Enumeration already canonicalized PageTokens (zero unless paged), so
// the fields pass straight through serve.Spec's strict validation. The
// request shapes come from the candidate's trace, mix, or spec-wide
// prompt/generation fields — exactly one of the three.
func servingSpec(p Point) serve.Spec {
	sp := serve.Spec{
		Model: p.Model, System: p.System, TP: p.Map.TP, Precision: p.Precision,
		MaxBatch: p.BatchCap, Policy: p.Policy, PageTokens: p.PageTokens,
		PrefillDevices: p.PrefillDevices, DecodeDevices: p.DecodeDevices,
		TransferGBps: p.TransferGBps,
		HostKVBytes:  p.HostKVBytes, SwapGBps: p.SwapGBps,
	}
	switch {
	case len(p.Trace) > 0:
		// The trace fixes arrivals, seed and request count.
		sp.Trace = p.Trace
	case len(p.Mix) > 0:
		sp.Mix = p.Mix
		sp.Arrival, sp.Rate = serve.Poisson, p.Rate
		sp.Requests, sp.Seed = p.ServeRequests, p.ServeSeed
		sp.Schedule, sp.Turns, sp.Think = p.Schedule, p.Turns, p.Think
	default:
		sp.PromptTokens, sp.GenTokens = p.Seq, p.GenTokens
		sp.PrefixTokens = p.PrefixTokens
		sp.Arrival, sp.Rate = serve.Poisson, p.Rate
		sp.Requests, sp.Seed = p.ServeRequests, p.ServeSeed
		sp.Schedule, sp.Turns, sp.Think = p.Schedule, p.Turns, p.Think
	}
	return sp
}

// servingContext is the candidate workload's largest prompt+generation
// context — the bound the footprint reporting prices KV geometry at.
func servingContext(p Point) int {
	switch {
	case len(p.Trace) > 0:
		return serve.TraceContext(p.Trace)
	case len(p.Mix) > 0:
		return serve.MixContext(p.Mix)
	default:
		return p.Seq + p.GenTokens
	}
}

// clusterSpec builds the fleet configuration of a Replicas > 0 serving
// point: the single-instance serve spec split into its capacity descriptor
// (instantiated Replicas times — sweep fleets are homogeneous) and the
// fleet-wide workload/arrival fields internal/cluster owns.
func clusterSpec(p Point) cluster.Spec {
	cap := servingSpec(p)
	cs := cluster.Spec{
		Routing:      p.Routing,
		PromptTokens: cap.PromptTokens, GenTokens: cap.GenTokens,
		PrefixTokens: cap.PrefixTokens,
		Mix:          cap.Mix, Trace: cap.Trace,
		Rate: cap.Rate, Requests: cap.Requests, Seed: cap.Seed,
		Schedule: cap.Schedule, Turns: cap.Turns, Think: cap.Think,
	}
	cap.PromptTokens, cap.GenTokens, cap.PrefixTokens = 0, 0, 0
	cap.Mix, cap.Trace = nil, nil
	cap.Arrival, cap.Rate, cap.Requests, cap.Seed = serve.Poisson, 0, 0, 0
	cap.Schedule, cap.Turns, cap.Think = nil, 0, 0
	cs.Replicas = []cluster.Replica{{Spec: cap, Count: p.Replicas}}
	return cs
}

// evaluateServingFleet costs a fleet candidate through internal/cluster,
// mapping the fleet-wide result onto the same serving Metrics surface as a
// single instance (per-device footprint from the worst replica, KV
// utilization averaged across the fleet).
func (ev *evaluator) evaluateServingFleet(p Point) (Metrics, error) {
	res, err := ev.cluster.Run(clusterSpec(p))
	if err != nil {
		return Metrics{}, err
	}
	var peakKV, kvUtil float64
	for _, rr := range res.PerReplica {
		if rr.Result.PeakKVBytes > peakKV {
			peakKV = rr.Result.PeakKVBytes
		}
		kvUtil += rr.Result.MeanKVUtil
	}
	kvUtil /= float64(len(res.PerReplica))
	m := Metrics{
		Time: res.E2E.P95,
		Footprint: memfoot.InferenceBreakdown{
			Weights: memfoot.Inference(p.Model, p.Map.TP, 1, servingContext(p), p.Precision.Bytes()).Weights,
			KVCache: peakKV,
		},
		Fits:              true,
		TTFTP95:           res.TTFT.P95,
		TPOTP95:           res.TPOT.P95,
		TokensPerSec:      res.TokensPerSec,
		Preemptions:       res.Preemptions,
		RecomputedTokens:  res.RecomputedTokens,
		KVUtil:            kvUtil,
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

func (ev *evaluator) evaluateServing(p Point) (Metrics, error) {
	if p.Replicas > 0 {
		return ev.evaluateServingFleet(p)
	}
	res, err := ev.serve.Run(servingSpec(p))
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		Time: res.E2E.P95,
		Footprint: memfoot.InferenceBreakdown{
			Weights: memfoot.Inference(p.Model, p.Map.TP, 1, servingContext(p), p.Precision.Bytes()).Weights,
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
