package serve

// shapeBounds are the extreme request shapes of one workload, derived once
// per simulation: the step-cost engine is configured at the largest prompt
// and generation, the KV geometry at the largest context, and the derived
// batch caps at the smallest (a cap is an upper bound on concurrency — the
// per-request admission math is the real gate).
type shapeBounds struct {
	minPrompt, maxPrompt   int
	maxGen                 int
	minContext, maxContext int
}

// boundsOf folds one request shape into the running bounds.
func (b *shapeBounds) fold(first bool, prompt, gen int) {
	c := prompt + gen
	if first {
		*b = shapeBounds{minPrompt: prompt, maxPrompt: prompt, maxGen: gen, minContext: c, maxContext: c}
		return
	}
	if prompt < b.minPrompt {
		b.minPrompt = prompt
	}
	if prompt > b.maxPrompt {
		b.maxPrompt = prompt
	}
	if gen > b.maxGen {
		b.maxGen = gen
	}
	if c < b.minContext {
		b.minContext = c
	}
	if c > b.maxContext {
		b.maxContext = c
	}
}

// bounds resolves the workload's shape bounds: the trace's when replaying,
// the mix's when generating, and the spec-wide fields when neither is set
// (validation paths that run before withDefaults fills the degenerate mix).
// Heavy-tailed mix entries fold both clamp corners, and session cohorts
// fold the largest turn's context-grown prompt — the extremes are knowable
// from the spec alone (workload.HeavyTailCap bounds every draw), so the
// step-cost engine and KV geometry never see a shape they were not
// configured for.
func (s Spec) bounds() shapeBounds {
	var b shapeBounds
	switch {
	case len(s.Trace) > 0:
		for i, ev := range s.Trace {
			b.fold(i == 0, ev.PromptTokens, ev.GenTokens)
		}
	case len(s.Mix) > 0:
		turns := s.Turns
		if turns < 1 {
			turns = 1
		}
		for i, t := range s.Mix {
			pmin, pmax := t.PromptBounds()
			gmin, gmax := t.GenBounds()
			// Session turn k's prompt carries (k-1)·(P+G) prior context;
			// the largest turn of the largest draw bounds the workload.
			pmaxTurn := (turns-1)*(pmax+gmax) + pmax
			b.fold(i == 0, pmin, gmin)
			if pmaxTurn != pmin || gmax != gmin {
				b.fold(false, pmaxTurn, gmax)
			}
		}
	default:
		b.fold(true, s.PromptTokens, s.GenTokens)
	}
	return b
}

// MaxContext is the largest prompt+generation context a request of the
// workload can reach — session cohorts' context-grown turns and
// heavy-tailed draws included. It is the context the paged policies clamp
// their block size at (CanonicalPageTokens), so callers canonicalizing a
// page size ahead of a run resolve the one the simulator uses.
func (s Spec) MaxContext() int { return s.withDefaults().bounds().maxContext }

// uniform reports whether every request spans one common context length,
// which lets the reservation policy keep the PR-3 multiply-by-count float
// path (bit-identical for the degenerate workload) instead of summing.
func (b shapeBounds) uniform() bool { return b.minContext == b.maxContext }
