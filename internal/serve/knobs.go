package serve

import "optimus/internal/workload"

// Knob is a policy-scoped serving knob: a Spec setting that only some
// admission policies read. The knobs table below is the one home of which
// policy reads which knob, which knobs work through preemption, and which
// refine another knob. Spec validation, the Canonical* resolvers, the
// sweep's grid validation and candidate canonicalization, and the CLI's
// flag checks all query it instead of restating the rules; each layer only
// names the knobs in its own vocabulary (Spec fields, sweep axes, flags).
type Knob int

const (
	// KnobPageTokens is the KV block size (Spec.PageTokens).
	KnobPageTokens Knob = iota
	// KnobNoPreempt disables victim preemption (Spec.NoPreempt).
	KnobNoPreempt
	// KnobPoolSplit is the disaggregated pool split
	// (Spec.PrefillDevices/DecodeDevices).
	KnobPoolSplit
	// KnobTransferGBps is the prefill→decode link bandwidth
	// (Spec.TransferGBps).
	KnobTransferGBps
	// KnobPrefix is a shared prompt prefix: Spec.PrefixTokens or a
	// per-entry mix/trace prefix.
	KnobPrefix
	// KnobSessions is a session cohort (Spec.Turns > 1), whose turns share
	// the session's growing context as a prefix.
	KnobSessions
	// KnobHostKV is the host KV tier (Spec.HostKVBytes).
	KnobHostKV
	// KnobSwapGBps is the host tier's link bandwidth (Spec.SwapGBps).
	KnobSwapGBps
	// KnobThink is the pause between session turns (Spec.Think).
	KnobThink
	// NumKnobs counts the knobs: Knob(0) through NumKnobs-1.
	NumKnobs
)

// numPolicies counts the admission policies: Policy(0) through
// numPolicies-1.
const numPolicies = Disaggregated + 1

// noKnob marks a table row without a dependency.
const noKnob Knob = -1

// knobRule is one row of the applicability table.
type knobRule struct {
	// name is the knob in Spec fields, for Validate's messages.
	name string
	// readers holds bit p for every Policy p that reads the knob.
	readers uint8
	// preempt marks a knob that works through preemption, so NoPreempt
	// leaves it nothing to act on.
	preempt bool
	// requires is the knob this one refines (noKnob for none), and
	// purpose says what it does there, for the messages that name both.
	requires Knob
	purpose  string
}

// knobs is the applicability table, indexed by Knob. It is a fixed array
// so the checks stay allocation-free on every Run and fleet probe. The
// prefix cache, session context and host tier live on the paged policy's
// preemption machinery: disagg preempts against its decode pool but
// carries none of them.
var knobs = [NumKnobs]knobRule{
	KnobPageTokens:   {"PageTokens", 1<<Paged | 1<<Disaggregated, false, noKnob, ""},
	KnobNoPreempt:    {"NoPreempt", 1 << Paged, false, noKnob, ""},
	KnobPoolSplit:    {"PrefillDevices/DecodeDevices", 1 << Disaggregated, false, noKnob, ""},
	KnobTransferGBps: {"TransferGBps", 1 << Disaggregated, false, noKnob, ""},
	KnobPrefix:       {"a shared prefix (PrefixTokens or a per-entry mix/trace prefix)", 1 << Paged, true, noKnob, ""},
	KnobSessions:     {"a session cohort (Turns > 1)", 1 << Paged, true, noKnob, ""},
	KnobHostKV:       {"HostKVBytes", 1 << Paged, true, noKnob, ""},
	KnobSwapGBps:     {"SwapGBps", 1 << Paged, true, KnobHostKV, "prices the host KV tier's swap link"},
	KnobThink:        {"Think", 1<<ReserveFull | 1<<Paged | 1<<Disaggregated, false, KnobSessions, "is the pause between session turns"},
}

// Reads reports whether policy p reads knob k; an unknown policy or knob
// reads nothing (an out-of-range policy shifts the readers bits to zero).
func (p Policy) Reads(k Knob) bool {
	return uint(k) < uint(NumKnobs) && knobs[k].readers>>uint(p)&1 == 1
}

// Readers names the policies that read k for a message, joined by conj
// with the noun agreeing: "paged policy", "paged and disagg policies",
// "paged or disagg policy".
func (k Knob) Readers(conj string) string {
	names, noun := "", " policy"
	for p := Policy(0); p < numPolicies; p++ {
		if !p.Reads(k) {
			continue
		}
		if names != "" {
			names += " " + conj + " "
			if conj == "and" {
				noun = " policies"
			}
		}
		names += p.String()
	}
	return names + noun
}

// Requires reports the knob k refines — one that must be set for k to
// have any effect — and what k does there, a predicate such as "prices
// the host KV tier's swap link" for the messages that name both.
func (k Knob) Requires() (dep Knob, purpose string, ok bool) {
	if uint(k) >= uint(NumKnobs) || knobs[k].requires == noKnob {
		return 0, "", false
	}
	return knobs[k].requires, knobs[k].purpose, true
}

// KnobSet is a set of knobs, bit k holding Knob k.
type KnobSet uint16

// With returns ks plus k when on, ks unchanged otherwise.
func (ks KnobSet) With(k Knob, on bool) KnobSet {
	if on {
		ks |= 1 << uint(k)
	}
	return ks
}

// Has reports whether k is in ks.
func (ks KnobSet) Has(k Knob) bool { return ks>>uint(k)&1 == 1 }

// KnobFault is why the table rejects a knob setting.
type KnobFault int

const (
	// KnobOK is no fault.
	KnobOK KnobFault = iota
	// KnobUnread: no policy that would run reads the knob.
	KnobUnread
	// KnobNeedsPreemption: the knob works through preemption, which
	// NoPreempt disables.
	KnobNeedsPreemption
	// KnobNeedsDependency: the knob refines another knob (Requires) that
	// is left unset.
	KnobNeedsDependency
)

// CheckKnobSet applies the table to the knobs a spec or grid sets when
// the given policies would run them, with preemption disabled when
// noPreempt: it returns the first rejected knob in table order and why, or
// KnobOK. A knob passes when at least one policy reads it — the axis form
// a sweep over several policies needs; a single spec passes its one
// policy.
func CheckKnobSet(set KnobSet, policies []Policy, noPreempt bool) (Knob, KnobFault) {
	for k := Knob(0); k < NumKnobs; k++ {
		read := false
		for _, p := range policies {
			read = read || p.Reads(k)
		}
		r := &knobs[k]
		switch {
		case !set.Has(k):
		case !read:
			return k, KnobUnread
		case r.preempt && noPreempt:
			return k, KnobNeedsPreemption
		case r.requires != noKnob && !set.Has(r.requires):
			return k, KnobNeedsDependency
		}
	}
	return 0, KnobOK
}

// CheckKnobs applies the table to the spec's own knobs and policy (see
// CheckKnobSet); a knob is set when its field is non-zero (NaN included),
// so a zero field is an unset knob in every layer. Validate reports the
// verdict naming Spec fields; the CLI queries it directly to name its
// flags instead.
func (s Spec) CheckKnobs() (Knob, KnobFault) {
	set := KnobSet(0).With(KnobPageTokens, s.PageTokens != 0).
		With(KnobNoPreempt, s.NoPreempt).
		With(KnobPoolSplit, s.PrefillDevices != 0 || s.DecodeDevices != 0).
		With(KnobTransferGBps, s.TransferGBps != 0).
		With(KnobPrefix, s.PrefixTokens > 0 || workload.Prefixed(s.Trace, s.Mix)).
		With(KnobSessions, s.Turns > 1).
		With(KnobHostKV, s.HostKVBytes != 0).
		With(KnobSwapGBps, s.SwapGBps != 0).
		With(KnobThink, s.Think != 0)
	return CheckKnobSet(set, []Policy{s.Policy}, s.NoPreempt)
}
