package serve

import (
	"encoding/json"
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/comm"
)

// Policy selects the KV-cache admission policy of a serving simulation.
type Policy int

const (
	// ReserveFull reserves each request's full prompt+generation KV
	// context at admission (the PR-2 behavior): nothing ever has to be
	// evicted, at the cost of admitting far fewer concurrent sequences
	// than a long-generation request actually needs early in its life.
	ReserveFull Policy = iota
	// Paged allocates KV in fixed-size token blocks (vLLM-style) that
	// grow with a request as it decodes. Under pressure the policy
	// preempts victims LIFO among the running sequences — the youngest
	// admission loses its cache and is re-queued at the head of the wait
	// queue. Readmission prices one prefill pass (the same PrefillCost
	// step-cost API as any admission) that rebuilds the discarded KV:
	// vLLM's recompute preemption, where already-generated tokens are
	// recovered as context by the recompute prefill, and the sequence
	// resumes decoding from where it was evicted.
	Paged
	// Disaggregated splits the KV capacity into two page pools — prefill
	// and decode — the DistServe-style deployment where the two phases run
	// on separate device pools joined by a KV transfer. A request admits
	// against the prefill pool on its prompt's pages alone; when its first
	// token is emitted it migrates to the decode pool, paying a per-request
	// KV-transfer cost of its prompt's KV bytes over the
	// Spec.TransferGBps interconnect (internal/comm's point-to-point link
	// model); decode growth and LIFO preemption then run against the
	// decode pool only. Pool sizes follow Spec.PrefillDevices and
	// Spec.DecodeDevices; block geometry is the paged policy's
	// (Spec.PageTokens).
	Disaggregated
)

// String names the policy with the token the CLI and sweep writers use.
func (p Policy) String() string {
	switch p {
	case ReserveFull:
		return "reserve-full"
	case Paged:
		return "paged"
	case Disaggregated:
		return "disagg"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MarshalJSON renders the policy name, so JSON artifacts compared across
// the policy axis say "paged", not a bare enum int.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON parses the rendered policy name back.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ParsePolicy resolves a CLI policy token.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reserve", "reserve-full", "reservation":
		return ReserveFull, nil
	case "paged", "page":
		return Paged, nil
	case "disagg", "disaggregated":
		return Disaggregated, nil
	default:
		return 0, fmt.Errorf("serve: unknown admission policy %q (reserve|paged|disagg)", s)
	}
}

// DefaultPageTokens is the paged policy's block size when Spec.PageTokens
// is zero — vLLM's default block size.
const DefaultPageTokens = 16

// CanonicalPageTokens resolves the effective paged block size for a
// (policy, requested size, full context) triple: zero unless the policy
// reads KnobPageTokens (or the context is empty), the default when unset,
// clamped to the context. It is the single source of the rule — the
// simulator's policy construction and the sweep's candidate enumeration
// both call it, so memo keys canonicalize under exactly the block size the
// simulator runs.
func CanonicalPageTokens(pol Policy, pageTokens, context int) int {
	if !pol.Reads(KnobPageTokens) || context < 1 {
		return 0
	}
	if pageTokens <= 0 {
		pageTokens = DefaultPageTokens
	}
	if pageTokens > context {
		pageTokens = context
	}
	return pageTokens
}

// DefaultTransferGBps is the disaggregated policy's KV-transfer
// interconnect bandwidth when Spec.TransferGBps is zero — a PCIe Gen5
// x16-class link in GB/s.
const DefaultTransferGBps = 50.0

// CanonicalPoolSplit resolves the effective disaggregated pool split for
// (policy, requested device counts, TP devices): zeros unless the policy
// reads KnobPoolSplit; an unset (non-positive) count defaults to tp — each
// pool then spans every device, the co-located split whose block
// accounting coincides with Paged's. Shared by the simulator's policy
// construction and the sweep's memo-key canonicalization.
func CanonicalPoolSplit(pol Policy, prefill, decode, tp int) (int, int) {
	if !pol.Reads(KnobPoolSplit) || tp < 1 {
		return 0, 0
	}
	if prefill <= 0 {
		prefill = tp
	}
	if decode <= 0 {
		decode = tp
	}
	return prefill, decode
}

// CanonicalTransferGBps resolves the effective KV-transfer bandwidth:
// zero unless the policy reads KnobTransferGBps, the default when unset.
// math.Inf(1) is a legal value — a free transfer, the degenerate
// co-located interconnect.
func CanonicalTransferGBps(pol Policy, gbps float64) float64 {
	if !pol.Reads(KnobTransferGBps) {
		return 0
	}
	if gbps == 0 {
		return DefaultTransferGBps
	}
	return gbps
}

// DefaultSwapGBps is the host KV tier's link bandwidth when Spec.SwapGBps
// is zero — a PCIe Gen4 x16-class host link in GB/s, deliberately slower
// than the GPU-to-GPU DefaultTransferGBps.
const DefaultSwapGBps = 32.0

// CanonicalSwapGBps resolves the effective host-tier swap bandwidth: zero
// unless the policy reads KnobSwapGBps and runs the host tier it refines
// (HostKVBytes set), the default when unset. math.Inf(1) is a legal value
// — a free swap. Shared by the simulator's policy construction and the
// sweep's memo-key canonicalization, the same single-source rule as
// CanonicalTransferGBps.
func CanonicalSwapGBps(pol Policy, hostBytes, gbps float64) float64 {
	if !pol.Reads(KnobSwapGBps) || !(hostBytes > 0) {
		return 0
	}
	if gbps == 0 {
		return DefaultSwapGBps
	}
	return gbps
}

// AdmissionPolicy manages the KV-cache budget of one simulation: it
// decides how many sequences may run concurrently, reserves capacity as
// requests are admitted and decode, and selects preemption victims under
// pressure. The interface is sealed (its stepping methods take the
// simulator's unexported request type); newPolicy builds the
// implementation Spec.Policy selects.
type AdmissionPolicy interface {
	// BatchCap resolves the concurrent-sequence bound: the user's
	// Spec.MaxBatch, bounded by how many admissions the KV budget holds.
	BatchCap() int
	// Feasible reports whether a single request can ever be admitted.
	Feasible() bool
	// PageGeometry reports the resolved block size in tokens and the page
	// count of the budget; both zero for ReserveFull.
	PageGeometry() (pageTokens, totalPages int)

	// beginStep re-derives per-iteration accounting from the running set
	// (indices into the request slab, in admission order) and makes room
	// for each sequence's next token, returning the sequences that keep
	// running and the preemption victims (appended to the caller's
	// reusable buffer), which the event loop re-queues. Victims are
	// collected youngest-first.
	beginStep(pool []request, running, victims []int32) (kept, outVictims []int32)
	// admit reserves capacity for the request, or reports that it does
	// not fit right now.
	admit(r *request) bool
	// release frees a completed request's capacity.
	release(r *request)
	// usedBytes is the KV capacity currently committed — unavailable to
	// further admissions — in bytes.
	usedBytes() float64
	// usedPages is the committed page count (0 for ReserveFull).
	usedPages() int
	// budgetBytes is the resolved per-device KV budget.
	budgetBytes() float64
	// counters reports the cumulative preemptions and the generated
	// tokens they discarded.
	counters() (preemptions, recomputedTokens int)
}

// newPolicy resolves the spec's admission policy. It derives the KV
// geometry exactly once (one memfoot.Inference evaluation), so the
// simulator's hot path never recomputes the footprint model.
func newPolicy(s Spec) AdmissionPolicy {
	budget, perRequest := s.kvBudget()
	switch s.Policy {
	case Paged:
		return newPagedPolicy(s, budget, perRequest)
	case Disaggregated:
		return newDisaggPolicy(s, budget, perRequest)
	}
	b := s.bounds()
	return &reservePolicy{
		budget: budget, perRequest: perRequest,
		maxContext: b.maxContext, minContext: b.minContext,
		uniform: b.uniform(), userCap: s.MaxBatch,
	}
}

// reservePolicy is the extracted PR-2 admission: every request reserves
// its own full prompt+generation KV context up front, so capacity never
// has to be reclaimed and preemption never happens. For a uniform workload
// its arithmetic — the order of float operations included — is exactly the
// pre-refactor admission loop's, which the paged policy's
// degenerate-equivalence test relies on; heterogeneous workloads price
// each reservation per request off the same footprint-derived geometry.
type reservePolicy struct {
	budget float64
	// perRequest is the footprint model's full-context KV bytes at the
	// workload's largest context; smaller requests reserve a linear
	// per-token fraction of it.
	perRequest             float64
	maxContext, minContext int
	uniform                bool
	userCap                int
	kvUsed                 float64
}

// contextBytes prices a context-token full reservation. The footprint's
// own bytes are used verbatim at the context it was derived for, so the
// uniform workload stays bit-identical to the PR-3 accounting instead of
// routing through a divide-and-remultiply round trip.
func (p *reservePolicy) contextBytes(context int) float64 {
	if context == p.maxContext {
		return p.perRequest
	}
	return p.perRequest / float64(p.maxContext) * float64(context)
}

func (p *reservePolicy) BatchCap() int {
	// The cap is how many of the workload's smallest reservations fit —
	// an upper bound on concurrency; per-request admission is the real
	// gate. Clamped like the paged pool (maxTotalPages): an unguarded
	// float→int conversion on a huge budget/perRequest ratio overflows to
	// a negative cap, which would stall the event loop at zero admissions.
	fit := maxTotalPages
	if f := p.budget / p.contextBytes(p.minContext); f < maxTotalPages {
		fit = int(f)
	}
	if p.userCap > 0 && p.userCap < fit {
		return p.userCap
	}
	return fit
}

func (p *reservePolicy) Feasible() bool {
	return p.budget > 0 && p.perRequest <= p.budget
}

func (p *reservePolicy) PageGeometry() (int, int) { return 0, 0 }

func (p *reservePolicy) beginStep(pool []request, running, victims []int32) ([]int32, []int32) {
	if p.uniform {
		// Multiply-by-count, not a sum: the PR-3 float path, preserved
		// bit for bit for the degenerate-equivalence guarantee.
		p.kvUsed = p.perRequest * float64(len(running))
		return running, victims
	}
	kv := 0.0
	for _, id := range running {
		r := &pool[id]
		kv += p.contextBytes(r.prompt + r.gen)
	}
	p.kvUsed = kv
	return running, victims
}

func (p *reservePolicy) admit(r *request) bool {
	need := p.contextBytes(r.prompt + r.gen)
	if !(p.kvUsed+need <= p.budget) {
		return false
	}
	p.kvUsed += need
	return true
}

func (p *reservePolicy) release(*request)     {}
func (p *reservePolicy) usedBytes() float64   { return p.kvUsed }
func (p *reservePolicy) usedPages() int       { return 0 }
func (p *reservePolicy) budgetBytes() float64 { return p.budget }
func (p *reservePolicy) counters() (int, int) { return 0, 0 }

// maxTotalPages caps the page budget so a garbage spec (tiny page bytes
// against a huge budget) cannot overflow the float→int conversion. It
// must fit a 32-bit int so the package keeps building on 32-bit targets.
const maxTotalPages = 1<<31 - 1

// pagedGeometry derives the block geometry shared by the paged and
// disaggregated policies: the byte size of one page and the budget's page
// count. When one page spans the full context the footprint's own bytes
// are used verbatim (not a divide-and-remultiply round trip), keeping the
// degenerate configurations bit-identical to ReserveFull accounting; the
// page count is clamped to maxTotalPages so a huge budget cannot overflow
// the float→int conversion on 32-bit targets. One implementation, two
// callers — the PR-3 32-bit regression came from exactly this rule
// drifting between copies.
func pagedGeometry(pageTokens, context int, budget, perRequest float64) (pageBytes float64, budgetPages int) {
	if pageTokens == context {
		pageBytes = perRequest
	} else {
		pageBytes = perRequest * float64(pageTokens) / float64(context)
	}
	if budget > 0 && pageBytes > 0 {
		if f := budget / pageBytes; f > maxTotalPages {
			budgetPages = maxTotalPages
		} else {
			budgetPages = int(f)
		}
	}
	return pageBytes, budgetPages
}

// pagedPolicy allocates KV in fixed-size token blocks. A request holds
// ceil(kvTokens/pageTokens) pages for the tokens currently in its cache
// and grows one page at a time as it decodes; admission only needs its own
// prompt's pages, so many more long-generation requests run concurrently
// than under full-context reservation. When a sequence cannot grow, the
// policy evicts victims LIFO (youngest admission first, itself last) —
// recompute-style preemption: the victim's pages are freed and the event
// loop re-queues it for a recompute prefill that rebuilds its cache, after
// which it resumes decoding. All page counts are priced per request, off
// the request's own prompt/generation lengths.
//
// With NoPreempt set, admission instead reserves the request's own
// full-context page count up front (reservation at page granularity),
// which guarantees growth never fails — the degenerate configuration the
// equivalence tests pin against ReserveFull.
//
// Two optional mechanisms extend the block accounting, both degenerating
// byte-for-byte to the plain policy when unused:
//
//   - Prefix caching: requests carrying a PrefixID share their leading
//     PrefixTokens prompt tokens. The first admission of a prefix charges
//     its pages into a refcounted resident registry; later admissions
//     charge their private suffix only and skip the prefix's share of the
//     prefill pass. Refcounts survive LIFO preemption (an evicted victim
//     releases its reference, never the shared pages), and idle resident
//     prefixes are reclaimed — lowest slot first — before any running
//     victim is preempted.
//   - Tiered KV: with a host tier configured (Spec.HostKVBytes), eviction
//     swaps the victim's private pages out to the tier — priced as a
//     point-to-point transfer over the Spec.SwapGBps link — instead of
//     discarding them, while the tier has room. Readmission compares the
//     swap-in transfer against the recompute prefill and takes the
//     cheaper path.
type pagedPolicy struct {
	budget     float64
	pageBytes  float64
	pageTokens int
	totalPages int
	admitPages int // pages covering the smallest admission need — the derived-cap unit
	fullPages  int // pages covering the largest full context — the feasibility unit
	minFull    int // pages covering the smallest full context — NoPreempt's cap unit
	userCap    int
	noPreempt  bool

	used       int // pages currently held across the running set (and resident prefixes)
	reserved   int // NoPreempt: full-context pages reserved by admissions
	preempts   int
	recomputed int

	// Prefix registry: interned shared prefixes, indexed by the slot ids
	// the request slab carries. Empty for prefix-free workloads, whose
	// admission arithmetic is untouched.
	prefixes    []prefixEntry
	prefixIdx   map[string]int32
	prefixHits  int
	prefixSaved int

	// Host tier state: page capacity and occupancy, swap counters, and the
	// link pricing inputs (perToken KV bytes over swapLink, the PR-5
	// transfer-pricing pattern). hostTotal == 0 disables the tier.
	hostTotal   int
	hostUsed    int
	peakHost    int
	swapOuts    int
	swapIns     int
	pendingSwap float64
	swapTotal   float64
	perToken    float64
	swapLink    arch.Link
	// sim prices the readmission recompute path the swap-in competes
	// against (set by the simulator after construction; nil in validation-
	// only uses, which never admit).
	sim *simulator
}

// prefixEntry is one interned shared prefix: its id, token and page span,
// how many running sequences currently reference it, and whether its pages
// are resident in the KV cache. Residency outlives the last reference —
// that is the cache — until pressure reclaims the idle entry.
type prefixEntry struct {
	id       string
	tokens   int
	pages    int
	refs     int
	resident bool
}

func newPagedPolicy(s Spec, budget, perRequest float64) *pagedPolicy {
	b := s.bounds()
	context := b.maxContext
	pt := CanonicalPageTokens(Paged, s.PageTokens, context)
	p := &pagedPolicy{
		budget:     budget,
		pageTokens: pt,
		userCap:    s.MaxBatch,
		noPreempt:  s.NoPreempt,
	}
	if pt == 0 {
		return p // context-free garbage spec; totalPages stays 0 → infeasible
	}
	p.pageBytes, p.totalPages = pagedGeometry(pt, context, budget, perRequest)
	p.admitPages = p.pagesFor(b.minPrompt + 1)
	p.fullPages = p.pagesFor(context)
	p.minFull = p.pagesFor(b.minContext)
	if s.prefixed() {
		// Prefixed shapes split their pages into shared + private spans,
		// each rounded up separately: the feasibility unit is the largest
		// such split (≥ the unsplit page count), the cap unit the smallest
		// resident-prefix admission (private prompt suffix only).
		p.fullPages, p.admitPages = prefixPageUnits(s, p)
	}
	if s.HostKVBytes > 0 {
		if f := s.HostKVBytes / p.pageBytes; f > maxTotalPages {
			p.hostTotal = maxTotalPages
		} else {
			p.hostTotal = int(f)
		}
		p.perToken = perRequest / float64(context)
		p.swapLink = arch.Link{BW: CanonicalSwapGBps(Paged, s.HostKVBytes, s.SwapGBps) * 1e9, Util: 1}
	}
	return p
}

// prefixPageUnits derives the paged feasibility and cap units of a
// prefixed workload by folding every shape: the largest
// prefix-pages + private-full-context-pages sum (what the oldest sequence
// can need to finish after everything else is evicted and every other
// prefix reclaimed), and the smallest admission need (a resident-prefix
// hit charging its private prompt's pages alone). Session cohorts fold
// their extreme turns — the prefix-free first turn and the largest
// context-grown last turn — and heavy-tailed mixes fold both clamp
// corners, so the units bound every shape the generator can emit.
func prefixPageUnits(s Spec, p *pagedPolicy) (fullPages, admitPages int) {
	fold := func(first bool, prompt, gen, prefix int) {
		full := p.pagesFor(prefix) + p.pagesFor(prompt-prefix+gen)
		admit := p.pagesFor(prompt - prefix + 1)
		if first || full > fullPages {
			fullPages = full
		}
		if first || admit < admitPages {
			admitPages = admit
		}
	}
	if len(s.Trace) > 0 {
		for i, ev := range s.Trace {
			fold(i == 0, ev.PromptTokens, ev.GenTokens, ev.PrefixTokens)
		}
		return fullPages, admitPages
	}
	turns := s.Turns
	if turns < 1 {
		turns = 1
	}
	for i, t := range s.Mix {
		pmin, pmax := t.PromptBounds()
		gmin, gmax := t.GenBounds()
		if turns > 1 {
			// Turn 1 carries no prefix; turn k's context grows linearly, so
			// the last turn of the largest draw is the full-pages extreme.
			fold(i == 0, pmin, gmin, 0)
			ctx := (turns - 1) * (pmax + gmax)
			fold(false, ctx+pmax, gmax, ctx)
			continue
		}
		fold(i == 0, pmin, gmin, t.PrefixTokens)
		if pmax != pmin || gmax != gmin {
			fold(false, pmax, gmax, t.PrefixTokens)
		}
	}
	return fullPages, admitPages
}

// intern resolves a prefix id to its registry slot, creating it cold
// (non-resident, unreferenced) on first sight. Workload validation
// guarantees one consistent token length per id.
func (p *pagedPolicy) intern(id string, tokens int) int32 {
	if i, ok := p.prefixIdx[id]; ok {
		return i
	}
	if p.prefixIdx == nil {
		p.prefixIdx = make(map[string]int32, 4)
	}
	i := int32(len(p.prefixes))
	p.prefixes = append(p.prefixes, prefixEntry{id: id, tokens: tokens, pages: p.pagesFor(tokens)})
	p.prefixIdx[id] = i
	return i
}

// internedPrefixTokens reports the token length a prefix id was interned
// with — the Instance.Push consistency check.
func (p *pagedPolicy) internedPrefixTokens(id string) (int, bool) {
	i, ok := p.prefixIdx[id]
	if !ok {
		return 0, false
	}
	return p.prefixes[i].tokens, true
}

// reclaimIdle frees one resident idle (refs == 0) prefix — lowest slot
// first, a deterministic order — reporting whether it freed anything. The
// eviction loops try it before preempting any running victim: a cached
// prefix nobody references is the cheapest capacity to reclaim.
func (p *pagedPolicy) reclaimIdle() bool {
	for i := range p.prefixes {
		e := &p.prefixes[i]
		if e.resident && e.refs == 0 {
			e.resident = false
			p.used -= e.pages
			return true
		}
	}
	return false
}

// pagesFor returns the page count covering tokens KV entries.
func (p *pagedPolicy) pagesFor(tokens int) int {
	return (tokens + p.pageTokens - 1) / p.pageTokens
}

func (p *pagedPolicy) BatchCap() int {
	// Derived from the workload's smallest per-request need — an upper
	// bound on concurrency; per-request admission is the real gate.
	per := p.admitPages
	if p.noPreempt {
		per = p.minFull
	}
	fit := 0
	if per > 0 {
		fit = p.totalPages / per
	}
	if p.userCap > 0 && p.userCap < fit {
		return p.userCap
	}
	return fit
}

func (p *pagedPolicy) Feasible() bool {
	return p.budget > 0 && p.fullPages > 0 && p.fullPages <= p.totalPages
}

func (p *pagedPolicy) PageGeometry() (int, int) { return p.pageTokens, p.totalPages }

// beginStep grows every established sequence's allocation to cover the
// token its next decode step produces. Sequences are grown oldest-first
// (admission order); when the free pool runs dry, the youngest running
// sequence is evicted — possibly the grower itself when it is the
// youngest. The oldest sequence can always finish: even the largest lone
// request's full context fits the budget (Feasible), so eviction never
// empties the running set, which is the simulator's progress guarantee.
func (p *pagedPolicy) beginStep(pool []request, running, victims []int32) (kept, outVictims []int32) {
	kept, outVictims = running, victims
	for i := 0; i < len(kept); i++ {
		id := kept[i]
		r := &pool[id]
		// A sequence needs another page only when its next token spills
		// past its held pages' capacity: need = ceil(tokens/pageTokens)
		// exceeds r.pages exactly when tokens > r.pages*pageTokens. The
		// multiply-and-compare keeps the per-sequence steady state free of
		// the ceil's integer division. Page math spans the request's
		// private tokens only — its shared prefix (zero without one) lives
		// in the registry's pages.
		if r.prompt-r.prefix+r.produced+1 <= r.pages*p.pageTokens {
			continue
		}
		need := p.pagesFor(r.prompt - r.prefix + r.produced + 1)
		extra := need - r.pages
		self := false
		for p.used+extra > p.totalPages {
			if p.reclaimIdle() {
				continue
			}
			vi := kept[len(kept)-1]
			kept = kept[:len(kept)-1]
			p.evict(&pool[vi])
			outVictims = append(outVictims, vi)
			if vi == id {
				self = true
				break
			}
		}
		if self {
			break // r was the youngest; the outer scan is past the end
		}
		p.used += extra
		r.pages = need
	}
	return kept, outVictims
}

// evict frees a victim's private pages and releases its prefix reference
// (the shared pages stay resident — refcounting survives preemption).
// With a host tier holding room, the pages swap out to it instead of
// vanishing — the victim remembers its stored span and readmission
// decides swap-in vs recompute; otherwise the generated tokens are
// accounted for the recompute prefill that must rebuild them.
func (p *pagedPolicy) evict(v *request) {
	if p.hostTotal > 0 && p.hostUsed+v.pages <= p.hostTotal {
		v.hostPages = v.pages
		v.hostTokens = v.prompt - v.prefix + v.produced
		p.hostUsed += v.pages
		if p.hostUsed > p.peakHost {
			p.peakHost = p.hostUsed
		}
		t := p.swapTime(v.hostTokens)
		p.pendingSwap += t
		p.swapOuts++
		v.transfers++
		v.transferTime += t
	} else {
		p.recomputed += v.produced
	}
	p.used -= v.pages
	v.pages = 0
	p.preempts++
	if v.prefixSlot >= 0 {
		p.prefixes[v.prefixSlot].refs--
	}
}

// admit reserves the pages a request's next step touches: its private
// prompt's for a fresh sequence, the prompt's plus the already-generated
// tokens' for a preemption victim resuming after its recompute prefill.
// A shared prefix charges its own pages only when not already resident —
// a hit charges the private suffix alone and skips the prefix's share of
// the prefill pass. A session turn carrying more context than the
// resident entry extends it in place: the hit covers the cached span and
// the growth delta is charged to (and prefilled by) the extending turn.
// A victim whose pages sit in the host tier swaps them back in when the
// transfer undercuts the recompute prefill.
func (p *pagedPolicy) admit(r *request) bool {
	need := p.pagesFor(r.prompt - r.prefix + r.produced + 1)
	if p.noPreempt {
		full := p.pagesFor(r.prompt + r.gen)
		if p.reserved+full > p.totalPages {
			return false
		}
		p.reserved += full
		r.pages = need
		p.used += need
		return true
	}
	var pfx *prefixEntry
	shared := 0
	if r.prefixSlot >= 0 {
		pfx = &p.prefixes[r.prefixSlot]
		if !pfx.resident {
			shared = p.pagesFor(r.prefix)
		} else if r.prefix > pfx.tokens {
			shared = p.pagesFor(r.prefix) - pfx.pages
		}
	}
	for p.used+need+shared > p.totalPages {
		if !p.reclaimIdle() {
			return false
		}
	}
	free := 0
	if pfx != nil {
		// Re-test residency: the reclaim loop above may have dropped this
		// very entry (resident, unreferenced) to make room.
		switch {
		case !pfx.resident:
			// (Re)materialize the cache at this request's span: a session's
			// later turn carries more context than the entry was interned
			// with, and a victim readmitting after its cache was reclaimed
			// may carry less — the registry tracks what is resident now.
			pfx.resident = true
			pfx.refs = 1
			pfx.tokens = r.prefix
			pfx.pages = p.pagesFor(r.prefix)
			p.used += pfx.pages
		case r.prefix > pfx.tokens:
			// A session turn extending the resident entry: the hit covers
			// the cached span, this request's prefill computes the growth
			// delta, and the grown entry serves the session's next turn.
			pfx.refs++
			free = pfx.tokens
			p.prefixHits++
			p.prefixSaved += pfx.tokens
			delta := p.pagesFor(r.prefix) - pfx.pages
			pfx.tokens = r.prefix
			pfx.pages += delta
			p.used += delta
		default:
			pfx.refs++
			free = r.prefix
			p.prefixHits++
			p.prefixSaved += r.prefix
		}
	}
	if r.hostPages > 0 {
		// The tier holds this victim's pre-eviction KV. Price both
		// readmission paths — swap the stored bytes back over the link, or
		// rebuild them with a recompute prefill — and take the cheaper.
		p.hostUsed -= r.hostPages
		swapIn := p.swapTime(r.hostTokens)
		if swapIn <= p.sim.recomputeCost(r.hostTokens) {
			p.pendingSwap += swapIn
			p.swapIns++
			r.transfers++
			r.transferTime += swapIn
			free += r.hostTokens
		} else {
			p.recomputed += r.produced
		}
		r.hostPages, r.hostTokens = 0, 0
	}
	r.prefillFree = free
	r.pages = need
	p.used += need
	return true
}

func (p *pagedPolicy) release(r *request) {
	p.used -= r.pages
	r.pages = 0
	if p.noPreempt {
		p.reserved -= p.pagesFor(r.prompt + r.gen)
	}
	if r.prefixSlot >= 0 {
		p.prefixes[r.prefixSlot].refs--
	}
}

// swapTime prices one host-tier page movement: the stored tokens' KV
// bytes point-to-point over the swap link. An infinite-bandwidth link
// prices to exactly zero.
func (p *pagedPolicy) swapTime(tokens int) float64 {
	return comm.P2PTime(float64(tokens)*p.perToken, p.swapLink)
}

// drainSwap hands the event loop the swap time accrued by this
// iteration's evictions and readmissions, accumulating the total. Zero —
// contributing nothing to the iteration — without a host tier.
func (p *pagedPolicy) drainSwap() float64 {
	t := p.pendingSwap
	p.pendingSwap = 0
	p.swapTotal += t
	return t
}

// residentPrefixPages sums the resident registry entries' pages — the
// probe's conservation hook (used == running private pages + resident
// prefix pages).
func (p *pagedPolicy) residentPrefixPages() int {
	pages := 0
	for i := range p.prefixes {
		if p.prefixes[i].resident {
			pages += p.prefixes[i].pages
		}
	}
	return pages
}

// usedPages reports the pages *committed* — what admission sees as
// unavailable — so the utilization surface stays comparable across the
// policy axis: held blocks under preemption, reserved full contexts under
// NoPreempt (whose admissions commit capacity they have not yet filled,
// exactly as ReserveFull's do).
func (p *pagedPolicy) usedPages() int {
	if p.noPreempt {
		return p.reserved
	}
	return p.used
}
func (p *pagedPolicy) usedBytes() float64   { return float64(p.usedPages()) * p.pageBytes }
func (p *pagedPolicy) budgetBytes() float64 { return p.budget }
func (p *pagedPolicy) counters() (int, int) {
	return p.preempts, p.recomputed
}

// disaggPolicy is paged block allocation split across two pools: prefill
// admissions hold pages in the prefill pool, and a sequence's pages move
// to the decode pool when its first token is emitted — the DistServe-style
// hand-off, priced per request as a point-to-point transfer of its
// prompt's KV bytes over the configured interconnect. Decode growth and
// LIFO preemption run against the decode pool only; a preemption victim
// loses its pages, re-queues, and on readmission rebuilds its cache in the
// prefill pool (recompute prefill) before migrating — and paying the
// transfer — again.
//
// Each pool owns PrefillDevices (resp. DecodeDevices) of the TP devices'
// aggregate KV budget; pools may overlap, and the fully co-located split
// (both counts = TP, every device serving both phases) makes every
// per-pool constraint coincide with the shared-budget one — block
// accounting is then exactly pagedPolicy's, which the
// degenerate-equivalence suite pins byte for byte under an infinite
// transfer bandwidth.
type disaggPolicy struct {
	budget     float64
	pageBytes  float64
	pageTokens int
	// totalPages caps the two pools' combined commitment: the budget's
	// pages when the pools overlap, their (smaller) sum when they do not.
	totalPages   int
	prefillTotal int
	decodeTotal  int
	admitPages   int // pages covering the smallest prompt+1 — the derived-cap unit
	fullPages    int // pages covering the largest full context — the feasibility unit
	userCap      int
	// perToken is the linear per-token KV footprint the migration transfer
	// is priced over; link is the interconnect joining the pools.
	perToken float64
	link     arch.Link

	prefillUsed, decodeUsed int
	peakPrefill, peakDecode int
	pendingTransfer         float64
	transferTotal           float64
	transfers               int
	preempts, recomputed    int
}

func newDisaggPolicy(s Spec, budget, perRequest float64) *disaggPolicy {
	b := s.bounds()
	context := b.maxContext
	pt := CanonicalPageTokens(Disaggregated, s.PageTokens, context)
	pp, dd := CanonicalPoolSplit(Disaggregated, s.PrefillDevices, s.DecodeDevices, s.TP)
	p := &disaggPolicy{
		budget:     budget,
		pageTokens: pt,
		userCap:    s.MaxBatch,
		link:       arch.Link{BW: CanonicalTransferGBps(Disaggregated, s.TransferGBps) * 1e9, Util: 1},
	}
	if pt == 0 {
		return p // context-free garbage spec; totalPages stays 0 → infeasible
	}
	var budgetPages int
	p.pageBytes, budgetPages = pagedGeometry(pt, context, budget, perRequest)
	p.perToken = perRequest / float64(context)
	p.prefillTotal = poolPages(budgetPages, pp, s.TP)
	p.decodeTotal = poolPages(budgetPages, dd, s.TP)
	// int64 sum: both totals fit 32-bit ints but their sum need not.
	if int64(p.prefillTotal)+int64(p.decodeTotal) < int64(budgetPages) {
		p.totalPages = p.prefillTotal + p.decodeTotal
	} else {
		p.totalPages = budgetPages
	}
	p.admitPages = p.pagesFor(b.minPrompt + 1)
	p.fullPages = p.pagesFor(context)
	return p
}

// poolPages is one pool's share of the budget's pages: devs of the tp
// devices' aggregate. 64-bit intermediate so the multiply cannot overflow
// a 32-bit int.
func poolPages(budgetPages, devs, tp int) int {
	return int(int64(budgetPages) * int64(devs) / int64(tp))
}

// pagesFor returns the page count covering tokens KV entries.
func (p *disaggPolicy) pagesFor(tokens int) int {
	return (tokens + p.pageTokens - 1) / p.pageTokens
}

// used is the combined committed page count across both pools — what the
// shared budget sees as unavailable.
func (p *disaggPolicy) used() int { return p.prefillUsed + p.decodeUsed }

func (p *disaggPolicy) BatchCap() int {
	fit := 0
	if p.admitPages > 0 {
		fit = p.totalPages / p.admitPages
	}
	if p.userCap > 0 && p.userCap < fit {
		return p.userCap
	}
	return fit
}

// Feasible requires the largest request's full context to fit each pool:
// the decode pool must grow it to completion, and a preemption victim's
// recompute readmission can need up to its full context in the prefill
// pool — the progress guarantee that eviction can never wedge the queue.
func (p *disaggPolicy) Feasible() bool {
	return p.budget > 0 && p.fullPages > 0 &&
		p.fullPages <= p.prefillTotal && p.fullPages <= p.decodeTotal
}

func (p *disaggPolicy) PageGeometry() (int, int) { return p.pageTokens, p.totalPages }

// beginStep migrates every sequence whose first token was emitted last
// iteration from the prefill pool to the decode pool — accruing its KV
// transfer — then grows decode allocations one token ahead, exactly as
// pagedPolicy does, with LIFO eviction when capacity runs dry. Victim
// selection respects the pools' physical separation: when only the decode
// pool binds, the youngest *decode resident* is evicted — preempting a
// prefill-held sequence cannot free decode pages, it would only thrash
// recomputes — while shared-budget pressure (co-located pools) evicts the
// youngest sequence outright, the paged policy's rule, which is what
// keeps the co-located split byte-identical to Paged.
//
// The running set always orders decode residents before prefill-held
// sequences: the previous beginStep migrated every survivor, and
// admission appends the prefill-held newcomers at the tail.
func (p *disaggPolicy) beginStep(pool []request, running, victims []int32) (kept, outVictims []int32) {
	kept, outVictims = running, victims
	for i := 0; i < len(kept); i++ {
		id := kept[i]
		r := &pool[id]
		self := false
		if !r.inDecode {
			// The hand-off: the prefill pool's copy of r's cache moves to
			// the decode pool before its first decode step. Migration never
			// touches the shared total, so only the decode pool can bind —
			// and while it does, a decode resident to evict always exists
			// (decodeUsed > decodeTotal - r.pages >= 0 by feasibility).
			for p.decodeUsed+r.pages > p.decodeTotal {
				j := len(kept) - 1
				for !pool[kept[j]].inDecode {
					j--
				}
				vi := kept[j]
				kept = append(kept[:j], kept[j+1:]...)
				p.evict(&pool[vi])
				outVictims = append(outVictims, vi)
				// v sat before the scan position (decode residents precede
				// every prefill-held sequence); keep the cursor on r.
				i--
			}
			p.prefillUsed -= r.pages
			p.decodeUsed += r.pages
			if p.decodeUsed > p.peakDecode {
				p.peakDecode = p.decodeUsed
			}
			r.inDecode = true
			t := p.transferTime(r.prompt)
			p.pendingTransfer += t
			p.transfers++
			r.transfers++
			r.transferTime += t
		}
		need := p.pagesFor(r.prompt + r.produced + 1)
		extra := need - r.pages
		if extra <= 0 {
			continue
		}
		for p.decodeUsed+extra > p.decodeTotal || p.used()+extra > p.totalPages {
			j := len(kept) - 1
			if p.used()+extra <= p.totalPages {
				// Only the decode pool binds: LIFO restricts to its own
				// residents. Unreachable under co-location, where
				// decodeUsed <= used and decodeTotal == totalPages.
				for !pool[kept[j]].inDecode {
					j--
				}
			}
			vi := kept[j]
			kept = append(kept[:j], kept[j+1:]...)
			p.evict(&pool[vi])
			outVictims = append(outVictims, vi)
			if vi == id {
				self = true
				break
			}
		}
		if self {
			// r itself was the LIFO victim. Unlike pagedPolicy — where the
			// victim scan pops strictly from the tail, so nothing remains
			// past r — the decode-restricted scan can evict r while
			// prefill-held sequences still sit behind it; they must keep
			// scanning (and migrate) rather than decode this iteration from
			// the wrong pool. Removal shifted them down one slot.
			i--
			continue
		}
		p.decodeUsed += extra
		if p.decodeUsed > p.peakDecode {
			p.peakDecode = p.decodeUsed
		}
		r.pages = need
	}
	return kept, outVictims
}

// transferTime prices one sequence's KV hand-off: its prompt's KV bytes
// point-to-point over the pool interconnect. An infinite-bandwidth link
// prices to exactly zero — the co-located degenerate case.
func (p *disaggPolicy) transferTime(promptTokens int) float64 {
	return comm.P2PTime(float64(promptTokens)*p.perToken, p.link)
}

// drainTransfer hands the event loop the KV-transfer time accrued by this
// iteration's migrations, accumulating the total.
func (p *disaggPolicy) drainTransfer() float64 {
	t := p.pendingTransfer
	p.pendingTransfer = 0
	p.transferTotal += t
	return t
}

// evict frees a victim's pages from whichever pool holds them and
// accounts the generated tokens its readmission prefill must rebuild.
func (p *disaggPolicy) evict(v *request) {
	if v.inDecode {
		p.decodeUsed -= v.pages
	} else {
		p.prefillUsed -= v.pages
	}
	v.pages = 0
	v.inDecode = false
	p.preempts++
	p.recomputed += v.produced
}

// admit reserves the pages a request's next (pre)fill pass touches in the
// prefill pool: its own prompt's for a fresh sequence, plus the
// already-generated tokens' for a preemption victim resuming after its
// recompute prefill.
func (p *disaggPolicy) admit(r *request) bool {
	need := p.pagesFor(r.prompt + r.produced + 1)
	if p.prefillUsed+need > p.prefillTotal || p.used()+need > p.totalPages {
		return false
	}
	r.pages = need
	r.inDecode = false
	p.prefillUsed += need
	if p.prefillUsed > p.peakPrefill {
		p.peakPrefill = p.prefillUsed
	}
	return true
}

func (p *disaggPolicy) release(r *request) {
	if r.inDecode {
		p.decodeUsed -= r.pages
	} else {
		p.prefillUsed -= r.pages
	}
	r.pages = 0
	r.inDecode = false
}

func (p *disaggPolicy) usedPages() int       { return p.used() }
func (p *disaggPolicy) usedBytes() float64   { return float64(p.used()) * p.pageBytes }
func (p *disaggPolicy) budgetBytes() float64 { return p.budget }
func (p *disaggPolicy) counters() (int, int) { return p.preempts, p.recomputed }
