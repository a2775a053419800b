package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// The persisted key layout, '|'-separated: the model|system token, the
// numIntFields integer fields, the numFloatFields float fields, the
// schedule token and the workload token. Model and system names may
// contain '|', the fields after them never do, so a key parses from the
// right.
const (
	// numIntFields counts the integer fields: 23 ints, then ServeSeed.
	numIntFields = 24
	// numFloatFields counts the float fields: Rate, TransferGBps,
	// HostKVBytes, SwapGBps and Think.
	numFloatFields = 5
	// keyFields counts the fields after the model|system token.
	keyFields = numIntFields + numFloatFields + 2
)

// cellTokens are the interned string tokens of one enumerated cell: the
// model|system pair, the workload (mix or trace) and the arrival schedule.
// Id 0 is the empty token.
type cellTokens struct {
	cell, wl, sched uint32
}

// ident is a candidate's identity in comparable form: the canonical
// numeric fields in key order (floats as their bits) plus the cell's
// token ids. It is the memo and dedup key; the string Key is formatted
// from it only where an identity leaves the process. Validate rules out
// NaN, so bit equality of the floats is equality of their renderings.
type ident struct {
	ints   [numIntFields]int64
	floats [numFloatFields]uint64
	tok    cellTokens
}

// identOf builds p's identity within the cell whose tokens are tok.
//
//optimus:hotpath
func identOf(p *Point, tok cellTokens) ident {
	sp := int64(0)
	if p.Map.SP {
		sp = 1
	}
	return ident{
		ints: [numIntFields]int64{
			int64(p.Workload), int64(p.Map.DP), int64(p.Map.TP), int64(p.Map.PP), sp,
			int64(p.Map.Microbatch), int64(p.Map.Schedule), int64(p.Map.VirtualStages),
			int64(p.Recompute), int64(p.Precision), int64(p.GlobalBatch), int64(p.Seq), int64(p.GenTokens),
			int64(p.BatchCap), int64(p.ServeRequests), int64(p.Policy), int64(p.PageTokens),
			int64(p.PrefillDevices), int64(p.DecodeDevices), int64(p.Replicas), int64(p.Routing),
			int64(p.PrefixTokens), int64(p.Turns), p.ServeSeed,
		},
		floats: [numFloatFields]uint64{
			math.Float64bits(p.Rate), math.Float64bits(p.TransferGBps),
			math.Float64bits(p.HostKVBytes), math.Float64bits(p.SwapGBps), math.Float64bits(p.Think),
		},
		tok: tok,
	}
}

// appendKey renders id in the persisted key layout, given its token
// strings.
func appendKey(b []byte, id *ident, cell, sched, wl string) []byte {
	b = append(b, cell...)
	for _, v := range id.ints {
		b = append(b, '|')
		b = strconv.AppendInt(b, v, 10)
	}
	for _, f := range id.floats {
		b = append(b, '|')
		if f == 0 {
			// +0, the common case, rendered as AppendFloat would.
			b = append(b, '0')
			continue
		}
		b = strconv.AppendFloat(b, math.Float64frombits(f), 'g', -1, 64)
	}
	b = append(b, '|')
	b = append(b, sched...)
	b = append(b, '|')
	return append(b, wl...)
}

// tokens interns the string tokens of candidate identities, so identities
// compare as fixed-size structs. An engine owns one for the life of its
// memo; Enumerate and Serial make one per call. Safe for concurrent use.
type tokens struct {
	mu   sync.Mutex
	ids  map[string]uint32
	strs []string
}

func newTokens() *tokens {
	return &tokens{ids: map[string]uint32{"": 0}, strs: []string{""}}
}

// intern returns s's id, assigning the next one on first sight.
func (t *tokens) intern(s string) uint32 {
	id, _ := t.internValid(s, nil)
	return id
}

// internValid is intern for a token read from outside the process: a
// token seen before is known good, a new one must pass valid (when
// non-nil) to be assigned an id.
func (t *tokens) internValid(s string, valid func(string) bool) (uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id, true
	}
	if valid != nil && !valid(s) {
		return 0, false
	}
	id := uint32(len(t.strs))
	s = strings.Clone(s) // s may be a slice of a much longer key
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id, true
}

// key formats id, whose tokens t interned, as its persisted string.
func (t *tokens) key(id *ident) string {
	t.mu.Lock()
	cell, sched, wl := t.strs[id.tok.cell], t.strs[id.tok.sched], t.strs[id.tok.wl]
	t.mu.Unlock()
	return string(appendKey(make([]byte, 0, len(cell)+len(sched)+len(wl)+keyFieldsCap), id, cell, sched, wl))
}

// keyFieldsCap reserves room for the key's separators and numeric fields,
// beyond its tokens: training keys take 66–69 bytes there, so 96 covers
// them and typical serving keys without the buffer growing.
const keyFieldsCap = 96

// parseKey is appendKey's inverse: it splits a persisted key from the
// right, interns its tokens in t and rejects any field appendKey could not
// have written — so an accepted key formats back to the same bytes, and a
// malformed one fails loudly instead of loading an entry that never
// matches.
func (t *tokens) parseKey(k string) (ident, error) {
	var id ident
	rest, wl, ok := cutLast(k)
	rest, sched, ok2 := cutLast(rest)
	if !ok || !ok2 {
		return ident{}, errFieldCount
	}
	for i := numFloatFields - 1; i >= 0; i-- {
		var f string
		if rest, f, ok = cutLast(rest); !ok {
			return ident{}, errFieldCount
		}
		if id.floats[i], ok = parseCanonicalFloat(f); !ok {
			return ident{}, fmt.Errorf("field %d (%q) is not a canonical number", numIntFields+i+1, f)
		}
	}
	for i := numIntFields - 1; i >= 0; i-- {
		var f string
		if rest, f, ok = cutLast(rest); !ok {
			return ident{}, errFieldCount
		}
		if id.ints[i], ok = parseCanonicalInt(f); !ok {
			return ident{}, fmt.Errorf("field %d (%q) is not a canonical integer", i+1, f)
		}
	}
	// Id 0 is the empty token, valid as a schedule or workload only.
	if id.tok.cell, ok = t.internValid(rest, validCellToken); !ok || id.tok.cell == 0 {
		return ident{}, fmt.Errorf("model|system token %q is not name#fingerprint|name#fingerprint", rest)
	}
	if id.tok.sched, ok = t.internValid(sched, validScheduleToken); !ok {
		return ident{}, fmt.Errorf("schedule token %q is not a rendered schedule", sched)
	}
	if id.tok.wl, ok = t.internValid(wl, validWorkloadToken); !ok {
		return ident{}, fmt.Errorf("workload token %q is not mix#fingerprint or trace#fingerprint", wl)
	}
	return id, nil
}

var errFieldCount = fmt.Errorf("want %d '|'-separated fields after the model|system token", keyFields)

// cutLast splits s around its last '|'.
func cutLast(s string) (before, after string, found bool) {
	if i := strings.LastIndexByte(s, '|'); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// validScheduleToken reports whether s could be workload.FormatSchedule's
// rendering: digits and ".-:," only.
func validScheduleToken(s string) bool {
	return strings.Trim(s, "0123456789.-:,") == ""
}

// validWorkloadToken reports whether s is a workloadToken: empty, or a
// mix or trace fingerprint.
func validWorkloadToken(s string) bool {
	return s == "" || hasFingerprint(s, "mix") || hasFingerprint(s, "trace")
}

// validCellToken reports whether s is a model token, '|', and a system
// token, each a name ending in #fingerprint. Names may themselves hold '|'
// or '#', so any split that fits is accepted.
func validCellToken(s string) bool {
	if !hasFingerprint(s, "") {
		return false
	}
	for i := strings.IndexByte(s, '|'); i >= 0; {
		if hasFingerprint(s[:i], "") {
			return true
		}
		next := strings.IndexByte(s[i+1:], '|')
		if next < 0 {
			break
		}
		i += 1 + next
	}
	return false
}

// hasFingerprint reports whether s ends in '#' and a fingerprint (1–16
// lowercase hex digits without leading zeros), preceded by exactly prefix
// when prefix is non-empty.
func hasFingerprint(s, prefix string) bool {
	i := strings.LastIndexByte(s, '#')
	if i < 0 || (prefix != "" && s[:i] != prefix) {
		return false
	}
	hex := s[i+1:]
	if len(hex) == 0 || len(hex) > 16 || (hex[0] == '0' && len(hex) > 1) {
		return false
	}
	for j := 0; j < len(hex); j++ {
		if c := hex[j]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// parseCanonicalInt parses s only if it is strconv.AppendInt's rendering
// of an int64: digits after an optional '-', no leading zeros, no "-0".
func parseCanonicalInt(s string) (int64, bool) {
	digits := s
	if len(s) > 0 && s[0] == '-' {
		digits = s[1:]
	}
	if digits == "" || len(digits) > 19 || (digits[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(digits); i++ {
		c := digits[i] - '0'
		if c > 9 {
			return 0, false
		}
		v = v*10 + uint64(c) // 19 digits cannot overflow a uint64
	}
	if len(digits) < len(s) {
		if v > 1<<63 {
			return 0, false
		}
		return -int64(v), true
	}
	if v > math.MaxInt64 {
		return 0, false
	}
	return int64(v), true
}

// parseCanonicalFloat parses s only if it is appendKey's rendering of a
// non-NaN float64, returning its bits. The shortest round-trip form has no
// cheaper test than rendering the parsed value again, on the stack.
func parseCanonicalFloat(s string) (uint64, bool) {
	if s == "0" {
		return 0, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || f == 0 && !math.Signbit(f) {
		return 0, false
	}
	var buf [32]byte
	if string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) != s {
		return 0, false
	}
	return math.Float64bits(f), true
}
