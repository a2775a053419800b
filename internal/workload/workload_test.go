package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestValidateMixSigma(t *testing.T) {
	base := TenantLoad{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}
	ok := base
	ok.PromptSigma, ok.GenSigma = 1.2, 0.8
	if err := ValidateMix([]TenantLoad{ok}); err != nil {
		t.Fatalf("sigma mix rejected: %v", err)
	}
	for _, tc := range []struct {
		mut  func(*TenantLoad)
		want string
	}{
		{func(t *TenantLoad) { t.PromptSigma = -1 }, "prompt sigma"},
		{func(t *TenantLoad) { t.PromptSigma = math.NaN() }, "prompt sigma"},
		{func(t *TenantLoad) { t.GenSigma = math.Inf(1) }, "generation sigma"},
	} {
		bad := base
		tc.mut(&bad)
		err := ValidateMix([]TenantLoad{bad})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want error containing %q, got %v", tc.want, err)
		}
	}
}

func TestParseMixSigmaRoundTrip(t *testing.T) {
	for _, tc := range []string{
		"chat:0.7:200:200,batch:0.3:2000:100",
		"chat:1:200~1.2:200",
		"chat:1:200~1.2:200~0.5",
		"a:1:200~1.5:200:120:sys,b:1:300:100~2:120:sys",
	} {
		mix, err := ParseMix(tc)
		if err != nil {
			t.Fatalf("parse %q: %v", tc, err)
		}
		got := FormatMix(mix)
		if got != tc {
			t.Errorf("format(parse(%q)) = %q", tc, got)
		}
		back, err := ParseMix(got)
		if err != nil || !reflect.DeepEqual(back, mix) {
			t.Errorf("round trip for %q: %v, %v", tc, back, err)
		}
	}
	for _, bad := range []string{
		"chat:1:200~x:200",
		"chat:1:200:200~",
		"chat:1:200~-1:200",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

func TestPromptGenBounds(t *testing.T) {
	flat := TenantLoad{PromptTokens: 100, GenTokens: 50}
	if lo, hi := flat.PromptBounds(); lo != 100 || hi != 100 {
		t.Errorf("flat prompt bounds [%d, %d]", lo, hi)
	}
	if lo, hi := flat.GenBounds(); lo != 50 || hi != 50 {
		t.Errorf("flat gen bounds [%d, %d]", lo, hi)
	}
	heavy := TenantLoad{PromptTokens: 100, GenTokens: 50, PromptSigma: 1, GenSigma: 1, PrefixTokens: 40}
	if lo, hi := heavy.PromptBounds(); lo != 41 || hi != 800 {
		t.Errorf("heavy prompt bounds [%d, %d]", lo, hi)
	}
	if lo, hi := heavy.GenBounds(); lo != 1 || hi != 400 {
		t.Errorf("heavy gen bounds [%d, %d]", lo, hi)
	}
	// MixContext uses the clamp maxima.
	if c := MixContext([]TenantLoad{heavy, flat}); c != 1200 {
		t.Errorf("MixContext = %d, want 1200", c)
	}
}

func TestValidateTraceSessions(t *testing.T) {
	good := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 100, GenTokens: 10, Session: 1, Turn: 1}},
		{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: 210, GenTokens: 10,
			PrefixID: "~s1", PrefixTokens: 110, Session: 1, Turn: 2}},
		{Arrival: 2, Request: Request{Tenant: "a", PromptTokens: 320, GenTokens: 10,
			PrefixID: "~s1", PrefixTokens: 220, Session: 1, Turn: 3}},
	}
	if err := ValidateTrace(good); err != nil {
		t.Fatalf("growing session prefix rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		evs  []TraceEvent
		want string
	}{
		{"negative session", []TraceEvent{
			{Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 1, Session: -1}},
		}, "negative session"},
		{"turn without session", []TraceEvent{
			{Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 1, Turn: 2}},
		}, "together"},
		{"session without turn", []TraceEvent{
			{Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 1, Session: 2}},
		}, "together"},
		{"shrinking session prefix", []TraceEvent{
			{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "~s1", PrefixTokens: 200, Session: 1, Turn: 2}},
			{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "~s1", PrefixTokens: 100, Session: 1, Turn: 3}},
		}, "only grows"},
		{"non-session prefix drift", []TraceEvent{
			{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "sys", PrefixTokens: 100}},
			{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: 300, GenTokens: 1,
				PrefixID: "sys", PrefixTokens: 200}},
		}, "one length"},
	} {
		err := ValidateTrace(tc.evs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestParseTraceV3(t *testing.T) {
	in := "arrival,tenant,prompt,gen,prefix_id,prefix_tokens,session,turn\n" +
		"0,chat,100,10,,0,1,1\n" +
		"1,chat,210,10,~s1,110,1,2\n" +
		"1.5,batch,50,5,,0,,\n"
	got, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "chat", PromptTokens: 100, GenTokens: 10, Session: 1, Turn: 1}},
		{Arrival: 1, Request: Request{Tenant: "chat", PromptTokens: 210, GenTokens: 10,
			PrefixID: "~s1", PrefixTokens: 110, Session: 1, Turn: 2}},
		{Arrival: 1.5, Request: Request{Tenant: "batch", PromptTokens: 50, GenTokens: 5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{
		"0,chat,100,10,,0,x,1\n",
		"0,chat,100,10,,0,1,y\n",
		"0,chat,100,10,,0,1\n", // 7 columns
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("parse %q should fail", bad)
		}
	}
}

// FormatTrace emits the narrowest schema that carries the data: v1 for
// plain traces, v2 with prefixes, v3 with sessions — and each round-trips.
func TestFormatTraceVersions(t *testing.T) {
	v1 := []TraceEvent{{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 2}}}
	v2 := []TraceEvent{{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 2,
		PrefixID: "sys", PrefixTokens: 4}}}
	v3 := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 10, GenTokens: 2, Session: 1, Turn: 1}},
		{Arrival: 3, Request: Request{Tenant: "a", PromptTokens: 22, GenTokens: 2,
			PrefixID: "~s1", PrefixTokens: 12, Session: 1, Turn: 2}},
	}
	for _, tc := range []struct {
		trace []TraceEvent
		cols  int
	}{{v1, 4}, {v2, 6}, {v3, 8}} {
		var b strings.Builder
		if err := FormatTrace(&b, tc.trace); err != nil {
			t.Fatal(err)
		}
		header := strings.SplitN(b.String(), "\n", 2)[0]
		if n := strings.Count(header, ",") + 1; n != tc.cols {
			t.Errorf("header %q has %d columns, want %d", header, n, tc.cols)
		}
		back, err := ParseTrace(strings.NewReader(b.String()))
		if err != nil || !reflect.DeepEqual(back, tc.trace) {
			t.Errorf("round trip: %v, %v", back, err)
		}
	}
}

// TestParseFormatTrace pins the trace round-trip in both pre-session
// schemas: a prefix-free trace renders in the four-column v1 form
// (byte-compatible with pre-prefix consumers), a prefixed one in the
// six-column v2 form, and ParseTrace(FormatTrace(t)) == t for both —
// including a v2 trace whose events only partially carry prefixes, and
// one defaulting the prefix id to the tenant.
func TestParseFormatTrace(t *testing.T) {
	for name, trace := range map[string][]TraceEvent{
		"v1": {
			{Arrival: 0, Request: Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
			{Arrival: 0.625, Request: Request{Tenant: DefaultTenant, PromptTokens: 900, GenTokens: 80}},
		},
		"v2": {
			{Arrival: 0, Request: Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40, PrefixID: "sys", PrefixTokens: 30}},
			{Arrival: 0.5, Request: Request{Tenant: "code", PromptTokens: 200, GenTokens: 50, PrefixID: "sys", PrefixTokens: 30}},
		},
		"v2-partial": {
			{Arrival: 0, Request: Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40, PrefixID: "chat", PrefixTokens: 30}},
			{Arrival: 0.5, Request: Request{Tenant: "raw", PromptTokens: 200, GenTokens: 50}},
		},
	} {
		var b strings.Builder
		if err := FormatTrace(&b, trace); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantCols := 4
		if name != "v1" {
			wantCols = 6
		}
		header := b.String()[:strings.Index(b.String(), "\n")]
		if got := strings.Count(header, ",") + 1; got != wantCols {
			t.Errorf("%s: rendered a %d-column header, want %d (%q)", name, got, wantCols, header)
		}
		back, err := ParseTrace(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s: round-trip parse of %q: %v", name, b.String(), err)
		}
		if !reflect.DeepEqual(back, trace) {
			t.Errorf("%s: rendering %q is ambiguous: %+v parsed back as %+v", name, b.String(), trace, back)
		}
	}
}

// TestParseFormatMix round-trips the CLI mix syntax and rejects garbage.
func TestParseFormatMix(t *testing.T) {
	mix, err := ParseMix("chat:0.7:200:200, batch:0.3:2000:100")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantLoad{
		{Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 200},
		{Tenant: "batch", Share: 0.3, PromptTokens: 2000, GenTokens: 100},
	}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("ParseMix = %+v, want %+v", mix, want)
	}
	formatted := FormatMix(mix)
	back, err := ParseMix(formatted)
	if err != nil || !reflect.DeepEqual(back, mix) {
		t.Fatalf("FormatMix %q does not round-trip: %+v, %v", formatted, back, err)
	}
	for _, bad := range []string{
		"", "chat", "chat:1:200", "chat:1:200:200:9:sys:extra", "chat:x:200:200",
		"chat:1:x:200", "chat:1:200:x", "chat:0:200:200", ":1:200:200",
		"chat:1:200:200,chat:1:100:100", "chat:1:0:200", "chat:1:200:0",
		"chat :1:200:200",      // internal trailing whitespace cannot round-trip
		"chat:1:200:200:x",     // non-numeric prefix length
		"chat:1:200:200:200",   // prefix swallows the whole prompt
		"chat:1:200:200:-1",    // negative prefix length
		"chat:1:200:200:9:s,m", // separator-bearing prefix id
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
	// The prefix forms round-trip: 5-field (id defaults to the tenant),
	// 6-field (explicit shared id), and the degenerate id-with-zero-tokens
	// case FormatMix must keep explicit to survive reparsing.
	for _, src := range []string{
		"chat:1:200:200:9",
		"chat:0.5:200:200:9:sys,batch:0.5:2000:100:9:sys",
	} {
		mix, err := ParseMix(src)
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", src, err)
		}
		back, err := ParseMix(FormatMix(mix))
		if err != nil || !reflect.DeepEqual(back, mix) {
			t.Fatalf("prefix mix %q does not round-trip via %q: %+v, %v", src, FormatMix(mix), back, err)
		}
	}
	mix5, _ := ParseMix("chat:1:200:200:9")
	if mix5[0].PrefixID != "chat" || mix5[0].PrefixTokens != 9 {
		t.Fatalf("5-field form must default PrefixID to the tenant: %+v", mix5[0])
	}
	zeroID := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 200, GenTokens: 200, PrefixID: "sys"}}
	backZero, err := ParseMix(FormatMix(zeroID))
	if err != nil || !reflect.DeepEqual(backZero, zeroID) {
		t.Fatalf("zero-token explicit-id mix does not round-trip via %q: %+v, %v", FormatMix(zeroID), backZero, err)
	}
}

// TestTenantNameCollisionRejected is the regression gate on the workload
// token: a tenant name carrying the mix separators used to render — via
// FormatMix's unescaped joins — identically to a different multi-tenant
// workload, so two distinct workloads shared one sweep CSV mix column and
// memo token. Such names are now rejected at validation, in mixes and
// traces alike.
func TestTenantNameCollisionRejected(t *testing.T) {
	// Pre-fix, these two distinct workloads rendered to the same token.
	impostor := []TenantLoad{
		{Tenant: "a:1:2:3,b", Share: 1, PromptTokens: 2, GenTokens: 3},
	}
	honest := []TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 2, GenTokens: 3},
		{Tenant: "b", Share: 1, PromptTokens: 2, GenTokens: 3},
	}
	if FormatMix(impostor) != FormatMix(honest) {
		t.Fatalf("collision vector lost: %q vs %q — update the test", FormatMix(impostor), FormatMix(honest))
	}
	if err := ValidateMix(impostor); err == nil {
		t.Error("separator-bearing tenant name must be rejected")
	}
	if err := ValidateMix(honest); err != nil {
		t.Errorf("separator-free mix must validate: %v", err)
	}
	// The trace CSV reader can quote a comma-bearing tenant per RFC 4180,
	// so the trace validator must hold the same line.
	if _, err := ParseTrace(strings.NewReader("0,\"a,b\",100,40\n")); err == nil {
		t.Error("quoted comma-bearing trace tenant must be rejected")
	}
}

// TestParseTrace covers the CSV trace reader: header detection, empty
// tenant defaulting, and malformed rows.
func TestParseTrace(t *testing.T) {
	in := "arrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n1.25,chat,120,30\n"
	trace, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
		{Arrival: 0.5, Request: Request{Tenant: DefaultTenant, PromptTokens: 900, GenTokens: 80}},
		{Arrival: 1.25, Request: Request{Tenant: "chat", PromptTokens: 120, GenTokens: 30}},
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("ParseTrace = %+v, want %+v", trace, want)
	}
	// Headerless input parses identically.
	headerless, err := ParseTrace(strings.NewReader("0.0,chat,100,40\n0.5,,900,80\n1.25,chat,120,30\n"))
	if err != nil || !reflect.DeepEqual(headerless, want) {
		t.Fatalf("headerless trace = %+v, %v", headerless, err)
	}
	// A first data row with stray whitespace must parse as data, never be
	// silently swallowed as a misdetected header (regression: the arrival
	// field was the only one not trimmed).
	padded, err := ParseTrace(strings.NewReader("0.0 ,chat,100,40\n0.5,,900,80\n1.25,chat,120,30\n"))
	if err != nil || !reflect.DeepEqual(padded, want) {
		t.Fatalf("whitespace-padded first row = %+v, %v; want %+v", padded, err, want)
	}
	// A first data row whose arrival alone is malformed is an error, not a
	// header — its prompt/gen columns are numeric, a real header's are not.
	if _, err := ParseTrace(strings.NewReader("abc,chat,100,40\n0.5,chat,900,80\n")); err == nil {
		t.Error("malformed first-row arrival should fail loudly, not vanish as a header")
	}
	for _, bad := range []string{
		"",                                   // empty
		"0.0,chat,100\n",                     // missing field
		"0.0,chat,100,40,5\n",                // extra field
		"0.0,chat,x,40\n",                    // bad prompt
		"0.0,chat,100,x\n",                   // bad gen
		"1.0,chat,100,40\n0.5,chat,100,40\n", // unsorted
		"arrival,tenant,prompt\n",            // short header
		"0.0,chat,100,40,sys,x\n",            // bad prefix length
		"0.0,chat,100,40,sys,100\n",          // prefix swallows the prompt
		"0.0,chat,100,40,sys,-3\n",           // negative prefix
		"0.0,chat,100,40,sys,20\n0.5,chat,100,40,sys,30\n", // one id, two lengths
		"0.0,chat,100,40,sys,20\n0.5,chat,100,40\n",        // column count drifts mid-trace
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTrace(%q) should fail", bad)
		}
	}
}

// TestParseTraceBOMAndCRLF is the satellite bugfix regression: a trace
// exported from a Windows-side spreadsheet opens with a UTF-8 BOM and ends
// its rows with CRLF. The BOM used to glue itself onto the "arrival"
// header cell, failing the header detection and the first row's arrival
// parse; both byte sequences must now parse identically to the clean file.
func TestParseTraceBOMAndCRLF(t *testing.T) {
	want, err := ParseTrace(strings.NewReader("arrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"bom":            "\xef\xbb\xbfarrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n",
		"crlf":           "arrival,tenant,prompt,gen\r\n0.0,chat,100,40\r\n0.5,,900,80\r\n",
		"bom+crlf":       "\xef\xbb\xbfarrival,tenant,prompt,gen\r\n0.0,chat,100,40\r\n0.5,,900,80\r\n",
		"bom+headerless": "\xef\xbb\xbf0.0,chat,100,40\n0.5,,900,80\n",
	} {
		got, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %+v, want %+v", name, got, want)
		}
	}
	// A BOM'd v2 trace exercises both new paths at once.
	v2, err := ParseTrace(strings.NewReader(
		"\xef\xbb\xbfarrival,tenant,prompt,gen,prefix_id,prefix_tokens\r\n0,chat,100,40,sys,30\r\n1,code,200,50,sys,30\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) != 2 || v2[0].PrefixID != "sys" || v2[0].PrefixTokens != 30 || v2[1].PrefixID != "sys" {
		t.Fatalf("BOM'd v2 trace parsed as %+v", v2)
	}
}
