package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"optimus"
)

func TestCmdServe(t *testing.T) {
	if err := cmdServe([]string{"-model", "llama2-13b", "-gpus", "2", "-rate", "2", "-requests", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-arrival", "closed", "-clients", "4", "-requests", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-model", "llama2-13b", "-gpus", "2", "-rate", "2", "-requests", "32",
		"-policy", "paged", "-page-tokens", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-policy", "paged", "-no-preempt", "-rate", "1", "-requests", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-model", "llama2-13b", "-gpus", "2", "-policy", "disagg",
		"-prefill-devices", "1", "-decode-devices", "1", "-transfer-gbps", "25",
		"-rate", "2", "-requests", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-policy", "disagg", "-requests", "16", "-rate", "1"}); err != nil {
		t.Fatal(err) // defaults: co-located split, default bandwidth
	}
	if err := cmdServe([]string{"-mix", "chat:0.7:200:200,batch:0.3:800:100", "-rate", "2", "-requests", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-mix", "chat:0.6:150:100,batch:0.4:600:80", "-arrival", "closed", "-requests", "16"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-policy", "lru"},
		{"-page-tokens", "16"},                     // paging knob under reserve
		{"-no-preempt"},                            // paged-only knob under reserve
		{"-policy", "paged", "-page-tokens", "-8"}, // negative block size
		{"-prefill-devices", "1"},                  // disagg-only knob under reserve
		{"-policy", "paged", "-transfer-gbps", "50"},
		{"-policy", "disagg", "-no-preempt"},
		{"-policy", "disagg", "-prefill-devices", "2"}, // pool beyond the 1-GPU TP
		{"-policy", "disagg", "-transfer-gbps", "-1"},
		{"-model", "no-such-model"},
		{"-device", "warp-core"},
		{"-precision", "fp128"},
		{"-arrival", "chaotic"},
		{"-format", "yaml"},
		{"-rate", "0"},
		{"-arrival", "closed", "-clients", "0"},
		{"-arrival", "closed", "-clients", "4", "-rate", "5"},
		{"-arrival", "poisson", "-rate", "1", "-clients", "8"},
		{"-model", "llama2-70b", "-device", "a100", "-intra", "nvlink3", "-gpus", "1"},
		{"-mix", "chat:0.7:200"},                      // malformed mix entry
		{"-mix", "chat:1:200:200", "-prompt", "100"},  // mix excludes -prompt
		{"-mix", "chat:1:200:200", "-gen", "100"},     // mix excludes -gen
		{"-mix", "chat:1:200:200", "-trace", "x.csv"}, // mutually exclusive
		{"-trace", "/does/not/exist.csv"},             // missing trace file
		{"-trace", "x.csv", "-rate", "2"},             // trace fixes arrivals
		{"-trace", "x.csv", "-arrival", "closed"},     // trace fixes arrivals
		{"-trace", "x.csv", "-requests", "8"},         // trace fixes the count
		{"-trace", "x.csv", "-seed", "2"},             // trace has no seed
	} {
		if err := cmdServe(bad); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

// TestCmdServeClosedLoopDefaultsClients is the regression gate on the
// closed-loop CLI hole: `optimus serve -arrival closed` used to die with
// the raw internal error "serve: closed-loop arrivals need positive
// clients, got 0" because the -clients flag defaults to 0. Unset clients
// now default sensibly; an explicit non-positive value gets a flag-level
// error that names -clients.
func TestCmdServeClosedLoopDefaultsClients(t *testing.T) {
	if err := cmdServe([]string{"-arrival", "closed", "-requests", "16"}); err != nil {
		t.Fatalf("closed-loop arrivals with default flags must work: %v", err)
	}
	err := cmdServe([]string{"-arrival", "closed", "-clients", "0", "-requests", "16"})
	if err == nil {
		t.Fatal("explicit -clients 0 should fail")
	}
	if !strings.Contains(err.Error(), "-clients") {
		t.Errorf("error should name the -clients flag, got: %v", err)
	}
	err = cmdServe([]string{"-arrival", "closed", "-clients", "-3", "-requests", "16"})
	if err == nil || !strings.Contains(err.Error(), "-clients") {
		t.Errorf("negative -clients should fail naming the flag, got: %v", err)
	}
}

// TestCmdServeTrace exercises the -trace flag end to end through a real
// trace file in each output format.
func TestCmdServeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	data := "arrival,tenant,prompt,gen\n0,chat,100,40\n0.2,batch,700,60\n0.4,chat,120,30\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		if err := cmdServe([]string{"-trace", path, "-format", format}); err != nil {
			t.Fatalf("-trace %s format %s: %v", path, format, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("5,chat,100,40\n1,chat,100,40\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-trace", bad}); err == nil {
		t.Error("unsorted trace file should fail")
	}
}

// serveResult runs a small simulation for the encoder tests.
func serveResult(t *testing.T) (optimus.ServeSpec, optimus.ServeResult) {
	t.Helper()
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	spec := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
		PromptTokens: 200, GenTokens: 200,
		Arrival: optimus.PoissonArrivals, Rate: 1, Requests: 24, Seed: 1,
	}
	res, err := optimus.Serve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

// serveCSVHeader is the golden per-request CSV schema: per-tenant shape
// columns and the disaggregated KV-transfer columns included.
var serveCSVHeader = []string{"id", "tenant", "prompt", "gen",
	"arrival_s", "admitted_s", "first_token_s", "done_s",
	"queue_s", "ttft_s", "tpot_s", "e2e_s", "preemptions",
	"kv_transfers", "kv_transfer_s"}

func TestWriteServeCSV(t *testing.T) {
	spec, res := serveResult(t)
	var b strings.Builder
	if err := writeServe(&b, spec, res, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Requests+1 {
		t.Fatalf("CSV has %d records, want %d requests + header", len(recs), res.Requests)
	}
	if !slices.Equal(recs[0], serveCSVHeader) {
		t.Errorf("per-request CSV header = %v, want %v", recs[0], serveCSVHeader)
	}
	if recs[1][0] != "0" || recs[1][1] != optimus.DefaultServeTenant {
		t.Errorf("degenerate workload rows should carry the default tenant: %v", recs[1])
	}
}

// mixedServeResult runs a two-tenant simulation for the golden encoder
// tests.
func mixedServeResult(t *testing.T) (optimus.ServeSpec, optimus.ServeResult) {
	t.Helper()
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	spec := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
		Mix: []optimus.ServeTenantLoad{
			{Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 150},
			{Tenant: "batch", Share: 0.3, PromptTokens: 900, GenTokens: 80},
		},
		Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 32, Seed: 1,
	}
	res, err := optimus.Serve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

// TestWriteServeCSVGoldenPerTenant: the per-request CSV of a multi-tenant
// run must reproduce every request's tenant, shape and timeline exactly —
// each rendered field parses back to the in-memory result value.
func TestWriteServeCSVGoldenPerTenant(t *testing.T) {
	spec, res := mixedServeResult(t)
	var b strings.Builder
	if err := writeServe(&b, spec, res, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recs[0], serveCSVHeader) {
		t.Fatalf("header = %v, want %v", recs[0], serveCSVHeader)
	}
	if len(recs) != len(res.PerRequest)+1 {
		t.Fatalf("CSV has %d records, want %d", len(recs), len(res.PerRequest)+1)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	tenants := map[string]bool{}
	for i, m := range res.PerRequest {
		rec := recs[i+1]
		tenants[rec[1]] = true
		want := []string{
			strconv.Itoa(m.ID), m.Tenant,
			strconv.Itoa(m.PromptTokens), strconv.Itoa(m.GenTokens),
			g(m.Arrival), g(m.Admitted), g(m.FirstToken), g(m.Done),
			g(m.Queue), g(m.TTFT), g(m.TPOT), g(m.E2E),
			strconv.Itoa(m.Preemptions),
			strconv.Itoa(m.KVTransfers), g(m.KVTransferTime),
		}
		if !slices.Equal(rec, want) {
			t.Fatalf("row %d = %v, want %v", i, rec, want)
		}
	}
	if !tenants["chat"] || !tenants["batch"] {
		t.Errorf("CSV should carry both tenants, saw %v", tenants)
	}
}

// TestWriteServeJSONGoldenPerTenant: the JSON document must include the
// per-tenant breakdown and round-trip it losslessly.
func TestWriteServeJSONGoldenPerTenant(t *testing.T) {
	spec, res := mixedServeResult(t)
	var b strings.Builder
	if err := writeServe(&b, spec, res, "json"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"PerTenant"`, `"Tenant": "chat"`, `"Tenant": "batch"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s", want)
		}
	}
	var doc optimus.ServeResult
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerTenant) != len(res.PerTenant) {
		t.Fatalf("JSON round trip lost tenants: %d vs %d", len(doc.PerTenant), len(res.PerTenant))
	}
	for i, tm := range doc.PerTenant {
		if tm != res.PerTenant[i] {
			t.Errorf("tenant %d did not round-trip: %+v vs %+v", i, tm, res.PerTenant[i])
		}
	}
}

// disaggServeResult runs a split-pool simulation over a finite link for
// the disagg encoder goldens.
func disaggServeResult(t *testing.T) (optimus.ServeSpec, optimus.ServeResult) {
	t.Helper()
	sys, err := optimus.NewSystem("h100", 2, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	spec := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
		PromptTokens: 200, GenTokens: 200,
		Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 24, Seed: 1,
		Policy:         optimus.DisaggregatedPolicy,
		PrefillDevices: 1, DecodeDevices: 1, TransferGBps: 25,
	}
	res, err := optimus.Serve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res
}

// TestWriteServeCSVGoldenDisagg pins the disaggregated per-request CSV
// columns: every rendered kv_transfers / kv_transfer_s field parses back
// to the in-memory value, migrations are visible, and the column totals
// reconcile with the result's transfer counters.
func TestWriteServeCSVGoldenDisagg(t *testing.T) {
	spec, res := disaggServeResult(t)
	var b strings.Builder
	if err := writeServe(&b, spec, res, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recs[0], serveCSVHeader) {
		t.Fatalf("header = %v, want %v", recs[0], serveCSVHeader)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	transfers := 0
	for i, m := range res.PerRequest {
		rec := recs[i+1]
		if rec[13] != strconv.Itoa(m.KVTransfers) || rec[14] != g(m.KVTransferTime) {
			t.Fatalf("row %d transfer columns = %v/%v, want %d/%g", i, rec[13], rec[14], m.KVTransfers, m.KVTransferTime)
		}
		n, err := strconv.Atoi(rec[13])
		if err != nil {
			t.Fatal(err)
		}
		transfers += n
	}
	if transfers == 0 || transfers != res.KVTransfers {
		t.Errorf("CSV transfers sum to %d, result says %d", transfers, res.KVTransfers)
	}
	if res.TransferTimeTotal <= 0 {
		t.Error("finite link should have charged transfer time")
	}
}

// TestWriteServeJSONGoldenDisagg: the JSON document must carry the
// per-pool geometry and transfer totals and round-trip them losslessly.
func TestWriteServeJSONGoldenDisagg(t *testing.T) {
	spec, res := disaggServeResult(t)
	var b strings.Builder
	if err := writeServe(&b, spec, res, "json"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"Policy": "disagg"`, `"PrefillDevices": 1`, `"DecodeDevices": 1`,
		`"PrefillPagesTotal"`, `"DecodePagesTotal"`, `"PeakPrefillPages"`, `"PeakDecodePages"`,
		`"KVTransfers"`, `"TransferTimeTotal"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s", want)
		}
	}
	var doc optimus.ServeResult
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.KVTransfers != res.KVTransfers || doc.TransferTimeTotal != res.TransferTimeTotal ||
		doc.PeakPrefillPages != res.PeakPrefillPages || doc.PeakDecodePages != res.PeakDecodePages ||
		doc.PrefillPagesTotal != res.PrefillPagesTotal || doc.DecodePagesTotal != res.DecodePagesTotal {
		t.Errorf("disagg fields did not round-trip: %+v vs %+v", doc, res)
	}
	// The text renderer's pool summary must name both pools.
	var txt strings.Builder
	if err := writeServe(&txt, spec, res, "text"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pools", "kv-transfer", "paging"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing the %q line:\n%s", want, txt.String())
		}
	}
}

func TestWriteServeJSON(t *testing.T) {
	spec, res := serveResult(t)
	var b strings.Builder
	if err := writeServe(&b, spec, res, "json"); err != nil {
		t.Fatal(err)
	}
	var doc optimus.ServeResult
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Requests != res.Requests || len(doc.PerRequest) != len(res.PerRequest) {
		t.Errorf("JSON round trip lost requests: %d/%d", doc.Requests, len(doc.PerRequest))
	}
	if doc.E2E.P95 != res.E2E.P95 {
		t.Errorf("JSON round trip changed p95 E2E: %v vs %v", doc.E2E.P95, res.E2E.P95)
	}
	if !strings.Contains(b.String(), `"Policy": "reserve-full"`) || doc.Policy != res.Policy {
		t.Error("JSON should render the admission policy by name and round-trip it")
	}
}
