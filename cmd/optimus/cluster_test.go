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
	"optimus/internal/cluster"
)

func TestCmdCluster(t *testing.T) {
	if err := cmdCluster([]string{"-requests", "32", "-rate", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCluster([]string{"-replicas", "3", "-routing", "least-queue",
		"-requests", "24", "-rate", "3", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCluster([]string{"-replicas", "2", "-routing", "least-kv",
		"-policy", "paged", "-page-tokens", "32", "-requests", "24", "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCluster([]string{"-replicas", "2", "-routing", "tenant-affinity",
		"-mix", "chat:0.6:150:100,batch:0.4:600:80", "-requests", "24"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-replicas", "0"},
		{"-replicas", "-2"},
		{"-routing", "random"},
		{"-policy", "lru"},
		{"-page-tokens", "16"},    // paging knob under reserve
		{"-no-preempt"},           // paged-only knob under reserve
		{"-prefill-devices", "1"}, // disagg-only knob under reserve
		{"-transfer-gbps", "50"},  // disagg-only knob under reserve
		{"-policy", "disagg", "-no-preempt"},
		{"-model", "no-such-model"},
		{"-device", "warp-core"},
		{"-precision", "fp128"},
		{"-format", "yaml"},
		{"-rate", "0"},
		{"-mix", "chat:0.7:200"},                      // malformed mix entry
		{"-mix", "chat:1:200:200", "-prompt", "100"},  // mix excludes -prompt
		{"-mix", "chat:1:200:200", "-trace", "x.csv"}, // mutually exclusive
		{"-trace", "/does/not/exist.csv"},
		{"-trace", "x.csv", "-rate", "2"},                         // trace fixes arrivals
		{"-trace", "x.csv", "-seed", "2"},                         // trace has no seed
		{"-rate", "2", "-slo-e2e-p95", "5"},                       // knee mode owns the rate
		{"-trace", "x.csv", "-slo-e2e-p95", "5"},                  // knee mode needs Poisson
		{"-min-rate", "1"},                                        // bracket without -slo-e2e-p95
		{"-max-rate", "4"},                                        // bracket without -slo-e2e-p95
		{"-slo-e2e-p95", "5", "-min-rate", "4", "-max-rate", "2"}, // inverted bracket
		{"-slo-e2e-p95", "-1"},                                    // non-positive SLO
	} {
		if err := cmdCluster(bad); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

// TestCmdClusterKnee drives the saturation analyzer end to end through
// the CLI in every output format.
func TestCmdClusterKnee(t *testing.T) {
	args := []string{"-replicas", "2", "-max-batch", "4", "-requests", "32",
		"-slo-e2e-p95", "12", "-min-rate", "0.5", "-max-rate", "6"}
	for _, format := range []string{"text", "csv", "json"} {
		if err := cmdCluster(append(args, "-format", format)); err != nil {
			t.Fatalf("knee mode format %s: %v", format, err)
		}
	}
	if err := cmdCluster(append(args, "-knee-probes", "3")); err != nil {
		t.Fatalf("starved probe budget: %v", err)
	}
}

// TestCmdClusterTrace exercises the -trace flag end to end.
func TestCmdClusterTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	data := "arrival,tenant,prompt,gen\n0,chat,100,40\n0.2,batch,700,60\n0.4,chat,120,30\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "json"} {
		if err := cmdCluster([]string{"-replicas", "2", "-trace", path, "-format", format}); err != nil {
			t.Fatalf("-trace %s format %s: %v", path, format, err)
		}
	}
}

// clusterResult runs a small two-replica fleet for the encoder tests,
// returning the single-replica spec it was split from alongside it.
func clusterResult(t *testing.T) (optimus.ServeSpec, optimus.ClusterSpec, optimus.ClusterResult) {
	t.Helper()
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	replica := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
		PromptTokens: 200, GenTokens: 150,
		Rate: 2, Requests: 24, Seed: 1,
	}
	spec := cluster.FleetOf(replica, 2, optimus.RoundRobinRouting)
	res, err := optimus.ServeCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	return replica, spec, res
}

// clusterCSVHeader is the golden per-request CSV schema: the serve columns
// plus the routed replica index.
var clusterCSVHeader = []string{"id", "replica", "tenant", "prompt", "gen",
	"arrival_s", "admitted_s", "first_token_s", "done_s",
	"queue_s", "ttft_s", "tpot_s", "e2e_s", "preemptions",
	"kv_transfers", "kv_transfer_s"}

// TestWriteClusterCSVGolden: every rendered per-request field must parse
// back to the in-memory fleet result, including the replica assignment.
func TestWriteClusterCSVGolden(t *testing.T) {
	replica, _, res := clusterResult(t)
	var b strings.Builder
	if err := writeCluster(&b, replica, res, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recs[0], clusterCSVHeader) {
		t.Fatalf("header = %v, want %v", recs[0], clusterCSVHeader)
	}
	if len(recs) != len(res.PerRequest)+1 {
		t.Fatalf("CSV has %d records, want %d", len(recs), len(res.PerRequest)+1)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	replicas := map[string]bool{}
	for i, m := range res.PerRequest {
		rec := recs[i+1]
		replicas[rec[1]] = true
		want := []string{
			strconv.Itoa(m.ID), strconv.Itoa(m.Replica), m.Tenant,
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
	if !replicas["0"] || !replicas["1"] {
		t.Errorf("round-robin CSV should carry both replicas, saw %v", replicas)
	}
}

// TestWriteClusterTextGolden: the text rendering must carry the fleet
// header, the SLO table and one row per replica.
func TestWriteClusterTextGolden(t *testing.T) {
	replica, _, res := clusterResult(t)
	var b strings.Builder
	if err := writeCluster(&b, replica, res, "text"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"2 replicas", "round-robin routing", "ttft", "tpot", "e2e", "queue", "replica",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteClusterJSONRoundTrip: the JSON document must be a
// ClusterResult that round-trips the fleet percentiles and per-replica
// shares losslessly.
func TestWriteClusterJSONRoundTrip(t *testing.T) {
	replica, _, res := clusterResult(t)
	var b strings.Builder
	if err := writeCluster(&b, replica, res, "json"); err != nil {
		t.Fatal(err)
	}
	var doc optimus.ClusterResult
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Replicas != res.Replicas || doc.Routing != res.Routing || doc.Requests != res.Requests {
		t.Errorf("fleet shape did not round-trip: %+v vs %+v", doc, res)
	}
	if doc.E2E != res.E2E || doc.TTFT != res.TTFT {
		t.Errorf("fleet percentiles did not round-trip")
	}
	if len(doc.PerReplica) != len(res.PerReplica) {
		t.Fatalf("per-replica shares lost: %d vs %d", len(doc.PerReplica), len(res.PerReplica))
	}
	for i, rr := range doc.PerReplica {
		if rr.Assigned != res.PerReplica[i].Assigned {
			t.Errorf("replica %d assignment did not round-trip", i)
		}
	}
}

// kneeResult bisects a small constrained fleet for the encoder tests.
func kneeResult(t *testing.T) (optimus.ClusterSpec, optimus.ClusterKnee) {
	t.Helper()
	_, spec, _ := clusterResult(t)
	spec.Replicas[0].Spec.MaxBatch = 4
	spec.Rate = 0
	spec.Requests = 32
	knee, err := optimus.FindClusterKnee(optimus.ClusterKneeSpec{
		Cluster: spec, SLOE2EP95: 8, MinRate: 0.5, MaxRate: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec, knee
}

// kneeCSVHeader is the golden probe-transcript CSV schema.
var kneeCSVHeader = []string{"probe", "rate_per_sec", "p95_e2e_s", "meets_slo"}

// TestWriteKneeGolden: the probe transcript must render one CSV row per
// probe with fields that parse back to the bisection's values, and the
// JSON document must round-trip the knee.
func TestWriteKneeGolden(t *testing.T) {
	spec, knee := kneeResult(t)
	var b strings.Builder
	if err := writeKnee(&b, spec, knee, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(recs[0], kneeCSVHeader) {
		t.Fatalf("header = %v, want %v", recs[0], kneeCSVHeader)
	}
	if len(recs) != len(knee.Probes)+1 {
		t.Fatalf("CSV has %d records, want %d probes + header", len(recs), len(knee.Probes))
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, pr := range knee.Probes {
		want := []string{strconv.Itoa(i), g(pr.Rate), g(pr.P95E2E), strconv.FormatBool(pr.OK)}
		if !slices.Equal(recs[i+1], want) {
			t.Fatalf("probe row %d = %v, want %v", i, recs[i+1], want)
		}
	}

	var j strings.Builder
	if err := writeKnee(&j, spec, knee, "json"); err != nil {
		t.Fatal(err)
	}
	var doc optimus.ClusterKnee
	if err := json.Unmarshal([]byte(j.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Rate != knee.Rate || doc.Saturated != knee.Saturated || len(doc.Probes) != len(knee.Probes) {
		t.Errorf("knee did not round-trip: %+v vs %+v", doc, knee)
	}

	var txt strings.Builder
	if err := writeKnee(&txt, spec, knee, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "saturation knee") {
		t.Errorf("text knee output missing header:\n%s", txt.String())
	}
	if !knee.Converged {
		t.Fatalf("the default probe budget must converge: %+v", knee)
	}
	if strings.Contains(txt.String(), "LOOSE") {
		t.Errorf("converged knee text warns LOOSE:\n%s", txt.String())
	}
	if doc.Converged != knee.Converged || doc.BracketWidth != knee.BracketWidth {
		t.Errorf("convergence fields did not round-trip: %+v vs %+v", doc, knee)
	}
}

// TestWriteKneeLoose: a starved probe budget must be visible in the text
// output — the satellite bugfix's CLI surface (-knee-probes).
func TestWriteKneeLoose(t *testing.T) {
	_, spec, _ := clusterResult(t)
	spec.Replicas[0].Spec.MaxBatch = 4
	spec.Rate = 0
	spec.Requests = 64
	knee, err := optimus.FindClusterKnee(optimus.ClusterKneeSpec{
		Cluster: spec, SLOE2EP95: 8, MinRate: 0.5, MaxRate: 16,
		Tolerance: 0.01, MaxProbes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !knee.Saturated {
		t.Fatalf("the bracket must saturate: %+v", knee)
	}
	if knee.Converged {
		t.Fatalf("3 probes cannot reach a 1%% bracket on [0.5, 16]: %+v", knee)
	}
	var txt strings.Builder
	if err := writeKnee(&txt, spec, knee, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "LOOSE") {
		t.Errorf("starved knee text must warn LOOSE:\n%s", txt.String())
	}
}
