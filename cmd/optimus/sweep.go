package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"optimus"
	"optimus/internal/tech"
	"optimus/internal/units"
)

// cmdSweep evaluates a cross-product experiment grid with the concurrent
// plan-sweep engine (§5.1 scaled out: models × systems × precisions ×
// batches × mappings × schedules × recompute regimes).
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workload := fs.String("workload", "train", "workload (train|infer|serve)")
	models := fs.String("models", "gpt-175b", "comma-separated model presets")
	devices := fs.String("devices", "a100", "comma-separated device presets")
	gpus := fs.String("gpus", "64", "comma-separated device counts")
	intra := fs.String("intra", "nvlink3", "intra-node fabric")
	inter := fs.String("inter", "hdr", "inter-node fabric")
	batches := fs.String("batches", "", "comma-separated global batch sizes (default 64; infer: 1)")
	seqs := fs.String("seqs", "", "comma-separated sequence lengths (default 2048; infer: prompt 200)")
	gens := fs.String("gen", "", "comma-separated generated-token counts (infer/serve, default 200)")
	rates := fs.String("rates", "", "comma-separated Poisson arrival rates in req/s (serve only, default 1)")
	schedules := fs.String("schedules", "", "semicolon-separated piecewise arrival-rate schedules, each start-end:rate[,...] in seconds and req/s (serve only; replaces -rates)")
	turnsFlag := fs.String("turns", "", "comma-separated session-cohort turn counts to compare (serve only; entries above 1 need a paged entry in -policies)")
	think := fs.Float64("think", 0, "think time between a session's turns in seconds (serve only; needs a -turns entry above 1)")
	caps := fs.String("batch-caps", "", "comma-separated iteration batch caps (serve only, default 0 = derive)")
	mixes := fs.String("mix", "", "semicolon-separated multi-tenant mixes, each tenant:share:prompt[~sigma]:gen[~sigma][,...] (serve only; replaces -seqs/-gen)")
	trace := fs.String("trace", "", "CSV trace file to replay per candidate (serve only; replaces -rates/-seqs/-gen)")
	serveReqs := fs.Int("serve-requests", 0, "simulated requests per serving candidate (serve only, default 128)")
	serveSeed := fs.Int64("serve-seed", 0, "arrival seed per serving candidate (serve only, default 1)")
	policies := fs.String("policies", "", "comma-separated KV admission policies to compare (reserve|paged|disagg; serve only, default reserve)")
	pageTokens := fs.Int("page-tokens", 0, "paged/disagg KV block size in tokens (serve only, default 16)")
	prefillDevices := fs.String("prefill-devices", "", "comma-separated disagg prefill-pool device counts, zipped with -decode-devices into pool-split axis values (serve -policies disagg only)")
	decodeDevices := fs.String("decode-devices", "", "comma-separated disagg decode-pool device counts, zipped with -prefill-devices (serve -policies disagg only)")
	transferGBps := fs.Float64("transfer-gbps", 0, "disagg KV-transfer interconnect bandwidth in GB/s (serve only, 0 = default 50, Inf = free)")
	prefixesFlag := fs.String("prefix", "", "comma-separated shared prompt-prefix token counts to compare (serve -policies paged only; replaces per-request prefixes)")
	hostKVGBs := fs.String("kv-host-gb", "", "comma-separated host KV tier capacities in GB to compare (serve -policies paged only; 0 = recompute-only)")
	swapGBps := fs.Float64("swap-gbps", 0, "GPU-host KV swap-link bandwidth in GB/s (serve only, 0 = default 32; needs -kv-host-gb)")
	replicasFlag := fs.String("replicas", "", "comma-separated fleet sizes to compare (serve only; 0 = plain single instance)")
	routings := fs.String("routings", "", "comma-separated cluster routing policies to compare (round-robin|least-queue|least-kv|tenant-affinity; serve only, needs a positive -replicas entry)")
	precs := fs.String("precisions", "", "comma-separated GEMM precisions (default bf16; infer fp16)")
	micros := fs.String("microbatches", "", "comma-separated microbatch sizes (train only, default 1,2,4)")
	recs := fs.String("recomputes", "", "comma-separated recompute regimes (train only, default none,selective,full)")
	maxTP := fs.Int("max-tp", 0, "tensor-parallel cap (train only, 0 = node size)")
	overflow := fs.Bool("allow-overflow", false, "also rank memory-overflowing candidates")
	topK := fs.Int("top", 20, "rows to keep")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	serial := fs.Bool("serial", false, "use the serial reference path instead of the engine")
	cache := fs.String("cache", "", "persist the memoization cache to this JSON file (load on start, save on exit)")
	format := fs.String("format", "text", "output format (text|csv|json)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	switch *format {
	case "text", "csv", "json":
	default:
		// Checked before the sweep runs: a typo must not cost a full
		// grid evaluation.
		return fmt.Errorf("unknown format %q (text|csv|json)", *format)
	}
	if *topK < 0 {
		return fmt.Errorf("-top %d is negative (0 = default 10)", *topK)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d is negative (0 = GOMAXPROCS)", *workers)
	}

	spec := optimus.SweepSpec{
		Constraints: optimus.PlanConstraints{
			MaxTP: *maxTP, AllowOverflow: *overflow, TopK: *topK,
		},
		Workers: *workers,
	}
	switch *workload {
	case "train", "training":
		spec.Workload = optimus.TrainingSweep
	case "infer", "inference":
		spec.Workload = optimus.InferenceSweep
	case "serve", "serving":
		spec.Workload = optimus.ServingSweep
	default:
		return fmt.Errorf("unknown workload %q (train|infer|serve)", *workload)
	}
	if spec.Workload != optimus.TrainingSweep {
		// Inference and serving maps are fixed to TP = device count
		// (§1.3), so the training-only axes would be silently ignored —
		// reject instead.
		if *maxTP != 0 || *micros != "" || *recs != "" {
			return fmt.Errorf("-max-tp, -microbatches and -recomputes apply to training sweeps only")
		}
	}
	if spec.Workload != optimus.ServingSweep {
		if *rates != "" || *caps != "" || *serveReqs != 0 || *serveSeed != 0 {
			return fmt.Errorf("-rates, -batch-caps, -serve-requests and -serve-seed apply to serving sweeps only")
		}
		if *schedules != "" || *turnsFlag != "" || *think != 0 {
			return fmt.Errorf("-schedules, -turns and -think apply to serving sweeps only")
		}
		if *policies != "" || *pageTokens != 0 {
			return fmt.Errorf("-policies and -page-tokens apply to serving sweeps only")
		}
		if *prefillDevices != "" || *decodeDevices != "" || *transferGBps != 0 {
			return fmt.Errorf("-prefill-devices, -decode-devices and -transfer-gbps apply to serving sweeps only")
		}
		if *prefixesFlag != "" || *hostKVGBs != "" || *swapGBps != 0 {
			return fmt.Errorf("-prefix, -kv-host-gb and -swap-gbps apply to serving sweeps only")
		}
		if *mixes != "" || *trace != "" {
			return fmt.Errorf("-mix and -trace apply to serving sweeps only")
		}
		if *replicasFlag != "" || *routings != "" {
			return fmt.Errorf("-replicas and -routings apply to serving sweeps only")
		}
	} else if *batches != "" {
		return fmt.Errorf("-batches does not apply to serving sweeps (use -batch-caps)")
	}
	// Reject flag combinations no candidate on the grid would read, naming
	// the flags — the same parity surface as optimus serve, ahead of the
	// library's field-named validation.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *mixes != "" && *trace != "" {
		return fmt.Errorf("-mix and -trace are mutually exclusive")
	}
	if *trace != "" {
		for _, f := range []string{"rates", "seqs", "gen", "prefix", "serve-requests", "serve-seed", "schedules", "turns", "think"} {
			if set[f] {
				return fmt.Errorf("-%s does not apply when replaying a trace (-trace fixes arrivals and request shapes)", f)
			}
		}
	}
	if set["schedules"] && set["rates"] {
		return fmt.Errorf("-schedules and -rates both fix the arrival rate (set exactly one axis)")
	}
	if *mixes != "" && (set["seqs"] || set["gen"]) {
		return fmt.Errorf("-seqs and -gen describe the single-tenant workload (use the per-tenant lengths in -mix)")
	}
	if *mixes != "" && set["prefix"] {
		return fmt.Errorf("-prefix describes the single-tenant workload (use the per-tenant prefix field in -mix)")
	}
	for _, m := range strings.Split(*mixes, ";") {
		if m = strings.TrimSpace(m); m == "" {
			continue
		}
		mix, merr := optimus.ParseServeMix(m)
		if merr != nil {
			return merr
		}
		spec.Mixes = append(spec.Mixes, mix)
	}
	if *trace != "" {
		tr, terr := loadTrace(*trace)
		if terr != nil {
			return terr
		}
		spec.Trace = tr
	}
	for _, name := range splitList(*policies) {
		pol, polErr := optimus.ParseServePolicy(name)
		if polErr != nil {
			return polErr
		}
		spec.Policies = append(spec.Policies, pol)
	}
	// Policy knobs only some -policies entries read: reject the combos
	// where every listed policy would silently ignore the knob.
	hasPaged, hasStrictPaged, hasDisagg := false, false, false
	for _, pol := range spec.Policies {
		hasPaged = hasPaged || pol == optimus.PagedPolicy || pol == optimus.DisaggregatedPolicy
		hasStrictPaged = hasStrictPaged || pol == optimus.PagedPolicy
		hasDisagg = hasDisagg || pol == optimus.DisaggregatedPolicy
	}
	if set["page-tokens"] && !hasPaged {
		return fmt.Errorf("-page-tokens needs a paged or disagg entry in -policies (every listed policy ignores it)")
	}
	if !hasDisagg {
		for _, f := range []string{"prefill-devices", "decode-devices", "transfer-gbps"} {
			if set[f] {
				return fmt.Errorf("-%s needs a disagg entry in -policies (every listed policy ignores it)", f)
			}
		}
	}
	// The prefix cache and host KV tier live on the paged policy's
	// preemption machinery — disagg preempts against its decode pool but
	// carries neither.
	if !hasStrictPaged {
		for _, f := range []string{"prefix", "kv-host-gb", "swap-gbps"} {
			if set[f] {
				return fmt.Errorf("-%s needs a paged entry in -policies (every listed policy ignores it)", f)
			}
		}
	}
	if set["swap-gbps"] && !set["kv-host-gb"] {
		return fmt.Errorf("-swap-gbps prices the host KV tier's swap link (set -kv-host-gb)")
	}
	spec.ServePageTokens = *pageTokens
	// The pool-split axis zips -prefill-devices with -decode-devices:
	// entry i of each list forms one split, so "2,4" + "6,4" compares a
	// 2+6 split against a 4+4 one.
	prefills, err := splitInts(*prefillDevices)
	if err != nil {
		return fmt.Errorf("-prefill-devices: %w", err)
	}
	decodes, err := splitInts(*decodeDevices)
	if err != nil {
		return fmt.Errorf("-decode-devices: %w", err)
	}
	if len(prefills) != len(decodes) {
		return fmt.Errorf("-prefill-devices and -decode-devices must zip: got %d vs %d entries", len(prefills), len(decodes))
	}
	for i := range prefills {
		spec.PoolSplits = append(spec.PoolSplits, optimus.SweepPoolSplit{Prefill: prefills[i], Decode: decodes[i]})
	}
	spec.TransferGBps = *transferGBps
	if spec.PrefixTokens, err = splitInts(*prefixesFlag); err != nil {
		return fmt.Errorf("-prefix: %w", err)
	}
	hostGBs, err := splitFloats(*hostKVGBs)
	if err != nil {
		return fmt.Errorf("-kv-host-gb: %w", err)
	}
	for _, gb := range hostGBs {
		spec.HostKVBytes = append(spec.HostKVBytes, gb*1e9)
	}
	spec.SwapGBps = *swapGBps
	if spec.Replicas, err = splitInts(*replicasFlag); err != nil {
		return fmt.Errorf("-replicas: %w", err)
	}
	for _, name := range splitList(*routings) {
		rt, rtErr := optimus.ParseClusterRouting(name)
		if rtErr != nil {
			return rtErr
		}
		spec.Routings = append(spec.Routings, rt)
	}
	if len(spec.Routings) > 0 {
		fleet := false
		for _, r := range spec.Replicas {
			fleet = fleet || r > 0
		}
		if !fleet {
			return fmt.Errorf("-routings needs a positive fleet size in -replicas (a fleet of one routes identically under every policy)")
		}
	}

	for _, name := range splitList(*models) {
		cfg, cfgErr := optimus.ModelByName(name)
		if cfgErr != nil {
			return cfgErr
		}
		spec.Models = append(spec.Models, cfg)
	}
	counts, err := splitInts(*gpus)
	if err != nil {
		return fmt.Errorf("-gpus: %w", err)
	}
	for _, dev := range splitList(*devices) {
		for _, n := range counts {
			sys, sysErr := optimus.NewSystem(dev, n, *intra, *inter)
			if sysErr != nil {
				return sysErr
			}
			spec.Systems = append(spec.Systems, sys)
		}
	}
	if spec.GlobalBatches, err = splitInts(*batches); err != nil {
		return fmt.Errorf("-batches: %w", err)
	}
	if spec.Seqs, err = splitInts(*seqs); err != nil {
		return fmt.Errorf("-seqs: %w", err)
	}
	if spec.GenTokens, err = splitInts(*gens); err != nil {
		return fmt.Errorf("-gen: %w", err)
	}
	if spec.Rates, err = splitFloats(*rates); err != nil {
		return fmt.Errorf("-rates: %w", err)
	}
	// Schedules are semicolon-separated at the flag level because each
	// schedule's segments are themselves comma-separated.
	for _, sch := range strings.Split(*schedules, ";") {
		if sch = strings.TrimSpace(sch); sch == "" {
			continue
		}
		parsed, schErr := optimus.ParseServeSchedule(sch)
		if schErr != nil {
			return schErr
		}
		spec.Schedules = append(spec.Schedules, parsed)
	}
	if spec.Turns, err = splitInts(*turnsFlag); err != nil {
		return fmt.Errorf("-turns: %w", err)
	}
	spec.Think = *think
	if spec.BatchCaps, err = splitInts(*caps); err != nil {
		return fmt.Errorf("-batch-caps: %w", err)
	}
	spec.ServeRequests = *serveReqs
	spec.ServeSeed = *serveSeed
	if spec.Constraints.Microbatches, err = splitInts(*micros); err != nil {
		return fmt.Errorf("-microbatches: %w", err)
	}
	for _, p := range splitList(*precs) {
		prec, precErr := tech.ParsePrecision(p)
		if precErr != nil {
			return precErr
		}
		spec.Precisions = append(spec.Precisions, prec)
	}
	for _, r := range splitList(*recs) {
		rec, recErr := parseRecompute(r)
		if recErr != nil {
			return recErr
		}
		spec.Constraints.Recomputes = append(spec.Constraints.Recomputes, rec)
	}

	var res optimus.SweepResult
	if *serial {
		if *cache != "" {
			return fmt.Errorf("-cache needs the engine path (drop -serial)")
		}
		res, err = optimus.SweepSerial(spec)
	} else {
		eng := optimus.NewSweepEngine(*workers)
		if *cache != "" {
			if err := eng.LoadCacheFile(*cache); err != nil {
				return err
			}
		}
		res, err = eng.Run(context.Background(), spec)
		if err == nil && *cache != "" {
			err = eng.SaveCacheFile(*cache)
		}
	}
	if err != nil {
		return err
	}
	return writeSweep(os.Stdout, res, spec.Workload, *format)
}

// splitFloats parses a comma-separated float flag.
func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList parses a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// splitInts parses a comma-separated integer flag.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// sweepRecord flattens one ranked row for the CSV and JSON encoders.
type sweepRecord struct {
	Rank       int     `json:"rank"`
	Model      string  `json:"model"`
	System     string  `json:"system"`
	Mapping    string  `json:"mapping"`
	Microbatch int     `json:"microbatch"`
	Recompute  string  `json:"recompute"`
	Precision  string  `json:"precision"`
	Batch      int     `json:"batch"`
	Seq        int     `json:"seq"`
	Gen        int     `json:"gen_tokens,omitempty"`
	Seconds    float64 `json:"seconds"`
	MFU        float64 `json:"mfu"`
	MemoryGB   float64 `json:"memory_gb"`
	Fits       bool    `json:"fits"`

	// Serving-only SLO columns (zero elsewhere).
	Rate         float64 `json:"rate_per_sec,omitempty"`
	TTFTP95      float64 `json:"ttft_p95_s,omitempty"`
	TPOTP95      float64 `json:"tpot_p95_s,omitempty"`
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	// Serving-only admission-pressure columns (zero elsewhere).
	Preemptions      int     `json:"preemptions,omitempty"`
	RecomputedTokens int     `json:"recomputed_tokens,omitempty"`
	KVUtil           float64 `json:"kv_util,omitempty"`
	// Serving-only disaggregated-pool columns (zero elsewhere): the pool
	// split and the KV migrations it cost. The transfer bandwidth itself
	// rides in the policy token (it may be +Inf, which JSON cannot carry).
	PrefillDevices int     `json:"prefill_devices,omitempty"`
	DecodeDevices  int     `json:"decode_devices,omitempty"`
	KVTransfers    int     `json:"kv_transfers,omitempty"`
	TransferTime   float64 `json:"transfer_time_s,omitempty"`
	// Serving-only prefix-cache and host-KV-tier columns (zero elsewhere):
	// the candidate's shared prefix length and host tier capacity, and the
	// cache hits, saved prefill tokens and swap traffic they produced. The
	// swap bandwidth rides in the policy token (it may be +Inf, which JSON
	// cannot carry).
	PrefixTokens      int     `json:"prefix_tokens,omitempty"`
	PrefixHits        int     `json:"prefix_hits,omitempty"`
	PrefixSavedTokens int     `json:"prefix_saved_tokens,omitempty"`
	HostKVGB          float64 `json:"host_kv_gb,omitempty"`
	KVSwapOuts        int     `json:"kv_swap_outs,omitempty"`
	KVSwapIns         int     `json:"kv_swap_ins,omitempty"`
	SwapTime          float64 `json:"swap_time_s,omitempty"`
	// Serving-only fleet columns (zero for single-instance candidates):
	// the replica count and routing policy of a cluster candidate.
	Replicas int    `json:"replicas,omitempty"`
	Routing  string `json:"routing,omitempty"`
	// Serving-only workload-shape columns: the candidate's mix (or trace
	// label) and its per-tenant SLO breakdown.
	Mix       string                   `json:"mix,omitempty"`
	PerTenant []optimus.SweepTenantSLO `json:"per_tenant,omitempty"`
}

func sweepRecords(res optimus.SweepResult) []sweepRecord {
	out := make([]sweepRecord, len(res.Rows))
	for i, row := range res.Rows {
		mem := row.Metrics.Memory.Total()
		if row.Point.Workload != optimus.TrainingSweep {
			mem = row.Metrics.Footprint.Total()
		}
		rec := sweepRecord{
			Rank:       i + 1,
			Model:      row.Point.Model.Name,
			System:     row.Point.System.String(),
			Mapping:    row.Point.Map.String(),
			Microbatch: row.Point.Map.Microbatch,
			Recompute:  row.Point.Recompute.String(),
			Precision:  row.Point.Precision.String(),
			Batch:      row.Point.GlobalBatch,
			Seq:        row.Point.Seq,
			Gen:        row.Point.GenTokens,
			Seconds:    row.Metrics.Time,
			MFU:        row.Metrics.MFU,
			MemoryGB:   mem / 1e9,
			Fits:       row.Metrics.Fits,
		}
		if row.Point.Workload == optimus.ServingSweep {
			// The serving "mapping" token carries the whole admission
			// policy; its commas are why the CSV writer must quote.
			rec.Mapping = servingMappingToken(row.Point)
			rec.Rate = row.Point.Rate
			rec.TTFTP95 = row.Metrics.TTFTP95
			rec.TPOTP95 = row.Metrics.TPOTP95
			rec.TokensPerSec = row.Metrics.TokensPerSec
			rec.Preemptions = row.Metrics.Preemptions
			rec.RecomputedTokens = row.Metrics.RecomputedTokens
			rec.KVUtil = row.Metrics.KVUtil
			rec.PrefillDevices = row.Point.PrefillDevices
			rec.DecodeDevices = row.Point.DecodeDevices
			rec.KVTransfers = row.Metrics.KVTransfers
			rec.TransferTime = row.Metrics.TransferTime
			rec.PrefixTokens = row.Point.PrefixTokens
			rec.PrefixHits = row.Metrics.PrefixHits
			rec.PrefixSavedTokens = row.Metrics.PrefixSavedTokens
			rec.HostKVGB = row.Point.HostKVBytes / 1e9
			rec.KVSwapOuts = row.Metrics.KVSwapOuts
			rec.KVSwapIns = row.Metrics.KVSwapIns
			rec.SwapTime = row.Metrics.SwapTime
			if row.Point.Replicas > 0 {
				rec.Replicas = row.Point.Replicas
				rec.Routing = row.Point.Routing.String()
			}
			rec.Mix = servingWorkloadLabel(row.Point)
			rec.PerTenant = row.Metrics.PerTenant
		}
		out[i] = rec
	}
	return out
}

// servingMappingToken renders a serving candidate's policy — TP degree,
// admission policy (with the paged block size, and the pool split and
// transfer bandwidth for disaggregated candidates), arrival rate and
// batch cap — as one comma-separated token.
func servingMappingToken(p optimus.SweepPoint) string {
	cap := "auto"
	if p.BatchCap > 0 {
		cap = strconv.Itoa(p.BatchCap)
	}
	pol := p.Policy.String()
	switch p.Policy {
	case optimus.PagedPolicy:
		pol = fmt.Sprintf("paged/%d", p.PageTokens)
		if p.PrefixTokens > 0 {
			pol += fmt.Sprintf(",pfx=%d", p.PrefixTokens)
		}
		if p.HostKVBytes > 0 {
			pol += fmt.Sprintf(",host=%gGB,swap=%gGB/s", p.HostKVBytes/1e9, p.SwapGBps)
		}
	case optimus.DisaggregatedPolicy:
		pol = fmt.Sprintf("disagg/%d,split=%d+%d,xfer=%gGB/s",
			p.PageTokens, p.PrefillDevices, p.DecodeDevices, p.TransferGBps)
	}
	arr := fmt.Sprintf("rate=%g/s", p.Rate)
	if len(p.Schedule) > 0 {
		arr = "sched=" + optimus.FormatServeSchedule(p.Schedule)
	}
	tok := fmt.Sprintf("tp=%d,%s,%s,cap=%s", p.Map.TP, pol, arr, cap)
	if p.Turns > 1 {
		tok += fmt.Sprintf(",turns=%d", p.Turns)
		if p.Think > 0 {
			tok += fmt.Sprintf(",think=%gs", p.Think)
		}
	}
	if p.Replicas > 0 {
		tok += fmt.Sprintf(",fleet=%dx%v", p.Replicas, p.Routing)
	}
	return tok
}

// servingWorkloadLabel renders a serving candidate's request-shape
// workload: its mix in ParseServeMix syntax, a trace label, or "" for
// spec-wide shapes (which the seq/gen columns already carry).
func servingWorkloadLabel(p optimus.SweepPoint) string {
	switch {
	case len(p.Trace) > 0:
		return fmt.Sprintf("trace(%d)", len(p.Trace))
	case len(p.Mix) > 0:
		return optimus.FormatServeMix(p.Mix)
	default:
		return ""
	}
}

// tenantSLOToken renders the per-tenant SLO breakdown as one CSV field:
// semicolon-separated "tenant:req=N:e2e_p95=V" entries.
func tenantSLOToken(slos []optimus.SweepTenantSLO) string {
	if len(slos) == 0 {
		return ""
	}
	parts := make([]string, len(slos))
	for i, t := range slos {
		parts[i] = fmt.Sprintf("%s:req=%d:e2e_p95=%s", t.Tenant, t.Requests,
			strconv.FormatFloat(t.E2EP95, 'g', -1, 64))
	}
	return strings.Join(parts, ";")
}

// sweepJSON is the -format json document shape.
type sweepJSON struct {
	Stats sweepStatsJSON `json:"stats"`
	Rows  []sweepRecord  `json:"rows"`
}

type sweepStatsJSON struct {
	Enumerated int   `json:"enumerated"`
	Pruned     int   `json:"pruned"`
	Evaluated  int   `json:"evaluated"`
	MemoHits   int   `json:"memo_hits"`
	Errors     int   `json:"errors"`
	Workers    int   `json:"workers"`
	ElapsedMS  int64 `json:"elapsed_ms"`
}

// writeSweep renders a ranked sweep in the chosen format.
func writeSweep(w io.Writer, res optimus.SweepResult, workload optimus.SweepWorkload, format string) error {
	recs := sweepRecords(res)
	switch format {
	case "text":
		fmt.Fprintf(w, "sweep: %s\n", res.Stats)
		if len(recs) == 0 {
			hint := "check batch divisibility and device counts, or try -allow-overflow"
			if workload != optimus.TrainingSweep {
				hint = "inference and serving use TP = device count, so the model's head count must be divisible by -gpus"
			}
			fmt.Fprintf(w, "  no feasible candidates — %s\n", hint)
			return nil
		}
		if workload == optimus.ServingSweep {
			fmt.Fprintf(w, "  %4s %-12s %-34s %-32s %-5s %9s %10s %10s %10s %10s %8s %7s\n",
				"rank", "model", "system", "policy", "prec", "workload", "e2e-p95", "ttft-p95", "tpot-p95", "tok/s", "preempt", "kv-util")
			for _, r := range recs {
				shape := strconv.Itoa(r.Seq) + "+" + strconv.Itoa(r.Gen)
				if r.Mix != "" {
					// Trace labels ("trace(N)") print as-is; a long mix
					// rendering collapses to its tenant count — entries are
					// comma-separated, so count+1 is the mix size regardless
					// of which tenants happened to complete requests.
					shape = r.Mix
					if !strings.HasPrefix(shape, "trace(") && len(shape) > 12 {
						shape = fmt.Sprintf("mix(%d)", strings.Count(r.Mix, ",")+1)
					}
				}
				fmt.Fprintf(w, "  %4d %-12s %-34s %-32s %-5s %9s %10s %10s %10s %10.0f %8d %6.0f%%\n",
					r.Rank, r.Model, r.System, r.Mapping, r.Precision, shape,
					units.FormatSeconds(r.Seconds), units.FormatSeconds(r.TTFTP95),
					units.FormatSeconds(r.TPOTP95), r.TokensPerSec,
					r.Preemptions, 100*r.KVUtil)
			}
			if len(recs) > 0 && len(recs[0].PerTenant) > 1 {
				fmt.Fprintf(w, "  per-tenant e2e-p95 (rank 1): %s\n", tenantSLOToken(recs[0].PerTenant))
			}
			return nil
		}
		fmt.Fprintf(w, "  %4s %-12s %-34s %-28s %3s %-10s %-5s %6s %9s %10s %6s %8s %5s\n",
			"rank", "model", "system", "mapping", "mb", "recompute", "prec", "batch", "seq+gen", "s", "MFU", "mem", "fits")
		for _, r := range recs {
			fits := "yes"
			if !r.Fits {
				fits = "NO"
			}
			tokens := strconv.Itoa(r.Seq)
			if r.Gen > 0 {
				tokens += "+" + strconv.Itoa(r.Gen)
			}
			fmt.Fprintf(w, "  %4d %-12s %-34s %-28s %3d %-10s %-5s %6d %9s %10s %5.0f%% %7.1fG %5s\n",
				r.Rank, r.Model, r.System, r.Mapping, r.Microbatch, r.Recompute, r.Precision,
				r.Batch, tokens, units.FormatSeconds(r.Seconds), 100*r.MFU, r.MemoryGB, fits)
		}
		return nil
	case "csv":
		// encoding/csv quotes fields containing commas (RFC 4180), which
		// the serving mapping tokens ("tp=8,rate=2/s,cap=auto") rely on;
		// TestWriteSweepCSVQuotesServingTokens pins that behavior.
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"rank", "model", "system", "mapping", "microbatch",
			"recompute", "precision", "batch", "seq", "gen", "seconds", "mfu", "memory_gb", "fits",
			"rate_per_sec", "ttft_p95_s", "tpot_p95_s", "tokens_per_sec",
			"preemptions", "recomputed_tokens", "kv_util",
			"prefill_devices", "decode_devices", "kv_transfers", "transfer_s",
			"prefix_tokens", "prefix_hits", "prefix_saved_tokens",
			"host_kv_gb", "kv_swap_outs", "kv_swap_ins", "swap_time_s",
			"replicas", "routing", "mix", "tenant_slos"}); err != nil {
			return err
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		for _, r := range recs {
			if err := cw.Write([]string{
				strconv.Itoa(r.Rank), r.Model, r.System, r.Mapping, strconv.Itoa(r.Microbatch),
				r.Recompute, r.Precision, strconv.Itoa(r.Batch), strconv.Itoa(r.Seq), strconv.Itoa(r.Gen),
				g(r.Seconds), g(r.MFU), g(r.MemoryGB),
				strconv.FormatBool(r.Fits),
				g(r.Rate), g(r.TTFTP95), g(r.TPOTP95), g(r.TokensPerSec),
				strconv.Itoa(r.Preemptions), strconv.Itoa(r.RecomputedTokens), g(r.KVUtil),
				strconv.Itoa(r.PrefillDevices), strconv.Itoa(r.DecodeDevices),
				strconv.Itoa(r.KVTransfers), g(r.TransferTime),
				strconv.Itoa(r.PrefixTokens), strconv.Itoa(r.PrefixHits),
				strconv.Itoa(r.PrefixSavedTokens),
				g(r.HostKVGB), strconv.Itoa(r.KVSwapOuts),
				strconv.Itoa(r.KVSwapIns), g(r.SwapTime),
				strconv.Itoa(r.Replicas), r.Routing,
				r.Mix, tenantSLOToken(r.PerTenant),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sweepJSON{
			Stats: sweepStatsJSON{
				Enumerated: res.Stats.Enumerated,
				Pruned:     res.Stats.Pruned,
				Evaluated:  res.Stats.Evaluated,
				MemoHits:   res.Stats.MemoHits,
				Errors:     res.Stats.Errors,
				Workers:    res.Stats.Workers,
				ElapsedMS:  res.Stats.Elapsed.Milliseconds(),
			},
			Rows: recs,
		})
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", format)
	}
}
