package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"optimus"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/units"
)

// defaultClosedClients is the closed-loop concurrency when -arrival closed
// is used without -clients: a sensible default instead of the raw internal
// "positive clients" error the zero flag default used to trip.
const defaultClosedClients = 8

// servingFlags is the front end optimus serve and optimus cluster share:
// the capacity flags of one serving replica and the workload it is fed.
// Both commands build one optimus.ServeSpec from them; cluster then splits
// that spec into a fleet. Flags only one command has (serve's -arrival and
// -clients, cluster's fleet and knee flags) stay in that command.
type servingFlags struct {
	fs *flag.FlagSet

	model, device, deviceFile, intra, prec *string
	gpus                                   *int

	prompt, gen, prefix *int
	mix, trace          *string
	rate, think         *float64
	schedule            *string
	turns, requests     *int
	seed                *int64

	maxBatch, pageTokens          *int
	policy                        *string
	noPreempt                     *bool
	prefillDevices, decodeDevices *int
	transferGBps                  *float64
	hostKVGB, swapGBps            *float64

	format *string
	prof   *profileFlags
	// set records the flags given on the command line, filled by parse.
	set map[string]bool
}

// bindServingFlags declares the shared serving flags on fs; rate is the
// command's default Poisson arrival rate.
func bindServingFlags(fs *flag.FlagSet, rate float64) *servingFlags {
	return &servingFlags{
		fs:             fs,
		model:          fs.String("model", "llama2-13b", "model preset"),
		device:         fs.String("device", "h100", "device preset"),
		deviceFile:     fs.String("device-file", "", "JSON device description (overrides -device)"),
		intra:          fs.String("intra", "nvlink4", "intra-node fabric"),
		gpus:           fs.Int("gpus", 1, "GPU count per replica (= tensor-parallel degree)"),
		prompt:         fs.Int("prompt", 200, "prompt tokens per request (single-tenant; see -mix/-trace)"),
		gen:            fs.Int("gen", 200, "generated tokens per request (single-tenant; see -mix/-trace)"),
		mix:            fs.String("mix", "", "multi-tenant workload mix as tenant:share:prompt[~sigma]:gen[~sigma][:prefix[:prefix-id]][,...] (replaces -prompt/-gen; ~sigma draws heavy-tailed lognormal lengths)"),
		trace:          fs.String("trace", "", "CSV trace file to replay (arrival,tenant,prompt,gen[,prefix_id,prefix_tokens[,session,turn]]; replaces the arrival flags)"),
		prefix:         fs.Int("prefix", 0, "shared prompt-prefix tokens cached across requests (single-tenant; paged with preemption only)"),
		prec:           fs.String("precision", "fp16", "precision"),
		rate:           fs.Float64("rate", rate, "Poisson arrival rate in requests/sec (fleet-wide in a cluster)"),
		schedule:       fs.String("schedule", "", "piecewise arrival-rate schedule as start-end:rate[,...] in seconds and req/s (replaces -rate; poisson only)"),
		turns:          fs.Int("turns", 0, "session-cohort turns per client session, each carrying the session's prior context as a growing shared prefix (poisson + paged with preemption only)"),
		think:          fs.Float64("think", 0, "think time between a session's turns in seconds (needs -turns > 1)"),
		requests:       fs.Int("requests", 256, "requests to simulate"),
		seed:           fs.Int64("seed", 1, "arrival-process seed"),
		maxBatch:       fs.Int("max-batch", 0, "per-replica iteration batch cap (0 = derive from KV budget)"),
		policy:         fs.String("policy", "reserve", "per-replica KV admission policy (reserve = full-context reservation, paged = vLLM-style block allocation with LIFO preemption, disagg = split prefill/decode pools with KV-transfer pricing)"),
		pageTokens:     fs.Int("page-tokens", 0, "block size in KV tokens (0 = default 16; paged/disagg only)"),
		noPreempt:      fs.Bool("no-preempt", false, "disable preemption: paged admission reserves full-context pages (paged only)"),
		prefillDevices: fs.Int("prefill-devices", 0, "devices backing the disagg prefill pool (0 = all; disagg only)"),
		decodeDevices:  fs.Int("decode-devices", 0, "devices backing the disagg decode pool (0 = all; disagg only)"),
		transferGBps:   fs.Float64("transfer-gbps", 0, "disagg KV-transfer interconnect bandwidth in GB/s (0 = default 50, Inf = free; disagg only)"),
		hostKVGB:       fs.Float64("kv-host-gb", 0, "per-replica host-memory KV swap tier capacity in GB (0 = recompute-only preemption; paged with preemption only)"),
		swapGBps:       fs.Float64("swap-gbps", 0, "GPU-host KV swap-link bandwidth in GB/s (0 = default 32; needs -kv-host-gb)"),
		format:         fs.String("format", "text", "output format (text|csv|json)"),
		prof:           addProfileFlags(fs),
	}
}

// parse parses args, records which flags were given, and starts any
// requested profiling; the caller defers the returned stop.
func (f *servingFlags) parse(args []string) (stop func(), err error) {
	if err := f.fs.Parse(args); err != nil {
		return nil, err
	}
	f.set = make(map[string]bool)
	f.fs.Visit(func(fl *flag.Flag) { f.set[fl.Name] = true })
	return f.prof.start()
}

// spec builds the single-replica serving spec the parsed flags describe
// under the given arrival process and closed-loop concurrency, rejecting
// flags the chosen policy, workload or arrival process would silently
// ignore — a user who sets them believes they shaped the simulated load.
func (f *servingFlags) spec(arrival string, clients int) (optimus.ServeSpec, error) {
	var spec optimus.ServeSpec
	switch *f.format {
	case "text", "csv", "json":
	default:
		return spec, fmt.Errorf("unknown format %q (text|csv|json)", *f.format)
	}
	cfg, err := optimus.ModelByName(*f.model)
	if err != nil {
		return spec, err
	}
	if *f.gpus < 1 {
		return spec, fmt.Errorf("-gpus must be at least 1, got %d", *f.gpus)
	}
	sys, err := systemWithOverride(*f.device, *f.deviceFile, *f.gpus, *f.intra, "ndr")
	if err != nil {
		return spec, err
	}
	p, err := tech.ParsePrecision(*f.prec)
	if err != nil {
		return spec, err
	}
	pol, err := optimus.ParseServePolicy(*f.policy)
	if err != nil {
		return spec, err
	}
	spec = optimus.ServeSpec{
		Model: cfg, System: sys, TP: *f.gpus, Precision: p,
		PromptTokens: *f.prompt, GenTokens: *f.gen, PrefixTokens: *f.prefix,
		Rate: *f.rate, Clients: clients,
		Requests: *f.requests, Seed: *f.seed, MaxBatch: *f.maxBatch,
		Policy: pol, PageTokens: *f.pageTokens, NoPreempt: *f.noPreempt,
		PrefillDevices: *f.prefillDevices, DecodeDevices: *f.decodeDevices,
		TransferGBps: *f.transferGBps,
		HostKVBytes:  *f.hostKVGB * 1e9, SwapGBps: *f.swapGBps,
		Turns: *f.turns, Think: *f.think,
	}
	set := f.set
	mix, trace := *f.mix, *f.trace
	if mix != "" && trace != "" {
		return spec, fmt.Errorf("-mix and -trace are mutually exclusive")
	}
	if mix != "" || trace != "" {
		if set["prompt"] || set["gen"] {
			return spec, fmt.Errorf("-prompt and -gen describe the single-tenant workload (use the per-tenant lengths in -mix, or the trace's)")
		}
		if set["prefix"] {
			return spec, fmt.Errorf("-prefix describes the single-tenant workload (use the per-tenant prefix field in -mix, or the trace's prefix columns)")
		}
		spec.PromptTokens, spec.GenTokens, spec.PrefixTokens = 0, 0, 0
	}
	if mix != "" {
		if spec.Mix, err = optimus.ParseServeMix(mix); err != nil {
			return spec, err
		}
	}
	if trace != "" {
		for _, fl := range []string{"arrival", "rate", "clients", "requests", "seed", "schedule", "turns", "think"} {
			if set[fl] {
				return spec, fmt.Errorf("-%s does not apply when replaying a trace (-trace fixes the arrival process)", fl)
			}
		}
		if spec.Trace, err = loadTrace(trace); err != nil {
			return spec, err
		}
		spec.Rate, spec.Clients, spec.Requests, spec.Seed = 0, 0, 0, 0
	} else {
		switch arrival {
		case "poisson", "open":
			spec.Arrival = optimus.PoissonArrivals
			if set["clients"] {
				return spec, fmt.Errorf("-clients applies to closed-loop arrivals only (-arrival closed)")
			}
			if *f.schedule != "" {
				if set["rate"] {
					return spec, fmt.Errorf("-schedule fixes the arrival-rate timeline (-rate sets the constant Poisson rate; set one)")
				}
				if spec.Schedule, err = optimus.ParseServeSchedule(*f.schedule); err != nil {
					return spec, err
				}
				spec.Rate = 0
			}
		case "closed", "closed-loop":
			spec.Arrival = optimus.ClosedLoopArrivals
			if set["rate"] {
				return spec, fmt.Errorf("-rate applies to Poisson arrivals only (-arrival poisson)")
			}
			for _, fl := range []string{"schedule", "turns", "think"} {
				if set[fl] {
					return spec, fmt.Errorf("-%s applies to open-loop Poisson arrivals only (-arrival poisson)", fl)
				}
			}
			spec.Rate = 0
			if !set["clients"] {
				spec.Clients = defaultClosedClients
			} else if clients <= 0 {
				return spec, fmt.Errorf("-clients must be positive for closed-loop arrivals, got %d", clients)
			}
		default:
			return spec, fmt.Errorf("unknown arrival process %q (poisson|closed)", arrival)
		}
	}
	if err := knobFlagError(set, spec.CheckKnobs, "-%s applies to the %s only (-policy "+pol.String()+" ignores it)", "and"); err != nil {
		return spec, err
	}
	// Resolve the defaults here so the simulation and every output format
	// report the same bandwidths (the simulator would derive the identical
	// values from zero; nonzero flags pass through untouched).
	spec.TransferGBps = serve.CanonicalTransferGBps(pol, spec.TransferGBps)
	spec.SwapGBps = serve.CanonicalSwapGBps(pol, spec.HostKVBytes, spec.SwapGBps)
	return spec, nil
}

// knobFlags maps every policy-scoped serving flag of serve, cluster and
// sweep to the serve knob it sets. It holds names only: which policy reads
// a knob, and what a knob needs, is serve's knob table. on qualifies the
// flag in a dependency hint where a non-zero value does not set its knob.
var knobFlags = []struct {
	flag string
	knob serve.Knob
	on   string
}{
	{"page-tokens", serve.KnobPageTokens, ""},
	{"no-preempt", serve.KnobNoPreempt, ""},
	{"prefill-devices", serve.KnobPoolSplit, ""},
	{"decode-devices", serve.KnobPoolSplit, ""},
	{"transfer-gbps", serve.KnobTransferGBps, ""},
	{"prefix", serve.KnobPrefix, ""},
	{"turns", serve.KnobSessions, " above 1"},
	{"kv-host-gb", serve.KnobHostKV, ""},
	{"swap-gbps", serve.KnobSwapGBps, ""},
	{"think", serve.KnobThink, ""},
}

// knobFlagError renders the knob table's verdict (check) in flag names:
// the first given flag that sets the rejected knob is named, and unread is
// the command's "no policy reads it" format over that flag and the knob's
// readers joined by conj. A knob no given flag sets — a per-entry -mix or
// -trace prefix — is left to the library's field-named error.
func knobFlagError(set map[string]bool, check func() (serve.Knob, serve.KnobFault), unread, conj string) error {
	k, fault := check()
	for _, kf := range knobFlags {
		if fault == serve.KnobOK || kf.knob != k || !set[kf.flag] {
			continue
		}
		switch fault {
		case serve.KnobUnread:
			return fmt.Errorf(unread, kf.flag, k.Readers(conj))
		case serve.KnobNeedsPreemption:
			return fmt.Errorf("-%s needs preemption (-no-preempt reserves full context and never evicts)", kf.flag)
		}
		dep, purpose, _ := k.Requires()
		for _, df := range knobFlags {
			if df.knob == dep {
				return fmt.Errorf("-%s %s (set -%s%s)", kf.flag, purpose, df.flag, df.on)
			}
		}
	}
	return nil
}

// loadTrace reads and validates a -trace CSV file, shared by the serve,
// cluster and sweep subcommands.
func loadTrace(path string) ([]optimus.ServeTraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	trace, err := optimus.ParseServeTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return trace, nil
}

// workloadLabel describes the simulated workload for the text headers of
// serve and cluster alike: the arrival process, the request count and the
// workload's shape.
func workloadLabel(spec optimus.ServeSpec, requests int) string {
	arrivals := spec.Arrival.String()
	var shape string
	switch {
	case len(spec.Trace) > 0:
		arrivals = "replayed"
		shape = fmt.Sprintf("%d-event trace", len(spec.Trace))
	case len(spec.Mix) > 0:
		shape = fmt.Sprintf("%d-tenant mix %s", len(spec.Mix), optimus.FormatServeMix(spec.Mix))
	default:
		shape = fmt.Sprintf("%d+%d tokens", spec.PromptTokens, spec.GenTokens)
	}
	return fmt.Sprintf("%s arrivals, %d requests of %s (seed %d)", arrivals, requests, shape, spec.Seed)
}

// writeSLOTable renders the SLO percentile rows of a serving result.
func writeSLOTable(w io.Writer, ttft, tpot, e2e, queue optimus.ServePercentiles) {
	fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", "SLO", "p50", "p95", "p99", "mean", "max")
	for _, row := range []struct {
		name string
		p    optimus.ServePercentiles
	}{
		{"ttft", ttft}, {"tpot", tpot}, {"e2e", e2e}, {"queue", queue},
	} {
		fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", row.name,
			units.FormatSeconds(row.p.P50), units.FormatSeconds(row.p.P95),
			units.FormatSeconds(row.p.P99), units.FormatSeconds(row.p.Mean),
			units.FormatSeconds(row.p.Max))
	}
}

// writeRequestCSV renders the per-request timelines. A non-nil replicas
// (one entry per request) adds the fleet's replica column after the id.
func writeRequestCSV(w io.Writer, reqs []optimus.ServeRequestMetrics, replicas []int) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "tenant", "prompt", "gen",
		"arrival_s", "admitted_s", "first_token_s",
		"done_s", "queue_s", "ttft_s", "tpot_s", "e2e_s", "preemptions",
		"kv_transfers", "kv_transfer_s"}
	if replicas != nil {
		header = append([]string{"id", "replica"}, header[1:]...)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, m := range reqs {
		rec := []string{
			strconv.Itoa(m.ID), m.Tenant,
			strconv.Itoa(m.PromptTokens), strconv.Itoa(m.GenTokens),
			g(m.Arrival), g(m.Admitted), g(m.FirstToken),
			g(m.Done), g(m.Queue), g(m.TTFT), g(m.TPOT), g(m.E2E),
			strconv.Itoa(m.Preemptions),
			strconv.Itoa(m.KVTransfers), g(m.KVTransferTime),
		}
		if replicas != nil {
			rec = append([]string{rec[0], strconv.Itoa(replicas[i])}, rec[1:]...)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeJSON renders v as the indented JSON document every serving output
// format shares.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
