package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"optimus"
	"optimus/internal/serve"
	"optimus/internal/units"
)

// cmdServe runs the continuous-batching serving simulator: seeded
// deterministic arrivals over the step-cost engine, reporting TTFT/TPOT/
// E2E SLO percentiles with per-tenant breakdowns (text), per-request
// timelines (csv), or both (json).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sf := bindServingFlags(fs, 1)
	arrival := fs.String("arrival", "poisson", "arrival process (poisson|closed)")
	clients := fs.Int("clients", 0, "closed-loop concurrency (closed arrivals only; default 8)")
	stopProf, err := sf.parse(args)
	if err != nil {
		return err
	}
	defer stopProf()
	spec, err := sf.spec(*arrival, *clients)
	if err != nil {
		return err
	}
	res, err := optimus.Serve(spec)
	if err != nil {
		return err
	}
	return writeServe(os.Stdout, spec, res, *sf.format)
}

// writeServe renders a serving simulation in the chosen format.
func writeServe(w io.Writer, spec optimus.ServeSpec, res optimus.ServeResult, format string) error {
	switch format {
	case "text":
		fmt.Fprintf(w, "%s on %d x %s, %s\n",
			spec.Model.Name, spec.TP, spec.System.Device.Name, workloadLabel(spec, res.Requests))
		fmt.Fprintf(w, "  makespan           %s over %d iterations\n",
			units.FormatSeconds(res.SimTime), res.Iterations)
		fmt.Fprintf(w, "  throughput         %.2f req/s, %.0f tok/s\n",
			res.ThroughputRPS, res.TokensPerSec)
		fmt.Fprintf(w, "  batching           mean %.1f, peak %d (cap %d)\n",
			res.MeanBatch, res.PeakBatch, res.MaxBatch)
		fmt.Fprintf(w, "  kv-cache           peak %s of %s budget (mean util %.0f%%)\n",
			units.FormatBytes(res.PeakKVBytes), units.FormatBytes(res.KVCapacity),
			100*res.MeanKVUtil)
		if res.Policy.Reads(serve.KnobPageTokens) {
			fmt.Fprintf(w, "  paging             %d-token pages, peak %d of %d, %d preemptions (%d tokens recomputed)\n",
				res.PageTokens, res.PeakKVPages, res.KVPagesTotal,
				res.Preemptions, res.RecomputedTokens)
		}
		if res.PrefixHits > 0 || res.PrefixSavedTokens > 0 {
			fmt.Fprintf(w, "  prefix-cache       %d hits, %d prefill tokens saved\n",
				res.PrefixHits, res.PrefixSavedTokens)
		}
		if res.HostPagesTotal > 0 {
			fmt.Fprintf(w, "  kv-host-tier       %d pages (peak %d), %d swap-outs, %d swap-ins, %s swapping over %g GB/s\n",
				res.HostPagesTotal, res.PeakHostPages, res.KVSwapOuts, res.KVSwapIns,
				units.FormatSeconds(res.SwapTimeTotal), spec.SwapGBps)
		}
		if res.Policy.Reads(serve.KnobPoolSplit) {
			fmt.Fprintf(w, "  pools              prefill %d dev (peak %d of %d pages), decode %d dev (peak %d of %d pages)\n",
				res.PrefillDevices, res.PeakPrefillPages, res.PrefillPagesTotal,
				res.DecodeDevices, res.PeakDecodePages, res.DecodePagesTotal)
			fmt.Fprintf(w, "  kv-transfer        %d migrations, %s total over %g GB/s\n",
				res.KVTransfers, units.FormatSeconds(res.TransferTimeTotal), spec.TransferGBps)
		}
		writeSLOTable(w, res.TTFT, res.TPOT, res.E2E, res.Queue)
		// The per-tenant breakdown matters exactly when there is more than
		// one tenant; the degenerate single-tenant table would repeat the
		// aggregate rows above.
		if len(res.PerTenant) > 1 {
			fmt.Fprintf(w, "  %-12s %8s %10s %10s %10s %10s\n",
				"tenant", "requests", "ttft-p95", "tpot-p95", "e2e-p95", "queue-p95")
			for _, tm := range res.PerTenant {
				fmt.Fprintf(w, "  %-12s %8d %10s %10s %10s %10s\n", tm.Tenant, tm.Requests,
					units.FormatSeconds(tm.TTFT.P95), units.FormatSeconds(tm.TPOT.P95),
					units.FormatSeconds(tm.E2E.P95), units.FormatSeconds(tm.Queue.P95))
			}
		}
		return nil
	case "csv":
		return writeRequestCSV(w, res.PerRequest, nil)
	case "json":
		return writeJSON(w, res)
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", format)
	}
}
