// Command perfbench is the optimus performance ledger: it runs one
// design-study workload as a closed loop of a single caller, measures the
// host time of every library call it makes, checks every output, and
// prints the metrics of BENCHMARK.json.
//
//	perfbench --workload train-dse --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each module and prints the
// per-layer metrics instead. The last line of standard output is always
// the JSON result. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart is taken as early as package initialisation allows.
var processStart = time.Now()

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, so one slow repetition does not move it.
const setupRepeats = 5

// outDir holds the files a run writes (sweep cache, span dumps), relative
// to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; every spec seed derives from it")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics, 0 prints end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	cfg := config{seed: *seed, procs: procs, dir: outDir}
	if err := w.prepare(cfg); err != nil {
		return fmt.Errorf("%s: prepare: %w", *name, err)
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}

	var inst instance
	var setups, setupWalls []float64
	for i := 0; i < setupRepeats; i++ {
		c := startClock()
		in, err := w.setup(cfg)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", *name, err)
		}
		cpu, wall := c.stop()
		setups, setupWalls = append(setups, cpu), append(setupWalls, wall)
		inst = in
		// The repeated setups' garbage is the benchmark's, not the
		// workload's: collect it before it can land in a timed op.
		runtime.GC()
	}
	setupDone := time.Since(processStart)

	l := newLedger()
	inst.check(l)
	if tr != nil {
		// One untraced cycle first: its digests must match the traced
		// ops, and its op times are the base of the tracing overhead.
		for i := 0; i < inst.cycle(); i++ {
			start := time.Now()
			out := inst.op(i, nil)
			addWall(tr.untraced, out.key, since(start))
			l.record(out, false)
		}
		l.fail("layer probe", inst.layerProbe(tr))
	}
	loopStart, steal0 := time.Now(), stealTicks()
	deadline := loopStart.Add(time.Duration(*seconds * float64(time.Second)))
	// At least one cycle runs, so every op has a sample and peak_rss_mb
	// its reading.
	var peakMB float64
	for i := 0; i < inst.cycle() || time.Now().Before(deadline); i++ {
		start := time.Now()
		tr.setOp(i)
		out := inst.op(i, tr)
		tr.setOp(-1)
		if tr != nil {
			addWall(tr.traced, out.key, since(start))
		}
		l.record(out, true)
		if i == inst.cycle()-1 {
			// Later cycles repeat these ops and add only the garbage
			// collector's timing: a rare late collection lifts a
			// whole-run peak by 20-30 MB on train-dse, more often the
			// more ops a fast machine fits in the run.
			peakMB = peakRSSMB()
		}
	}

	// /proc/stat counts 100 ticks per CPU second.
	stealPct := 100 * (stealTicks() - steal0) / (100 * since(loopStart) * float64(runtime.NumCPU()))

	acc, err := accuracy(tr)
	if err != nil {
		return err
	}
	fp := fingerprint(cfg)

	fmt.Printf("workload %s seed %d: %s\n", *name, *seed, w.why)
	fmt.Printf("fingerprint %s\n", mustJSON(fp))
	fmt.Printf("setups done %.3f s after process start; median setup of %d: %.4f CPU s, %.4f wall s\n",
		setupDone.Seconds(), setupRepeats, median(setups), median(setupWalls))
	fmt.Printf("cpu steal during the timed ops: %.2f%% of the machine's CPU time\n", stealPct)
	fmt.Printf("fail_ratio %.4g (%d failed of %d attempted ops)\n",
		l.failRatio(), l.failed, l.attempted)
	for _, f := range l.failures {
		fmt.Printf("failure: %s\n", f)
	}

	metrics := map[string]metric{}
	if tr == nil {
		tail := tailOf(l.secs)
		fmt.Printf("op_tail_ms is p%.4g over %d ops (%d beyond it)\n", tail.pct, tail.n, tail.beyond)
		fmt.Printf("work_per_s counts %s\n", w.work)
		fmt.Printf("wall time: op p50 %.4g ms, op tail %.4g ms, %.6g work/s\n",
			1e3*median(l.walls), 1e3*tailOf(l.walls).value, l.work/l.wallBusy)
		keys := make([]string, 0, len(l.byKey))
		for k := range l.byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("op %-8s n=%-5d p50 %.4g ms\n", k, len(l.byKey[k]), 1e3*median(l.byKey[k]))
		}
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["op_p50_ms"] = metric{1e3 * median(l.secs), "ms"}
		metrics["op_tail_ms"] = metric{1e3 * tail.value, "ms"}
		metrics["work_per_s"] = metric{l.work / l.busy, "1/s"}
		metrics["peak_rss_mb"] = metric{peakMB, "MB"}
		metrics["train_err_pct"] = metric{acc.train, "%"}
		metrics["infer_err_pct"] = metric{acc.infer, "%"}
	} else {
		metrics = inst.layers()
		for k, v := range tr.modulePercents() {
			metrics["self_pct."+k] = metric{v, "%"}
		}
		metrics["bench.tracing_overhead_pct"] = metric{tr.overheadPct(), "%"}
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := tr.write(path, fp); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	names := make([]string, 0, len(metrics))
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number: %g", k, m.Value)
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Println(mustJSON(result{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   metrics,
	}))
	return nil
}

// config is what every workload derives its inputs from.
type config struct {
	seed  int64
	procs int
	dir   string
}

// benchWorkload is one benchmark workload: a one-off untimed preparation, a
// timed setup that builds an instance, and the instance's ops.
type benchWorkload struct {
	why  string
	work string
	// prepare does one-off work the setup then consumes, such as writing
	// the persisted sweep cache a design-study user resumes from.
	prepare func(config) error
	setup   func(config) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// check runs the output checks made before timing.
	check(*ledger)
	// cycle is the number of distinct ops; op i repeats op i%cycle.
	cycle() int
	// op runs op i, timing only the library calls. With a tracer it also
	// records spans and layer counters.
	op(i int, tr *tracer) outcome
	// layerProbe records, outside any op, the layer measurements the
	// workload's ops do not make themselves.
	layerProbe(tr *tracer) error
	// layers returns the per-layer metrics gathered by traced ops.
	layers() map[string]metric
}

var workloads = map[string]benchWorkload{
	"train-dse":      trainDSEWorkload,
	"serve-sessions": serveSessionsWorkload,
	"fleet-knee":     fleetKneeWorkload,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
