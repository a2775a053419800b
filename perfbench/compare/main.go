// Command compare summarises sets of perfbench runs: per workload and
// metric, the median and quartiles of each set, and whether two sets agree
// within the bounds BENCHMARK.json fixes.
//
//	go -C perfbench run ./compare -bench ../BENCHMARK.json $PWD/runs/a [$PWD/runs/b]
//
// A set is a directory of files, each the standard output of one run
// (perfbench/collect.sh writes them). With one set, compare reports each
// metric's spread — the interquartile range as a share of the median —
// against its bound. With two, it also reports the second set's median
// against the first's: a metric agrees when it is not worse by more than
// its bound. Per-layer metrics carry no bound and are reported only.
//
// The gated times are CPU time, so compare also reports each set's wall
// time from the runs' "wall time:" lines and warns when the ratio of wall
// to CPU time moves by more than the work_per_s bound: a change to
// concurrency can keep CPU time while the user waits longer.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] <runs-dir> [<runs-dir>]")
		os.Exit(2)
	}
	def, err := readBench(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	var sets []set
	for _, dir := range flag.Args() {
		s, err := readSet(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		sets = append(sets, s)
	}
	if !report(os.Stdout, def, sets) {
		os.Exit(1)
	}
}

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBench(path string) (benchDef, error) {
	var d benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// run is one parsed run output.
type run struct {
	workload    string
	fingerprint string
	failed      int
	metrics     map[string]float64
	// wallP50 and wallWork are the op p50 (ms) and work per wall second
	// of the "wall time:" line; NaN when a run has none.
	wallP50, wallWork float64
}

// set maps a workload to its runs.
type set map[string][]run

func readSet(dir string) (set, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	s := set{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		s[r.workload] = append(s[r.workload], r)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	return s, nil
}

// readRun parses one run's standard output: the "workload <name> seed"
// header, the fingerprint line, and the JSON result on the last line.
func readRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	r := run{wallP50: math.NaN(), wallWork: math.NaN()}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "workload "); ok && r.workload == "" {
			r.workload, _, _ = strings.Cut(rest, " ")
		}
		if rest, ok := strings.CutPrefix(line, "fingerprint "); ok {
			r.fingerprint = machineOf(rest)
		}
		if rest, ok := strings.CutPrefix(line, "wall time: "); ok {
			var tail float64
			if _, err := fmt.Sscanf(rest, "op p50 %g ms, op tail %g ms, %g work/s", &r.wallP50, &tail, &r.wallWork); err != nil {
				return run{}, fmt.Errorf("%s: bad wall time line: %v", path, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, err
	}
	var res struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || r.workload == "" {
		return run{}, fmt.Errorf("%s: not a perfbench run output", path)
	}
	r.failed = res.Failed
	r.metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// machineOf keeps the fingerprint fields that make two runs comparable:
// everything but the code and the seed.
func machineOf(fp string) string {
	var m map[string]any
	if json.Unmarshal([]byte(fp), &m) != nil {
		return fp
	}
	delete(m, "commit")
	delete(m, "source")
	delete(m, "seed")
	b, _ := json.Marshal(m)
	return string(b)
}

// quartiles are Python's statistics.quantiles(xs, n=4), the default
// exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// wallOf returns the median wall op p50 and wall work per second of a
// set's runs, and the median ratio of wall to CPU time (CPU work/s over
// wall work/s). All are NaN when the runs print no wall time.
func wallOf(runs []run) (p50, work, ratio float64) {
	var p50s, works, ratios []float64
	for _, r := range runs {
		cpu, found := r.metrics["work_per_s"]
		if math.IsNaN(r.wallWork) || !found || r.wallWork == 0 {
			continue
		}
		p50s = append(p50s, r.wallP50)
		works = append(works, r.wallWork)
		ratios = append(ratios, cpu/r.wallWork)
	}
	_, p50, _ = quartiles(p50s)
	_, work, _ = quartiles(works)
	_, ratio, _ = quartiles(ratios)
	return p50, work, ratio
}

// report prints the tables and returns false when a bounded metric is
// noisier than its bound or, with two sets, got worse by more than it.
func report(w *os.File, def benchDef, sets []set) bool {
	ok := true
	var workloads []string
	for wl := range sets[0] {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	type row struct {
		name, better string
		bound        float64
	}
	var rows []row
	wallBound := math.NaN()
	for _, m := range def.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound})
		if m.Name == "work_per_s" {
			wallBound = m.Bound
		}
	}
	for _, m := range def.PerLayer {
		rows = append(rows, row{m.Name, m.Better, math.NaN()})
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "== %s\n", wl)
		fps := map[string]bool{}
		for i, s := range sets {
			failed := 0
			for _, r := range s[wl] {
				fps[r.fingerprint] = true
				failed += r.failed
			}
			fmt.Fprintf(w, "set %d: %d runs, %d failed ops\n", i+1, len(s[wl]), failed)
			if failed > 0 {
				ok = false
			}
		}
		if len(fps) > 1 {
			fmt.Fprintf(w, "warning: the runs come from %d different machines; their times are not comparable\n", len(fps))
		}
		var ratios []float64
		for i, s := range sets {
			p50, work, ratio := wallOf(s[wl])
			if math.IsNaN(ratio) {
				continue
			}
			fmt.Fprintf(w, "set %d wall: op p50 %.6g ms, %.6g work/s, wall/CPU time %.4f\n", i+1, p50, work, ratio)
			ratios = append(ratios, ratio)
		}
		if len(ratios) == 2 && !math.IsNaN(wallBound) {
			if move := ratios[1]/ratios[0] - 1; math.Abs(move) > wallBound {
				fmt.Fprintf(w, "warning: wall/CPU time moved %+.4f, more than the work_per_s bound %.3g: a concurrency change the CPU-time metrics do not show\n", move, wallBound)
			}
		}
		fmt.Fprintf(w, "%-36s %12s %12s %12s %8s %6s", "metric", "median", "q1", "q3", "spread", "bound")
		if len(sets) == 2 {
			fmt.Fprintf(w, " %12s %8s", "median 2", "change")
		}
		fmt.Fprintln(w)
		for _, m := range rows {
			vals := make([][]float64, len(sets))
			for i, s := range sets {
				for _, r := range s[wl] {
					if v, found := r.metrics[m.name]; found {
						vals[i] = append(vals[i], v)
					}
				}
			}
			if len(vals[0]) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals[0])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
			}
			bound := "-"
			if !math.IsNaN(m.bound) {
				bound = fmt.Sprintf("%.3g", m.bound)
			}
			fmt.Fprintf(w, "%-36s %12.6g %12.6g %12.6g %8.4f %6s", m.name, q2, q1, q3, spread, bound)
			verdict := ""
			if !math.IsNaN(m.bound) && m.name != "setup_s" && spread > m.bound {
				verdict = " NOISY"
				ok = false
			}
			if len(sets) == 2 && len(vals[1]) > 0 {
				_, b, _ := quartiles(vals[1])
				change := 0.0
				if q2 != 0 {
					change = (b - q2) / math.Abs(q2)
				}
				fmt.Fprintf(w, " %12.6g %+8.4f", b, change)
				worse := change
				if m.better == "higher" {
					worse = -change
				}
				if !math.IsNaN(m.bound) {
					if worse > m.bound {
						verdict += " WORSE"
						ok = false
					} else {
						verdict += " agree"
					}
				}
			}
			fmt.Fprintln(w, verdict)
		}
	}
	return ok
}
