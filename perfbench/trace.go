package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval around a call into a module. Times are
// nanoseconds since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. All
// methods are no-ops on a nil tracer, so untraced ops share the traced
// code path at the cost of a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	open   int // innermost open span, -1 for none
	op     int // op id of new spans, -1 outside ops

	// untraced and traced sum op wall times per op key, the base of the
	// tracing overhead.
	untraced, traced map[string]wallSum
}

type wallSum struct {
	sum float64
	n   int
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(), open: -1, op: -1,
		untraced: map[string]wallSum{}, traced: map[string]wallSum{},
	}
}

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Op: t.op, Parent: t.open,
		Start: int64(time.Since(t.origin)),
	})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.origin))
	t.open = s.Parent
	return float64(s.End-s.Start) / 1e9
}

// allocCounter measures the heap allocations of the calls between its
// creation and stop; the single-caller loop makes the process-wide count
// the calls' own.
type allocCounter struct{ mallocs, bytes uint64 }

func countAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs, ms.TotalAlloc}
}

func (a allocCounter) stop() (mallocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc - a.bytes)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover; children may nest and overlap each other.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	for i, s := range spans {
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// module maps a span name to the layer it measures: the analytic core's
// four packages share one layer, the accuracy packages another.
func module(name string) string {
	m, _, _ := strings.Cut(name, ".")
	switch m {
	case "train", "memfoot", "kernels", "roofline":
		return "analytic"
	case "repro", "valdata":
		return "accuracy"
	}
	return m
}

// modules are the layers whose share of op self time the traced run
// reports.
var modules = []string{"analytic", "bench", "cluster", "infer", "serve", "sweep", "workload"}

// modulePercents splits the self time of the spans inside ops by layer.
func (t *tracer) modulePercents() map[string]float64 {
	self := selfTimes(t.spans)
	by := map[string]float64{}
	var total float64
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		by[module(s.Name)] += float64(self[i])
		total += float64(self[i])
	}
	out := map[string]float64{}
	for _, m := range modules {
		if total > 0 {
			out[m] = 100 * by[m] / total
		} else {
			out[m] = 0
		}
	}
	return out
}

// overheadPct is how much longer the traced ops took than the same ops
// untraced, over the op keys both passes ran.
func (t *tracer) overheadPct() float64 {
	var tr, un float64
	for k, u := range t.untraced {
		if v, ok := t.traced[k]; ok {
			tr += v.sum
			un += u.sum / float64(u.n) * float64(v.n)
		}
	}
	if un == 0 {
		return 0
	}
	return 100 * (tr - un) / un
}

// addWall adds one op's wall time to the tally for its key.
func addWall(m map[string]wallSum, key string, wall float64) {
	w := m[key]
	w.sum += wall
	w.n++
	m[key] = w
}

// write dumps the spans with the run's fingerprint as JSON.
func (t *tracer) write(path string, fp any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		Fingerprint any    `json:"fingerprint"`
		Spans       []span `json:"spans"`
	}{fp, t.spans}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
