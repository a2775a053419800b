package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Op: 0, Parent: -1, Start: 0, End: 100},
		// Two children overlapping each other cover [10,60] together.
		{Name: "sweep.a", Op: 0, Parent: 0, Start: 10, End: 40},
		{Name: "sweep.b", Op: 0, Parent: 0, Start: 30, End: 60},
		// A grandchild takes time from its parent only.
		{Name: "train.c", Op: 0, Parent: 1, Start: 15, End: 20},
		// A child running past its parent's end counts only inside it.
		{Name: "serve.d", Op: 0, Parent: 0, Start: 90, End: 120},
		// A span outside every op is not in the module shares.
		{Name: "infer.e", Op: -1, Parent: -1, Start: 200, End: 300},
	}
	if got, want := selfTimes(spans), []int64{40, 25, 30, 5, 30, 100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	tr := &tracer{spans: spans}
	pct := tr.modulePercents()
	// Op self time: bench 40, sweep 25+30, analytic 5, serve 30 of 130.
	for m, want := range map[string]float64{"bench": 40, "sweep": 55, "analytic": 5, "serve": 30, "infer": 0} {
		if got := pct[m] * 130 / 100; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s: %g%% of op self time, want %g of 130", m, pct[m], want)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.setOp(3)
	id := tr.begin("sweep.x")
	if d := tr.end(id); id != -1 || d != 0 {
		t.Errorf("nil tracer: span %d duration %g, want -1 and 0", id, d)
	}
}
