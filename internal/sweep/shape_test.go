package sweep

import (
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/train"
)

// TestShapeMemoMatchesPredict is the oracle for the engine's shape memo:
// for every candidate of a training grid, PredictShape fed the shape of
// the first candidate with the same shapeKey must equal a fresh Predict.
// The grid varies every shapeKey field against the rest — GPT and GQA
// models, a single-node and a two-node system (TP 8 crosses nodes on the
// second, so the TP link differs), SP on and off at each TP > 1, two
// microbatches, precisions and sequence lengths — under every recompute
// regime and schedule, so a key that dropped any field would hand some
// candidate another shape's costs.
func TestShapeMemoMatchesPredict(t *testing.T) {
	single, err := arch.SystemOf(arch.H100(), 8, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	twoNode, err := arch.SystemOf(arch.H100(), 8, 4, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Models:        []model.Config{model.GPT7B(), model.Llama2_70B()},
		Systems:       []*arch.System{single, twoNode},
		Precisions:    []tech.Precision{tech.BF16, tech.FP8},
		GlobalBatches: []int{32},
		Seqs:          []int{1024, 2048},
		Constraints: Constraints{
			MaxTP:        8,
			Microbatches: []int{1, 2},
			Recomputes:   []memfoot.Recompute{memfoot.NoRecompute, memfoot.Selective, memfoot.Full},
			Schedules:    []parallel.Schedule{parallel.GPipe, parallel.OneFOneB, parallel.Interleaved1F1B},
		},
	}
	type candidate struct {
		p Point
		k shapeKey
	}
	var cands []candidate
	forEachCell(spec, newTokens(), func(points []Point, tok cellTokens) {
		for _, p := range points {
			// Enumeration ties SP to TP > 1; an SP-off twin gives each
			// such shape a neighbour differing in SP alone.
			variants := []Point{p}
			if p.Map.TP > 1 {
				q := p
				q.Map.SP = false
				variants = append(variants, q)
			}
			for i := range variants {
				cands = append(cands, candidate{variants[i], shapeKeyOf(&variants[i], tok.cell)})
			}
		}
	})
	shapes := make(map[shapeKey]*train.Shape)
	failures := 0
	for _, c := range cands {
		s := trainSpec(c.p)
		want, err := train.Predict(s)
		if err != nil {
			t.Fatalf("%s %v: %v", c.p.Model.Name, c.p.Map, err)
		}
		sh := shapes[c.k]
		if sh == nil {
			sh = train.ShapeOf(s)
			shapes[c.k] = sh
		}
		got, err := train.PredictShape(s, sh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			if failures++; failures <= 5 {
				t.Errorf("%s on %s, %v sp=%v mb=%d %v %v seq=%d: the shared shape gives Total %v, fresh Predict %v",
					c.p.Model.Name, c.p.System, c.p.Map, c.p.Map.SP, c.p.Map.Microbatch,
					c.p.Recompute, c.p.Precision, c.p.Seq, got.Total, want.Total)
			}
		}
	}
	if failures > 5 {
		t.Errorf("... %d mismatches in all", failures)
	}
	t.Logf("%d candidates, %d shapes", len(cands), len(shapes))
	if len(cands) < 4*len(shapes) {
		t.Errorf("%d candidates over %d shapes: too little sharing to test", len(cands), len(shapes))
	}
}
