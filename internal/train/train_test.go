package train

import (
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/tech"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// specFor builds the Table 1 experiment for one validation row.
func specFor(t *testing.T, c valdata.TrainCase) Spec {
	t.Helper()
	cfg, err := model.ByName(c.Model)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arch.DGXA100(c.GPUs)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Model:  cfg,
		System: sys,
		Map: parallel.Mapping{
			DP: c.DP, TP: c.TP, PP: c.PP, SP: c.SP,
			Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		GlobalBatch: c.Batch,
		Seq:         2048,
		Precision:   tech.BF16,
		Recompute:   c.Recompute,
	}
}

// TestTable1Validation is the package's headline check: our analytical
// predictions must sit within the same error band of the published
// Megatron-LM measurements that the paper demonstrates (relative errors
// "mostly well below 10%"). Gate: mean ≤ 8%, max ≤ 12%.
func TestTable1Validation(t *testing.T) {
	var errs []float64
	for _, c := range valdata.Table1() {
		res, err := Predict(specFor(t, c))
		if err != nil {
			t.Fatalf("%s/%d GPUs: %v", c.Model, c.GPUs, err)
		}
		e := units.RelErr(res.Total, c.RefSeconds)
		errs = append(errs, e)
		t.Logf("%-10s %5d GPUs %-9v ref=%6.1fs pred=%6.1fs err=%4.1f%% (paper pred %5.1fs)",
			c.Model, c.GPUs, c.Recompute, c.RefSeconds, res.Total, 100*e, c.PaperPredSeconds)
		if e > 0.12 {
			t.Errorf("%s/%d GPUs: error %.1f%% exceeds 12%% gate", c.Model, c.GPUs, 100*e)
		}
	}
	if mean := units.Mean(errs); mean > 0.08 {
		t.Errorf("mean Table 1 error %.1f%% exceeds 8%% gate", 100*mean)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	for _, c := range valdata.Table1()[:4] {
		res, err := Predict(specFor(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if !units.AlmostEqual(res.Total, res.Compute+res.Communication+res.Other, 1e-9) {
			t.Errorf("%s: breakdown does not sum to total", c.Model)
		}
		if !units.AlmostEqual(res.Compute, res.GEMMTime+res.EWTime+res.RecomputeTime, 1e-9) {
			t.Errorf("%s: compute parts do not sum", c.Model)
		}
		if !units.AlmostEqual(res.Communication, res.TPComm+res.PPComm+res.DPComm, 1e-9) {
			t.Errorf("%s: comm parts do not sum", c.Model)
		}
		if !units.AlmostEqual(res.Other, res.Bubble+res.OptimizerStep, 1e-9) {
			t.Errorf("%s: other parts do not sum", c.Model)
		}
	}
}

func TestRecomputeCostOrdering(t *testing.T) {
	// §3.3: full recomputation "doubles the forward pass time"; selective
	// "causes very little computational overhead".
	spec := specFor(t, valdata.Table1()[1]) // GPT-175B
	spec.Recompute = memfoot.NoRecompute
	none, _ := Predict(spec)
	spec.Recompute = memfoot.Selective
	sel, _ := Predict(spec)
	spec.Recompute = memfoot.Full
	full, _ := Predict(spec)

	if !(none.Total < sel.Total && sel.Total < full.Total) {
		t.Errorf("time ordering violated: none=%g sel=%g full=%g",
			none.Total, sel.Total, full.Total)
	}
	// Selective overhead small (< 8% over none), full large (> 20%).
	if sel.Total/none.Total > 1.08 {
		t.Errorf("selective overhead %.1f%% too large", 100*(sel.Total/none.Total-1))
	}
	if full.Total/none.Total < 1.20 {
		t.Errorf("full recompute overhead %.1f%% too small", 100*(full.Total/none.Total-1))
	}
}

func TestMFUInPlausibleRange(t *testing.T) {
	// Megatron-LM reports ~40-57% model FLOPs utilization on A100
	// clusters; our calibrated predictions must land in that regime.
	for _, c := range valdata.Table1() {
		res, err := Predict(specFor(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if res.MFU < 0.25 || res.MFU > 0.65 {
			t.Errorf("%s/%d GPUs: MFU %.2f outside [0.25, 0.65]", c.Model, c.GPUs, res.MFU)
		}
	}
}

func TestInterleavingShrinksBubble(t *testing.T) {
	spec := specFor(t, valdata.Table1()[3]) // GPT-1008B, PP=64
	spec.Map.Schedule = parallel.OneFOneB
	base, err := Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Map.Schedule = parallel.Interleaved1F1B
	spec.Map.VirtualStages = 2
	il, err := Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	if il.Bubble >= base.Bubble {
		t.Errorf("interleaving should shrink the bubble: %g vs %g", il.Bubble, base.Bubble)
	}
	if il.PPComm <= base.PPComm {
		t.Error("interleaving should increase pipeline communication")
	}
}

func TestSequenceParallelismSavesTime(t *testing.T) {
	// SP shards the norm/dropout element-wise work at equal communication
	// volume, so it must not slow the iteration (§1.3).
	spec := specFor(t, valdata.Table1()[1])
	spec.Recompute = memfoot.Selective
	spec.Map.SP = false
	noSP, _ := Predict(spec)
	spec.Map.SP = true
	withSP, _ := Predict(spec)
	if withSP.Total > noSP.Total {
		t.Errorf("SP slowed training: %g vs %g", withSP.Total, noSP.Total)
	}
	if withSP.EWTime >= noSP.EWTime {
		t.Error("SP should reduce element-wise time")
	}
}

func TestDPOverlapHidesGradientAllReduce(t *testing.T) {
	spec := specFor(t, valdata.Table1()[8]) // GPT-310B, DP=15
	spec.DPOverlap = 0
	exposed, _ := Predict(spec)
	spec.DPOverlap = 1
	hidden, _ := Predict(spec)
	if exposed.DPComm <= 0 {
		t.Fatal("DP=15 must have gradient all-reduce time")
	}
	if hidden.DPComm != 0 {
		t.Errorf("full overlap should hide DP comm, got %g", hidden.DPComm)
	}
	if hidden.Total >= exposed.Total {
		t.Error("overlap should reduce total time")
	}
}

func TestFasterSystemIsFaster(t *testing.T) {
	// An H100-NDR cluster must beat the A100-HDR cluster on the same
	// workload (Fig. 5 direction), and FP8 must beat BF16 on H100.
	c := valdata.Table1()[1]
	a100Spec := specFor(t, c)
	a100, _ := Predict(a100Spec)

	h100Sys, err := arch.DGXH100(c.GPUs)
	if err != nil {
		t.Fatal(err)
	}
	h100Spec := a100Spec
	h100Spec.System = h100Sys
	h100, err := Predict(h100Spec)
	if err != nil {
		t.Fatal(err)
	}
	if h100.Total >= a100.Total {
		t.Errorf("H100 (%g) should beat A100 (%g)", h100.Total, a100.Total)
	}

	fp8 := h100Spec
	fp8.Precision = tech.FP8
	f, err := Predict(fp8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total >= h100.Total {
		t.Errorf("FP8 (%g) should beat BF16 (%g) on H100", f.Total, h100.Total)
	}
}

func TestGEMMBoundSplit(t *testing.T) {
	// Training-shape GEMMs on an A100 are compute-bound (§1.2): the
	// compute-bound share must dominate.
	spec := specFor(t, valdata.Table1()[1])
	cb, mb, err := LayerGEMMBoundSplit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cb <= 0 {
		t.Fatal("no compute-bound GEMM time")
	}
	if mb > cb {
		t.Errorf("A100 training layer should be compute-dominated: cb=%g mb=%g", cb, mb)
	}
	// Result-level split agrees in direction.
	res, _ := Predict(spec)
	if res.GEMMComputeBound < res.GEMMMemoryBound {
		t.Error("iteration GEMM split should also be compute-dominated")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := specFor(t, valdata.Table1()[0])

	bad := good
	bad.System = nil
	if _, err := Predict(bad); err == nil {
		t.Error("nil system should error")
	}

	bad = good
	bad.Seq = 0
	if _, err := Predict(bad); err == nil {
		t.Error("zero seq should error")
	}

	bad = good
	bad.Map.DP = 7 // wrong device count
	if _, err := Predict(bad); err == nil {
		t.Error("mapping/system mismatch should error")
	}

	bad = good
	bad.DPOverlap = 1.5
	if _, err := Predict(bad); err == nil {
		t.Error("out-of-range overlap should error")
	}
}

func TestMemoryAttachedToResult(t *testing.T) {
	res, err := Predict(specFor(t, valdata.Table1()[1]))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryPerDevice.Total() <= 0 {
		t.Error("memory footprint missing from result")
	}
}

func TestMoreMicrobatchesAmortizeBubble(t *testing.T) {
	spec := specFor(t, valdata.Table1()[1]) // PP=8, batch 64
	small, _ := Predict(spec)
	spec.GlobalBatch = 128
	big, _ := Predict(spec)
	// Per-sequence time should improve with more microbatches.
	if big.Total/128 >= small.Total/64 {
		t.Error("larger batch should amortize the pipeline bubble")
	}
}

// TestPredictShapeSharesAcrossPlans feeds one spec's Shape to specs that
// differ from it only in what PredictShape computes — DP/PP split,
// schedule, global batch, recompute regime and DP overlap — and requires
// each result to equal a fresh Predict exactly.
func TestPredictShapeSharesAcrossPlans(t *testing.T) {
	for _, c := range valdata.Table1() {
		base := specFor(t, c)
		sh := ShapeOf(base)
		n := 0
		for _, pp := range []int{1, 2, 3, 4, 5, 7, 8} {
			if base.Model.Layers%pp != 0 || base.System.NumDevices()%(base.Map.TP*pp) != 0 {
				continue
			}
			for _, sched := range []parallel.Schedule{parallel.OneFOneB, parallel.Interleaved1F1B} {
				for _, rc := range []memfoot.Recompute{memfoot.NoRecompute, memfoot.Selective, memfoot.Full} {
					s := base
					s.Map.PP = pp
					s.Map.DP = base.System.NumDevices() / (base.Map.TP * pp)
					s.Map.Schedule, s.Map.VirtualStages = sched, 0
					if sched == parallel.Interleaved1F1B {
						if pp < 2 || base.Model.Layers%(2*pp) != 0 {
							continue
						}
						s.Map.VirtualStages = 2
					}
					s.GlobalBatch = 2 * s.Map.DP * pp
					s.Recompute, s.DPOverlap = rc, 0.5
					want, err := Predict(s)
					if err != nil {
						t.Fatalf("%s %v: %v", c.Model, s.Map, err)
					}
					got, err := PredictShape(s, sh)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %v %v: shared shape gives\n%+v\nfresh Predict\n%+v", c.Model, s.Map, rc, got, want)
					}
					n++
				}
			}
		}
		if n == 0 {
			t.Errorf("%s: no plan variant exercised", c.Model)
		}
	}
}

// TestPredictAllocBudget pins the allocation counts of the training
// predictor: PredictShape on a priced shape allocates nothing (the sweep
// engine's inner loop), and a fresh Predict stays within its budget —
// measured 25: roofline.New, one Levels slice per roofline estimate and
// the embedding/logits op lists (the layer's op list is sized once).
func TestPredictAllocBudget(t *testing.T) {
	for _, c := range valdata.Table1() {
		s := specFor(t, c)
		sh := ShapeOf(s)
		for _, rc := range []memfoot.Recompute{memfoot.NoRecompute, memfoot.Selective, memfoot.Full} {
			s.Recompute = rc
			if a := testing.AllocsPerRun(20, func() { _, _ = PredictShape(s, sh) }); a != 0 {
				t.Errorf("%s %v: warm PredictShape allocates %.0f times, want 0", c.Model, rc, a)
			}
			const budget = 25
			if a := testing.AllocsPerRun(20, func() { _, _ = Predict(s) }); a > budget {
				t.Errorf("%s %v: fresh Predict allocates %.0f times, budget %d", c.Model, rc, a, budget)
			}
		}
	}
}
