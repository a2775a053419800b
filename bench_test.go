// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, regenerating the experiment on every iteration and reporting
// its headline metric alongside the model's own evaluation cost, plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package optimus

import (
	"context"
	"runtime"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/gemv"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/repro"
	"optimus/internal/roofline"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// benchExperiment regenerates one experiment per iteration.
func benchExperiment(b *testing.B, id string) repro.Table {
	b.Helper()
	var tb repro.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = repro.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkTable1 regenerates the training validation and reports the mean
// relative error against the published Megatron-LM measurements.
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1")
	var errs []float64
	for _, c := range valdata.Table1() {
		spec, err := repro.TrainSpecFor(c)
		if err != nil {
			b.Fatal(err)
		}
		res, err := train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		errs = append(errs, units.RelErr(res.Total, c.RefSeconds))
	}
	b.ReportMetric(100*units.Mean(errs), "mean-err-%")
	b.ReportMetric(100*units.Max(errs), "max-err-%")
}

// BenchmarkTable2 regenerates the inference validation.
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2")
}

// BenchmarkTable4 regenerates the per-GEMM bound analysis.
func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4")
}

// BenchmarkFig3 regenerates the GEMV calibration and reports the clustered
// MAPE (paper: 5.4%).
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3")
	o := gemv.NewOracle(42)
	samples := gemv.Profile(o, gemv.LLMKernels())
	cal, err := gemv.Calibrate(samples, 6)
	if err != nil {
		b.Fatal(err)
	}
	st := gemv.Summarize(gemv.Evaluate(o, cal, samples))
	b.ReportMetric(100*st.MAPEClustered, "mape-clustered-%")
	b.ReportMetric(100*st.MAPEConstant, "mape-constant-%")
}

// BenchmarkFig4 regenerates the memory dissection.
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4")
}

// BenchmarkFig5 regenerates the GPU-generation scaling and reports the
// A100→B200 speedup (paper: ~35x).
func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5")
	plats := repro.Fig5Platforms()
	first, err := repro.Fig5Predict(plats[0])
	if err != nil {
		b.Fatal(err)
	}
	last, err := repro.Fig5Predict(plats[len(plats)-1])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric((first.Total/1024)/(last.Total/4096), "a100-to-b200-x")
}

// BenchmarkFig6 regenerates the technology-node DSE sweep (42 optimizer
// runs per iteration).
func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6")
}

// BenchmarkFig7 regenerates the bound-type evolution study.
func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "fig7")
}

// BenchmarkFig8 regenerates the inference bound-split study.
func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8")
}

// BenchmarkFig9 regenerates the DRAM-technology scaling study and reports
// the 8-GPU communication-to-memory ratio (paper: ~1.6x for Llama2-13B).
func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9")
	res, err := repro.Fig9Predict(repro.Fig9Points()[2], 8) // HBM2e-NV3
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.CommTime/res.MemoryTime, "comm-over-memory")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationRingVsTree compares the two all-reduce models on a
// decode-step payload at 8 GPUs: the tree's log-latency term is what lets
// inference scale (§3.4).
func BenchmarkAblationRingVsTree(b *testing.B) {
	link := arch.IntraLink(tech.NVLink3)
	const payload = 10240 // one decode-step activation, bytes
	var ring, tree float64
	for i := 0; i < b.N; i++ {
		ring = comm.AllReduceTime(comm.Ring, payload, 8, link)
		tree = comm.AllReduceTime(comm.DoubleBinaryTree, payload, 8, link)
	}
	b.ReportMetric(ring/tree, "ring-over-tree")
}

// BenchmarkAblationRecompute compares iteration times across the three
// recomputation regimes on the GPT-175B row.
func BenchmarkAblationRecompute(b *testing.B) {
	base, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	var none, full train.Result
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Recompute = memfoot.NoRecompute
		none, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Recompute = memfoot.Full
		full, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(full.Total/none.Total, "full-over-none")
}

// BenchmarkAblationSchedules compares pipeline bubbles across GPipe, 1F1B
// and interleaved 1F1B on the GPT-1008B row (PP=64).
func BenchmarkAblationSchedules(b *testing.B) {
	base, err := repro.TrainSpecFor(valdata.Table1()[3])
	if err != nil {
		b.Fatal(err)
	}
	var f1b1, il train.Result
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Map.Schedule = parallel.OneFOneB
		f1b1, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Map.Schedule = parallel.Interleaved1F1B
		spec.Map.VirtualStages = 2
		il, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f1b1.Bubble/il.Bubble, "bubble-1f1b-over-interleaved")
}

// BenchmarkAblationHierarchicalRoofline compares the hierarchical roofline
// against a flat (DRAM-only) one on the Table 4 QKV GEMM: the flat model
// is the DeepFlow behaviour §5.3 criticizes.
func BenchmarkAblationHierarchicalRoofline(b *testing.B) {
	full := roofline.New(arch.A100())
	flat := arch.A100()
	flat.Mem = flat.Mem[2:] // drop L1/L2: DRAM-only roofline
	flatEng := roofline.New(flat)
	g := roofline.GEMM{M: 200, N: 3 * 5120, K: 5120, Precision: tech.FP16}
	var h, f roofline.Estimate
	for i := 0; i < b.N; i++ {
		h = full.EstimateGEMM(g)
		f = flatEng.EstimateGEMM(g)
	}
	b.ReportMetric(h.Time/f.Time, "hier-over-flat")
}

// BenchmarkAblationSequenceParallel measures the SP gain on the 175B
// selective-recompute row.
func BenchmarkAblationSequenceParallel(b *testing.B) {
	base, err := repro.TrainSpecFor(valdata.Table1()[5])
	if err != nil {
		b.Fatal(err)
	}
	var off, on train.Result
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Map.SP = false
		off, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Map.SP = true
		on, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(off.Total/on.Total, "nosp-over-sp")
}

// BenchmarkAblationGEMVCalibration compares clustered vs constant DRAM
// utilization factors (Fig. 3's two point sets).
func BenchmarkAblationGEMVCalibration(b *testing.B) {
	o := gemv.NewOracle(42)
	samples := gemv.Profile(o, gemv.LLMKernels())
	var st gemv.Stats
	for i := 0; i < b.N; i++ {
		cal, err := gemv.Calibrate(samples, 6)
		if err != nil {
			b.Fatal(err)
		}
		st = gemv.Summarize(gemv.Evaluate(o, cal, samples))
	}
	b.ReportMetric(st.MAPEConstant/st.MAPEClustered, "constant-over-clustered-err")
}

// BenchmarkPredictTraining measures the raw cost of one training
// prediction (the DSE inner loop).
func BenchmarkPredictTraining(b *testing.B) {
	spec, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Predict(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictShape measures the sweep engine's per-candidate
// training cost: PredictShape on an already priced layer shape, the
// part of BenchmarkPredictTraining that is not shared across mappings.
func BenchmarkPredictShape(b *testing.B) {
	spec, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	sh := train.ShapeOf(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.PredictShape(spec, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictInference measures the raw cost of one inference
// prediction.
func BenchmarkPredictInference(b *testing.B) {
	spec, err := repro.InferSpecFor("Llama2-13B", 2, arch.A100(), tech.NVLink3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer0(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// infer0 keeps the infer import local to the benchmark file tidy.
func infer0(s InferSpec) (InferResult, error) { return PredictInference(s) }

// BenchmarkRooflineGEMM measures the kernel-model hot path.
func BenchmarkRooflineGEMM(b *testing.B) {
	eng := roofline.New(arch.A100())
	g := roofline.GEMM{M: 2048, N: 6144, K: 12288, Precision: tech.BF16}
	for i := 0; i < b.N; i++ {
		eng.EstimateGEMM(g)
	}
}

// BenchmarkMemoryFootprint measures the footprint model.
func BenchmarkMemoryFootprint(b *testing.B) {
	spec := memfoot.TrainSpec{
		Model: model.GPT530B(),
		Map: parallel.Mapping{
			DP: 1, TP: 8, PP: 35, Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		Seq: 2048, GlobalBatch: 280, Recompute: memfoot.Selective,
	}
	for i := 0; i < b.N; i++ {
		if _, err := memfoot.Train(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchSpec is a ~500-candidate plan-sweep grid: GPT-175B on 64
// A100s at two global batch sizes. It is memory-tight — most candidates
// overflow the device — so it exercises both the engine's feasibility
// pruning and the full costing path.
func sweepBenchSpec(b *testing.B) sweep.Spec {
	b.Helper()
	sys, err := arch.DGXA100(64)
	if err != nil {
		b.Fatal(err)
	}
	return sweep.Spec{
		Models:        []model.Config{model.GPT175B()},
		Systems:       []*arch.System{sys},
		GlobalBatches: []int{64, 128},
		Constraints:   sweep.Constraints{TopK: 10},
	}
}

// BenchmarkSweepSerial is the golden reference path: every candidate is
// costed with the full training predictor, one at a time.
func BenchmarkSweepSerial(b *testing.B) {
	spec := sweepBenchSpec(b)
	var res sweep.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sweep.Serial(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Enumerated), "candidates")
	b.ReportMetric(float64(res.Stats.Evaluated), "costed")
}

// BenchmarkSweepParallel is the concurrent engine on the same grid:
// bounded worker pool plus memory-feasibility pruning before costing. Its
// ranking is byte-identical to the serial path's (asserted by the
// internal/sweep equivalence tests); the speedup is the headline number
// later PRs must not regress.
func BenchmarkSweepParallel(b *testing.B) {
	spec := sweepBenchSpec(b)
	ctx := context.Background()
	var res sweep.Result
	var err error
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration: the speedup measured here is
		// pruning + the pool, not cache reuse.
		res, err = sweep.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Enumerated), "candidates")
	b.ReportMetric(float64(res.Stats.Pruned), "pruned")
}

// BenchmarkSweepColdEngine costs every candidate of the grid (overflow
// allowed, so nothing is pruned) on a fresh engine per iteration: no
// memo entry carries over, so it times the training evaluation path the
// engine takes on a memo miss — candidates sharing a layer shape price it
// once per engine.
func BenchmarkSweepColdEngine(b *testing.B) {
	spec := sweepBenchSpec(b)
	spec.Constraints.AllowOverflow = true
	ctx := context.Background()
	var res sweep.Result
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err = sweep.New(0).Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Evaluated)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}

// BenchmarkSweepWarmCache re-runs the grid on one engine whose memo
// already holds every evaluation — the steady state of a long planning
// session, and the target the cross-run result cache must hold. What it
// times is the engine layer alone: enumeration, dispatch and ranking.
func BenchmarkSweepWarmCache(b *testing.B) {
	spec := sweepBenchSpec(b)
	ctx := context.Background()
	e := sweep.New(0)
	if _, err := e.Run(ctx, spec); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	candidates := 0
	for i := 0; i < b.N; i++ {
		res, err := e.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		candidates += res.Stats.Enumerated
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(candidates), "B/candidate")
	b.ReportMetric(float64(candidates)/b.Elapsed().Seconds(), "candidates/s")
}
