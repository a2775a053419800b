// Package train predicts the per-batch iteration time of distributed LLM
// training (paper §3, validated in §4.2): per-device kernel time from the
// hierarchical roofline, Megatron tensor-parallel collectives, pipeline
// schedules with their bubbles and point-to-point transfers, the
// data-parallel gradient all-reduce, activation recomputation overheads,
// and the optimizer step — decomposed into the compute / communication /
// other categories of the paper's Fig. 5.
//
// Predict runs in two parts. ShapeOf prices a spec's Shape: the roofline
// and TP-fabric cost of one microbatch through a layer, the embedding and
// the output head, which depend only on the model, the system, TP, SP,
// the microbatch size, the sequence length, flash attention and the
// precisions. PredictShape does the rest — pipeline, data-parallel,
// optimizer, MFU, traffic and memory — from a Shape without allocating.
// A design-space search that ranks many mappings of one shape prices the
// shape once (ShapeOf) and each mapping from it (PredictShape); Predict
// validates a spec and runs both parts, with the same float operations in
// the same order, so the two routes give bit-identical results.
package train

import (
	"fmt"
	"math"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/kernels"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// Spec fixes one training experiment.
type Spec struct {
	Model  model.Config
	System *arch.System
	Map    parallel.Mapping
	// GlobalBatch is the batch size in sequences per iteration.
	GlobalBatch int
	// Seq is the training sequence length.
	Seq int
	// Precision is the GEMM compute precision (BF16 on A100, FP8 on
	// H100/H200, FP4 on B200 in the paper's Fig. 5 study).
	Precision tech.Precision
	// Store is the activation/weight storage precision; zero means BF16.
	Store tech.Precision
	// Recompute selects the activation recomputation regime.
	Recompute memfoot.Recompute
	// Flash enables IO-aware fused attention (§1.1); pair with Selective
	// recomputation for consistent memory accounting.
	Flash bool
	// DPOverlap is the fraction of the data-parallel gradient all-reduce
	// hidden under the backward pass (0 = fully exposed).
	DPOverlap float64
}

func (s Spec) store() tech.Precision {
	if s.Store != tech.FP32 {
		return s.Store
	}
	return tech.BF16
}

// Validate checks the experiment's consistency.
func (s Spec) Validate() error {
	if s.System == nil {
		return fmt.Errorf("train: no system")
	}
	if err := s.System.Validate(); err != nil {
		return err
	}
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if err := s.Map.Validate(s.Model.Layers, s.GlobalBatch); err != nil {
		return err
	}
	if s.Map.Devices() != s.System.NumDevices() {
		return fmt.Errorf("train: mapping needs %d devices, system has %d",
			s.Map.Devices(), s.System.NumDevices())
	}
	if s.Seq <= 0 {
		return fmt.Errorf("train: non-positive sequence length %d", s.Seq)
	}
	if s.DPOverlap < 0 || s.DPOverlap > 1 {
		return fmt.Errorf("train: DP overlap %g outside [0,1]", s.DPOverlap)
	}
	return nil
}

// Result is the per-iteration prediction with the Fig. 5 decomposition and
// finer detail.
type Result struct {
	// Total is the predicted time per batch in seconds.
	Total float64

	// Compute is on-device kernel time (GEMM + element-wise + recompute).
	Compute float64
	// Communication is TP collectives + PP transfers + DP all-reduce.
	Communication float64
	// Other is pipeline bubble + optimizer step (the paper's Fig. 5
	// "Other" category).
	Other float64

	// Fine-grained components (all in seconds, per iteration).
	GEMMTime      float64
	EWTime        float64
	RecomputeTime float64
	TPComm        float64
	PPComm        float64
	DPComm        float64
	Bubble        float64
	OptimizerStep float64

	// GEMMComputeBound and GEMMMemoryBound split per-iteration GEMM time
	// by roofline bound type (Fig. 7).
	GEMMComputeBound float64
	GEMMMemoryBound  float64

	// ModelFLOPs is the useful (no-recompute) FLOP count per iteration
	// across the whole system; MFU = ModelFLOPs / (Total × system peak).
	ModelFLOPs float64
	MFU        float64

	// DRAMBytes is the off-chip traffic per device per iteration and
	// WireBytes the per-device network traffic — inputs to the energy
	// model (internal/energy).
	DRAMBytes float64
	WireBytes float64

	// MemoryPerDevice is the worst-stage footprint.
	MemoryPerDevice memfoot.Breakdown
}

// bwdGEMMFactor: the backward pass runs two GEMMs (activation and weight
// gradients) per forward GEMM.
const bwdGEMMFactor = 2.0

// bwdEWFactor: backward element-wise traffic relative to forward (gradient
// streams are comparable; norm backward adds reduction passes).
const bwdEWFactor = 1.5

// layerCost aggregates the per-microbatch forward cost of an op list.
type layerCost struct {
	gemm      float64
	gemmComp  float64 // compute-bound share of gemm
	gemmMem   float64 // memory-bound share
	ew        float64
	comm      float64
	commCount int

	// traffic accounting for the energy model
	gemmBytes float64 // off-chip bytes moved by GEMMs
	ewBytes   float64 // off-chip bytes moved by element-wise kernels
	wireBytes float64 // per-device network bytes (ring-equivalent)
}

// collectiveTime resolves one collective op against the TP group fabric.
func collectiveTime(op kernels.Op, tp int, link arch.Link) float64 {
	switch op.Kind {
	case kernels.KindAllReduce:
		return comm.AllReduceTime(comm.Ring, op.CommBytes, tp, link)
	case kernels.KindAllGather:
		return comm.AllGatherTime(op.CommBytes, tp, link)
	case kernels.KindReduceScatter:
		return comm.ReduceScatterTime(op.CommBytes, tp, link)
	default:
		return 0
	}
}

// costOps runs an op list through the roofline engine and the TP fabric.
// With replayedOnly it costs only the ops selective recomputation replays
// (scores, softmax, attention dropout — Eq. 2's discarded tensors), in
// list order, so the subset sums the same way a list of its own would.
func costOps(eng *roofline.Engine, ops []kernels.Op, tp int, link arch.Link, replayedOnly bool) layerCost {
	var c layerCost
	nf := float64(tp)
	for i := range ops {
		op := &ops[i]
		if replayedOnly && !replayed(op.Name) {
			continue
		}
		switch op.Kind {
		case kernels.KindGEMM:
			est := eng.EstimateGEMM(op.GEMM)
			c.gemm += est.Time
			c.gemmBytes += est.DRAMBytes
			if est.Bound == roofline.BoundCompute {
				c.gemmComp += est.Time
			} else {
				c.gemmMem += est.Time
			}
		case kernels.KindElementwise:
			est := eng.EstimateElementwise(op.EW)
			c.ew += est.Time
			c.ewBytes += est.DRAMBytes
		case kernels.KindFused:
			est := eng.EstimateFused(op.Fused)
			c.gemm += est.Time
			c.gemmBytes += est.DRAMBytes
			if est.Bound == roofline.BoundCompute {
				c.gemmComp += est.Time
			} else {
				c.gemmMem += est.Time
			}
		default:
			c.comm += collectiveTime(*op, tp, link)
			c.commCount++
			if tp > 1 {
				// Per-device wire traffic of a ring collective: an
				// all-reduce moves 2K(N-1)/N, an all-gather or
				// reduce-scatter K(N-1)/N.
				factor := (nf - 1) / nf
				if op.Kind == kernels.KindAllReduce {
					factor *= 2
				}
				c.wireBytes += op.CommBytes * factor
			}
		}
	}
	return c
}

// replayed reports whether selective recomputation replays the named op.
func replayed(name string) bool {
	switch name {
	case "scores", "softmax", "attn-dropout":
		return true
	}
	return false
}

// Shape is the shape-only part of a training prediction: the forward
// costs of one microbatch through one transformer layer (and through the
// subset selective recomputation replays), the embedding and the output
// head, plus their forward GEMM FLOPs. It depends on the model, the
// device and TP link of the system, the microbatch size, the sequence
// length, TP, SP, flash attention and the precisions — not on DP, PP,
// the pipeline schedule, the microbatch count, the global batch or the
// recompute regime, so every candidate that differs only in those shares
// one Shape. A Shape is immutable once built.
type Shape struct {
	fwd        layerCost // one layer's forward pass
	selective  layerCost // the ops of fwd selective recomputation replays
	emb, logit layerCost // embedding and output head
	// layerFLOPs and logitFLOPs are the forward GEMM FLOPs of one layer
	// and of the output head.
	layerFLOPs, logitFLOPs float64
}

// ShapeOf prices s's shape: the roofline and TP-fabric cost of every
// forward op, the part of Predict that PredictShape does not redo. s must
// be valid (Validate).
func ShapeOf(s Spec) *Shape {
	sh := shapeOf(s)
	return &sh
}

func shapeOf(s Spec) Shape {
	eng := roofline.New(s.System.Device)
	tp := s.Map.TP
	tpLink := s.System.LinkBetween(tp)
	exec := kernels.Exec{
		Batch:     s.Map.Microbatch,
		Seq:       s.Seq,
		Context:   s.Seq,
		TP:        tp,
		SP:        s.Map.SP,
		Flash:     s.Flash,
		Precision: s.Precision,
		Store:     s.store(),
		Phase:     kernels.TrainForward,
	}
	layerOps := kernels.LayerForward(s.Model, exec)
	logitOps := kernels.LogitsForward(s.Model, exec)
	return Shape{
		fwd:        costOps(eng, layerOps, tp, tpLink, false),
		selective:  costOps(eng, layerOps, tp, tpLink, true),
		emb:        costOps(eng, kernels.EmbeddingForward(s.Model, exec), tp, tpLink, false),
		logit:      costOps(eng, logitOps, tp, tpLink, false),
		layerFLOPs: kernels.Summarize(layerOps).GEMMFLOPs,
		logitFLOPs: kernels.Summarize(logitOps).GEMMFLOPs,
	}
}

// Predict estimates the iteration time of one training batch.
func Predict(s Spec) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	sh := shapeOf(s)
	return PredictShape(s, &sh)
}

// PredictShape is Predict for a valid s whose shape sh already priced
// (sh is ShapeOf of s or of any spec with the same shape): the pipeline,
// data-parallel, optimizer, MFU, traffic and memory arithmetic, bit for
// bit Predict's. It does not validate s.
//
//optimus:hotpath
func PredictShape(s Spec, sh *Shape) (Result, error) {
	sys := s.System
	m := s.Map
	nMicro := m.Microbatches(s.GlobalBatch)
	fwd := sh.fwd

	// Recompute cost per layer per microbatch (device + comm components).
	var recompute layerCost
	switch s.Recompute {
	case memfoot.Full:
		recompute = fwd
	case memfoot.Selective:
		recompute = sh.selective
	}

	layers := m.LayersPerDevice(s.Model.Layers)
	lf := float64(layers)

	// Per-microbatch, per-stage device time and TP communication.
	fwdDevice := lf * (fwd.gemm + fwd.ew)
	bwdDevice := lf * (bwdGEMMFactor*fwd.gemm + bwdEWFactor*fwd.ew)
	recompDevice := lf * (recompute.gemm + recompute.ew)
	fwdComm := lf * fwd.comm
	bwdComm := lf * fwd.comm // mirrored collectives in backward
	recompComm := lf * recompute.comm

	// Embedding and output head on the boundary stages; the pipeline's
	// critical path takes the slower of the two.
	embCost, logitCost := sh.emb, sh.logit
	embDevice := embCost.gemm + embCost.ew
	logitDevice := logitCost.gemm + logitCost.ew
	boundary := math.Max(embDevice*(1+bwdGEMMFactor), logitDevice*(1+bwdGEMMFactor))

	// Slot time: one microbatch's forward+backward(+recompute) on the
	// slowest stage, including its TP collectives.
	slotDevice := fwdDevice + bwdDevice + recompDevice + boundary
	slotComm := fwdComm + bwdComm + recompComm
	slot := slotDevice + slotComm

	// Pipeline: (m + bubble) slots plus the exposed fill/drain transfers.
	p2pBytes := float64(m.Microbatch*s.Seq*s.Model.Hidden) * s.store().Bytes()
	ppLink := sys.Inter
	if m.TP*m.PP <= sys.DevicesPerNode {
		ppLink = sys.Intra
	}
	var ppComm float64
	if m.PP > 1 {
		perTransfer := comm.P2PTime(p2pBytes, ppLink)
		// Fill and drain cross every stage boundary once each way; the
		// steady-state transfers overlap with compute.
		ppComm = 2 * float64(m.P2PTransfersPerMicrobatch()) * perTransfer
	}

	// Data-parallel gradient all-reduce over the DP group.
	var dpComm float64
	if m.DP > 1 {
		gradBytes := memfoot.ParamsPerDevice(s.Model, m) * s.store().Bytes()
		dpLink := sys.Inter
		if m.Devices() <= sys.DevicesPerNode {
			dpLink = sys.Intra
		}
		dpComm = comm.AllReduceTime(comm.Ring, gradBytes, m.DP, dpLink) * (1 - s.DPOverlap)
	}

	// Optimizer step: a streaming pass over parameters, gradients and
	// optimizer state (read grad+master+m+v, write master+m+v+param ≈ 28
	// bytes per parameter at mixed precision).
	const optimizerBytesPerParam = 28
	dram := sys.Device.DRAMLevel()
	optStep := memfoot.ParamsPerDevice(s.Model, m) * optimizerBytesPerParam / dram.EffBW()

	bubble := m.BubbleSlots() * slot

	// Attribute the busy slots (one per microbatch) to compute and
	// communication; the bubble slots go to Other.
	busy := float64(nMicro)

	res := Result{
		GEMMTime:      busy * (lf*(1+bwdGEMMFactor)*fwd.gemm + boundary),
		EWTime:        busy * lf * (1 + bwdEWFactor) * fwd.ew,
		RecomputeTime: busy * recompDevice,
		TPComm:        busy * slotComm,
		PPComm:        ppComm,
		DPComm:        dpComm,
		Bubble:        bubble,
		OptimizerStep: optStep,
	}

	res.Compute = res.GEMMTime + res.EWTime + res.RecomputeTime
	res.Communication = res.TPComm + res.PPComm + res.DPComm
	res.Other = res.Bubble + res.OptimizerStep
	res.Total = res.Compute + res.Communication + res.Other

	// Bound-type split of GEMM time (forward shapes; backward mirrors).
	frac := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	res.GEMMComputeBound = res.GEMMTime * frac(fwd.gemmComp, fwd.gemm)
	res.GEMMMemoryBound = res.GEMMTime * frac(fwd.gemmMem, fwd.gemm)

	// Useful model FLOPs: forward GEMMs × 3 (fwd + 2x bwd), no recompute.
	perLayerFwd, logitFwd := sh.layerFLOPs, sh.logitFLOPs
	perDevice := (lf*perLayerFwd + logitFwd) * 3 * float64(nMicro)
	res.ModelFLOPs = perDevice * float64(m.Devices())
	_, peak := sys.Device.BestCompute(s.Precision)
	if peak > 0 && res.Total > 0 {
		res.MFU = res.ModelFLOPs / (res.Total * peak * float64(sys.NumDevices()))
	}

	// Traffic accounting for the energy model, mirroring the time factors.
	fwdDevBytes := fwd.gemmBytes*(1+bwdGEMMFactor) + fwd.ewBytes*(1+bwdEWFactor)
	recompBytes := recompute.gemmBytes + recompute.ewBytes
	boundaryBytes := (embCost.gemmBytes + embCost.ewBytes + logitCost.gemmBytes + logitCost.ewBytes) * (1 + bwdGEMMFactor)
	res.DRAMBytes = busy*(lf*(fwdDevBytes+recompBytes)+boundaryBytes) +
		memfoot.ParamsPerDevice(s.Model, m)*optimizerBytesPerParam
	res.WireBytes = busy * lf * (2*fwd.wireBytes + recompute.wireBytes)
	if m.PP > 1 {
		res.WireBytes += 2 * float64(m.P2PTransfersPerMicrobatch()) * p2pBytes
	}
	if m.DP > 1 {
		d := float64(m.DP)
		res.WireBytes += 2 * memfoot.ParamsPerDevice(s.Model, m) * s.store().Bytes() * (d - 1) / d
	}

	mem, err := memfoot.Train(memfoot.TrainSpec{
		Model: s.Model, Map: m, Seq: s.Seq, GlobalBatch: s.GlobalBatch,
		Recompute: s.Recompute,
	})
	if err != nil {
		return Result{}, err
	}
	res.MemoryPerDevice = mem

	return res, nil
}

// LayerGEMMBoundSplit returns the forward GEMM time of one transformer
// layer split by roofline bound type — the Fig. 7 decomposition.
func LayerGEMMBoundSplit(s Spec) (computeBound, memoryBound float64, err error) {
	if err := s.Validate(); err != nil {
		return 0, 0, err
	}
	fwd := shapeOf(s).fwd
	return fwd.gemmComp, fwd.gemmMem, nil
}
