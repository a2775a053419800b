// Package kernels enumerates the per-device operations of one transformer
// layer under Megatron-style tensor (and sequence) parallelism — the LLM
// task graph of the paper's Fig. 1 at kernel granularity. Each op is either
// a (batched) GEMM, a streaming element-wise kernel, or a collective
// placeholder that the training/inference engines resolve against a fabric.
//
// The op shapes implement the Megatron partitioning of §3.2: QKV columns
// and attention heads split across the TP group, the output and MLP-down
// projections split along rows, one all-reduce after the attention block
// and one after the MLP block in the forward pass (or the equivalent
// all-gather + reduce-scatter pair under sequence parallelism).
package kernels

import (
	"fmt"

	"optimus/internal/model"
	"optimus/internal/roofline"
	"optimus/internal/tech"
)

// Kind discriminates op categories.
type Kind int

const (
	KindGEMM Kind = iota
	KindElementwise
	KindFused
	KindAllReduce
	KindAllGather
	KindReduceScatter
)

// String names the op kind.
func (k Kind) String() string {
	switch k {
	case KindGEMM:
		return "gemm"
	case KindElementwise:
		return "elementwise"
	case KindFused:
		return "fused"
	case KindAllReduce:
		return "all-reduce"
	case KindAllGather:
		return "all-gather"
	case KindReduceScatter:
		return "reduce-scatter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one schedulable unit.
type Op struct {
	Name string
	Kind Kind
	// GEMM payload when Kind == KindGEMM.
	GEMM roofline.GEMM
	// EW payload when Kind == KindElementwise.
	EW roofline.Elementwise
	// Fused payload when Kind == KindFused.
	Fused roofline.Fused
	// CommBytes is the payload for collective kinds; the group is always
	// the TP group of the Exec that built the op.
	CommBytes float64
}

// Phase selects which pass of which workload the ops describe.
type Phase int

const (
	// TrainForward is one training forward pass over a full sequence.
	TrainForward Phase = iota
	// Prefill is the inference summarization pass over the prompt.
	Prefill
	// Decode is one autoregressive generation step.
	Decode
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case TrainForward:
		return "train-forward"
	case Prefill:
		return "prefill"
	case Decode:
		return "decode"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Exec fixes the execution context for op enumeration.
type Exec struct {
	// Batch is the per-device microbatch size in sequences.
	Batch int
	// Seq is the number of tokens processed per sequence this pass:
	// the sequence length for training/prefill, 1 for decode.
	Seq int
	// Context is the attention span: Seq for training/prefill, the current
	// KV-cache length for decode.
	Context int
	// TP is the tensor-parallel group size.
	TP int
	// SP enables sequence parallelism for the norm/dropout blocks (§1.3).
	SP bool
	// Flash fuses the attention core (scores, softmax, context) into one
	// IO-aware kernel that never materializes the s×s score matrix in
	// DRAM — the FlashAttention optimization of §1.1. Memory accounting
	// should then pair with selective recomputation, whose Eq. (2)
	// discount matches the tensors flash attention never stores.
	Flash bool
	// Precision is the GEMM compute precision (the tensor-engine format:
	// BF16 on Ampere, FP8 on Hopper, FP4 on Blackwell).
	Precision tech.Precision
	// Store is the activation storage precision driving element-wise
	// traffic and collective payloads; mixed-precision training keeps it
	// at 2 bytes even when GEMMs run in FP8/FP4. Leave zero to reuse
	// Precision.
	Store tech.Precision
	// Phase selects training forward, prefill, or decode.
	Phase Phase
}

// storeBytes returns the storage element size: Store if set, else the
// compute precision.
func (e Exec) storeBytes() float64 {
	if e.Store != tech.FP32 {
		return e.Store.Bytes()
	}
	return e.Precision.Bytes()
}

// Validate checks the execution context.
func (e Exec) Validate() error {
	switch {
	case e.Batch <= 0 || e.Seq <= 0 || e.Context <= 0 || e.TP <= 0:
		return fmt.Errorf("kernels: non-positive exec shape %+v", e)
	case e.Phase == Decode && e.Seq != 1:
		return fmt.Errorf("kernels: decode processes one token, got seq %d", e.Seq)
	case e.SP && e.Phase != TrainForward:
		return fmt.Errorf("kernels: sequence parallelism is a training optimization")
	}
	return nil
}

func (e Exec) training() bool { return e.Phase == TrainForward }

// tokens returns batch×seq, the GEMM row count of the pass.
func (e Exec) tokens() int { return e.Batch * e.Seq }

// spDiv divides element-wise work across the TP group under SP.
func (e Exec) spDiv() float64 {
	if e.SP {
		return float64(e.TP)
	}
	return 1
}

// Per-element traffic coefficients in units of element size; masks are one
// byte regardless of precision. A fused streaming kernel reads and writes
// each element once per logical pass.
const (
	normAccesses       = 2 // read + write (fused Welford statistics)
	actAccesses        = 2 // read + write
	gluAccesses        = 3 // read gate, read up, write
	softmaxAccesses    = 3 // fused online softmax: 2 reads + 1 write
	residualAccesses   = 3 // read x, read skip, write
	dropoutAddAccesses = 3 // read x, read skip, write (plus 1-byte mask)
	ropeAccesses       = 2 // read + write on Q,K rows
)

// LayerForward returns the ordered per-device ops of one transformer
// layer's forward pass for the given context.
func LayerForward(cfg model.Config, e Exec) []Op {
	return AppendLayerForward(make([]Op, 0, maxLayerOps), cfg, e)
}

// maxLayerOps bounds AppendLayerForward's op count: a training layer with
// sequence parallelism and unfused attention emits 18 ops.
const maxLayerOps = 18

// AppendLayerForward appends LayerForward's ops to dst and returns the
// extended slice — the allocation-free enumeration the inference step-cost
// engine reuses a scratch buffer with.
func AppendLayerForward(dst []Op, cfg model.Config, e Exec) []Op {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	eb := e.storeBytes()
	h := cfg.Hidden
	t := e.TP
	rows := e.tokens()
	headsPerRank := cfg.Heads / t
	if headsPerRank < 1 {
		headsPerRank = 1
	}
	kvPerRank := cfg.KVHeads / t
	if kvPerRank < 1 {
		kvPerRank = 1
	}
	hd := cfg.HeadDim()
	hiddenElems := float64(rows * h)

	ops := dst
	add := func(o Op) { ops = append(ops, o) }

	norm := func(name string) Op {
		return Op{Name: name, Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         name,
			Elements:     hiddenElems / e.spDiv(),
			BytesPerElem: normAccesses * eb,
			FLOPsPerElem: 8,
		}}
	}
	// Under SP, the norm output must be all-gathered before the block's
	// GEMMs; without SP the block input is already replicated.
	gatherIn := func() Op {
		return Op{Name: "sp-all-gather", Kind: KindAllGather, CommBytes: hiddenElems * eb}
	}
	// The block output partial sums are combined with an all-reduce, or a
	// reduce-scatter under SP (§3.2, Fig. 2).
	combineOut := func(name string) Op {
		if e.SP {
			return Op{Name: name + "-reduce-scatter", Kind: KindReduceScatter, CommBytes: hiddenElems * eb}
		}
		return Op{Name: name + "-all-reduce", Kind: KindAllReduce, CommBytes: hiddenElems * eb}
	}
	skipJoin := func(name string) Op {
		acc, extra := residualAccesses, 0.0
		if e.training() {
			acc, extra = dropoutAddAccesses, 1 // dropout mask byte
		}
		return Op{Name: name, Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         name,
			Elements:     hiddenElems / e.spDiv(),
			BytesPerElem: float64(acc)*eb + extra,
			FLOPsPerElem: 3,
		}}
	}

	// ---- Attention block ----
	add(norm("norm1"))
	if e.SP {
		add(gatherIn())
	}
	qkvCols := (headsPerRank + 2*kvPerRank) * hd
	add(Op{Name: "qkv", Kind: KindGEMM, GEMM: roofline.GEMM{
		M: rows, N: qkvCols, K: h, Precision: e.Precision,
	}})
	if !cfg.LearnedPositions {
		// RoPE rotation on the Q and K slices.
		add(Op{Name: "rope", Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         "rope",
			Elements:     float64(rows * (headsPerRank + kvPerRank) * hd),
			BytesPerElem: ropeAccesses * eb,
			FLOPsPerElem: 6,
		}})
	}
	scoreBatch := e.Batch * headsPerRank
	if e.Flash {
		// One IO-aware kernel: both attention GEMMs' FLOPs, but DRAM
		// traffic only for Q, K, V and the output — the score matrix
		// stays in on-chip memory (§1.1).
		qBytes := float64(e.Batch*e.Seq*headsPerRank*hd) * eb
		kvBytes := 2 * float64(e.Batch*e.Context*kvPerRank*hd) * eb
		flops := 4 * float64(scoreBatch) * float64(e.Seq) * float64(e.Context) * float64(hd)
		add(Op{Name: "flash-attention", Kind: KindFused, Fused: roofline.Fused{
			Name:      "flash-attention",
			FLOPs:     flops,
			DRAMBytes: 2*qBytes + kvBytes,
			Precision: e.Precision,
		}})
	} else {
		add(Op{Name: "scores", Kind: KindGEMM, GEMM: roofline.GEMM{
			M: e.Seq, N: e.Context, K: hd, Batch: scoreBatch, Precision: e.Precision,
		}})
		scoreElems := float64(scoreBatch * e.Seq * e.Context)
		add(Op{Name: "softmax", Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         "softmax",
			Elements:     scoreElems,
			BytesPerElem: softmaxAccesses * eb,
			FLOPsPerElem: 5,
		}})
		if e.training() {
			add(Op{Name: "attn-dropout", Kind: KindElementwise, EW: roofline.Elementwise{
				Name:         "attn-dropout",
				Elements:     scoreElems,
				BytesPerElem: actAccesses*eb + 1,
				FLOPsPerElem: 1,
			}})
		}
		add(Op{Name: "attn-values", Kind: KindGEMM, GEMM: roofline.GEMM{
			M: e.Seq, N: hd, K: e.Context, Batch: scoreBatch, Precision: e.Precision,
		}})
	}
	add(Op{Name: "attn-proj", Kind: KindGEMM, GEMM: roofline.GEMM{
		M: rows, N: h, K: headsPerRank * hd, Precision: e.Precision,
	}})
	add(combineOut("attn"))
	add(skipJoin("attn-skip"))

	// ---- MLP block ----
	add(norm("norm2"))
	if e.SP {
		add(gatherIn())
	}
	fPerRank := cfg.FFN / t
	if cfg.MLP == model.MLPSwiGLU {
		add(Op{Name: "mlp-gate-up", Kind: KindGEMM, GEMM: roofline.GEMM{
			M: rows, N: 2 * fPerRank, K: h, Precision: e.Precision,
		}})
		add(Op{Name: "swiglu", Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         "swiglu",
			Elements:     float64(rows * fPerRank),
			BytesPerElem: gluAccesses * eb,
			FLOPsPerElem: 8,
		}})
	} else {
		add(Op{Name: "mlp-up", Kind: KindGEMM, GEMM: roofline.GEMM{
			M: rows, N: fPerRank, K: h, Precision: e.Precision,
		}})
		add(Op{Name: "gelu", Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         "gelu",
			Elements:     float64(rows * fPerRank),
			BytesPerElem: actAccesses * eb,
			FLOPsPerElem: 8,
		}})
	}
	add(Op{Name: "mlp-down", Kind: KindGEMM, GEMM: roofline.GEMM{
		M: rows, N: h, K: fPerRank, Precision: e.Precision,
	}})
	add(combineOut("mlp"))
	add(skipJoin("mlp-skip"))

	return ops
}

// EmbeddingForward returns the input-embedding ops (token gather plus
// learned-position add where present).
func EmbeddingForward(cfg model.Config, e Exec) []Op {
	return AppendEmbeddingForward(nil, cfg, e)
}

// AppendEmbeddingForward appends EmbeddingForward's ops to dst.
func AppendEmbeddingForward(dst []Op, cfg model.Config, e Exec) []Op {
	eb := e.storeBytes()
	elems := float64(e.tokens() * cfg.Hidden)
	ops := append(dst, Op{Name: "embed-gather", Kind: KindElementwise, EW: roofline.Elementwise{
		Name:         "embed-gather",
		Elements:     elems,
		BytesPerElem: 2 * eb,
		FLOPsPerElem: 0,
	}})
	if cfg.LearnedPositions {
		ops = append(ops, Op{Name: "pos-add", Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         "pos-add",
			Elements:     elems,
			BytesPerElem: residualAccesses * eb,
			FLOPsPerElem: 1,
		}})
	}
	return ops
}

// LogitsForward returns the output-head ops: the final norm and the
// vocabulary projection, column-split across the TP group (vocab-parallel
// cross entropy needs no activation all-reduce).
func LogitsForward(cfg model.Config, e Exec) []Op {
	return AppendLogitsForward(nil, cfg, e)
}

// AppendLogitsForward appends LogitsForward's ops to dst.
func AppendLogitsForward(dst []Op, cfg model.Config, e Exec) []Op {
	eb := e.storeBytes()
	return append(dst,
		Op{Name: "final-norm", Kind: KindElementwise, EW: roofline.Elementwise{
			Name:         "final-norm",
			Elements:     float64(e.tokens() * cfg.Hidden),
			BytesPerElem: normAccesses * eb,
			FLOPsPerElem: 8,
		}},
		Op{Name: "logits", Kind: KindGEMM, GEMM: roofline.GEMM{
			M: e.tokens(), N: cfg.Vocab / e.TP, K: cfg.Hidden, Precision: e.Precision,
		}},
	)
}

// Totals aggregates an op stream.
type Totals struct {
	GEMMFLOPs float64
	GEMMBytes float64 // compulsory off-chip traffic
	EWBytes   float64
	// CommBytes is per-device wire traffic up to the ring (N-1)/N factor:
	// an all-reduce moves twice its payload, an all-gather or
	// reduce-scatter moves it once — which is why replacing the all-reduce
	// with an AG+RS pair under sequence parallelism is free (§1.3).
	CommBytes float64
	GEMMCount int
	EWCount   int
	CollCount int
}

// Summarize tallies an op list.
func Summarize(ops []Op) Totals {
	var t Totals
	for _, o := range ops {
		switch o.Kind {
		case KindGEMM:
			t.GEMMFLOPs += o.GEMM.FLOPs()
			t.GEMMBytes += o.GEMM.CompulsoryBytes()
			t.GEMMCount++
		case KindElementwise:
			t.EWBytes += o.EW.Elements * o.EW.BytesPerElem
			t.EWCount++
		case KindFused:
			t.GEMMFLOPs += o.Fused.FLOPs
			t.GEMMBytes += o.Fused.DRAMBytes
			t.GEMMCount++
		case KindAllReduce:
			t.CommBytes += 2 * o.CommBytes
			t.CollCount++
		default:
			t.CommBytes += o.CommBytes
			t.CollCount++
		}
	}
	return t
}
