package kernels

import (
	"math"
	"testing"

	"optimus/internal/model"
	"optimus/internal/tech"
)

func trainExec(tp int, sp bool) Exec {
	return Exec{Batch: 1, Seq: 2048, Context: 2048, TP: tp, SP: sp,
		Precision: tech.BF16, Phase: TrainForward}
}

func findOp(t *testing.T, ops []Op, name string) Op {
	t.Helper()
	for _, o := range ops {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("op %q not found", name)
	return Op{}
}

func TestLayerForwardGEMMFLOPs(t *testing.T) {
	// Per-layer forward FLOPs for a GPT at TP=1 must match the textbook
	// 24·b·s·h² + 4·b·s²·h (attention+MLP tensor contractions).
	cfg := model.GPT175B()
	e := trainExec(1, false)
	tot := Summarize(LayerForward(cfg, e))
	h := float64(cfg.Hidden)
	s := float64(e.Seq)
	want := 24*s*h*h + 4*s*s*h
	if math.Abs(tot.GEMMFLOPs-want)/want > 1e-9 {
		t.Errorf("layer GEMM FLOPs = %g, want %g", tot.GEMMFLOPs, want)
	}
}

func TestTPDividesGEMMWork(t *testing.T) {
	cfg := model.GPT175B()
	full := Summarize(LayerForward(cfg, trainExec(1, false)))
	split := Summarize(LayerForward(cfg, trainExec(8, false)))
	ratio := full.GEMMFLOPs / split.GEMMFLOPs
	if math.Abs(ratio-8) > 1e-9 {
		t.Errorf("TP=8 should divide GEMM FLOPs by 8, got ratio %g", ratio)
	}
}

func TestMegatronCommPattern(t *testing.T) {
	// §3.2: exactly one all-reduce per block per forward pass — two per
	// layer — of the full activation size s·b·h.
	cfg := model.GPT175B()
	e := trainExec(8, false)
	ops := LayerForward(cfg, e)
	var ars int
	for _, o := range ops {
		if o.Kind == KindAllReduce {
			ars++
			want := float64(e.Seq*e.Batch*cfg.Hidden) * 2 // bf16 bytes
			if o.CommBytes != want {
				t.Errorf("all-reduce bytes = %g, want %g", o.CommBytes, want)
			}
		}
	}
	if ars != 2 {
		t.Errorf("layer has %d all-reduces, want 2", ars)
	}
}

func TestSequenceParallelSwapsCollectives(t *testing.T) {
	// SP replaces each all-reduce with an all-gather + reduce-scatter pair
	// of equal total volume and divides the norm/dropout elements by TP.
	cfg := model.GPT175B()
	noSP := LayerForward(cfg, trainExec(8, false))
	withSP := LayerForward(cfg, trainExec(8, true))

	if Summarize(withSP).CommBytes != Summarize(noSP).CommBytes {
		t.Errorf("SP comm volume = %g, want equal to non-SP %g",
			Summarize(withSP).CommBytes, Summarize(noSP).CommBytes)
	}
	var ag, rs, ar int
	for _, o := range withSP {
		switch o.Kind {
		case KindAllGather:
			ag++
		case KindReduceScatter:
			rs++
		case KindAllReduce:
			ar++
		}
	}
	if ag != 2 || rs != 2 || ar != 0 {
		t.Errorf("SP collectives = %d AG, %d RS, %d AR; want 2,2,0", ag, rs, ar)
	}

	n1 := findOp(t, noSP, "norm1").EW.Elements
	n1sp := findOp(t, withSP, "norm1").EW.Elements
	if math.Abs(n1/n1sp-8) > 1e-9 {
		t.Errorf("SP should divide norm elements by TP: %g vs %g", n1, n1sp)
	}
}

func TestTrainingAddsDropout(t *testing.T) {
	cfg := model.GPT22B()
	train := LayerForward(cfg, trainExec(1, false))
	infer := LayerForward(cfg, Exec{Batch: 1, Seq: 200, Context: 200, TP: 1,
		Precision: tech.FP16, Phase: Prefill})
	hasDropout := func(ops []Op) bool {
		for _, o := range ops {
			if o.Name == "attn-dropout" {
				return true
			}
		}
		return false
	}
	if !hasDropout(train) {
		t.Error("training layer must include attention dropout")
	}
	if hasDropout(infer) {
		t.Error("inference layer must not include dropout")
	}
}

// TestLayerForwardFitsPresize pins maxLayerOps to the largest layer
// (training, sequence parallelism, unfused attention): LayerForward sizes
// its op list once, so a new op past the bound would regrow it.
func TestLayerForwardFitsPresize(t *testing.T) {
	most := 0
	for _, cfg := range []model.Config{model.GPT22B(), model.Llama2_13B()} {
		for _, sp := range []bool{false, true} {
			for _, flash := range []bool{false, true} {
				e := trainExec(8, sp)
				e.Flash = flash
				ops := LayerForward(cfg, e)
				if cap(ops) != maxLayerOps {
					t.Errorf("%s sp=%v flash=%v: %d ops regrew the list to cap %d, maxLayerOps %d",
						cfg.Name, sp, flash, len(ops), cap(ops), maxLayerOps)
				}
				most = max(most, len(ops))
			}
		}
	}
	if most != maxLayerOps {
		t.Errorf("largest layer has %d ops, maxLayerOps %d", most, maxLayerOps)
	}
}

func TestDecodeShapes(t *testing.T) {
	// One decode step: GEMM rows = batch, attention reads the whole cache.
	cfg := model.Llama2_13B()
	e := Exec{Batch: 1, Seq: 1, Context: 300, TP: 1, Precision: tech.FP16, Phase: Decode}
	ops := LayerForward(cfg, e)

	qkv := findOp(t, ops, "qkv").GEMM
	if qkv.M != 1 || qkv.K != 5120 || qkv.N != 3*5120 {
		t.Errorf("decode qkv = %dx%dx%d", qkv.M, qkv.N, qkv.K)
	}
	if !qkv.IsGEMV() {
		t.Error("decode qkv should be a GEMV")
	}
	sc := findOp(t, ops, "scores").GEMM
	if sc.M != 1 || sc.N != 300 || sc.K != 128 || sc.Batch != 40 {
		t.Errorf("decode scores = %+v", sc)
	}
	av := findOp(t, ops, "attn-values").GEMM
	if av.K != 300 || av.N != 128 {
		t.Errorf("decode attn-values = %+v", av)
	}
}

func TestGQAShrinksKVProjections(t *testing.T) {
	cfg := model.Llama2_70B() // 64 heads, 8 KV heads
	e := Exec{Batch: 1, Seq: 200, Context: 200, TP: 8, Precision: tech.FP16, Phase: Prefill}
	qkv := findOp(t, LayerForward(cfg, e), "qkv").GEMM
	// Per rank: 8 query heads + 2×1 KV heads, each 128 wide.
	want := (8 + 2*1) * 128
	if qkv.N != want {
		t.Errorf("GQA qkv width = %d, want %d", qkv.N, want)
	}
}

func TestLlamaHasRoPEAndSwiGLU(t *testing.T) {
	cfg := model.Llama2_7B()
	ops := LayerForward(cfg, Exec{Batch: 1, Seq: 128, Context: 128, TP: 1,
		Precision: tech.FP16, Phase: Prefill})
	findOp(t, ops, "rope")
	findOp(t, ops, "swiglu")
	findOp(t, ops, "mlp-gate-up")
	for _, o := range ops {
		if o.Name == "gelu" {
			t.Error("llama layer should not contain GELU")
		}
	}
}

func TestGPTHasGELUNoRoPE(t *testing.T) {
	cfg := model.GPT22B()
	ops := LayerForward(cfg, trainExec(1, false))
	findOp(t, ops, "gelu")
	for _, o := range ops {
		if o.Name == "rope" {
			t.Error("GPT layer should not contain RoPE")
		}
	}
}

func TestEmbeddingAndLogits(t *testing.T) {
	cfg := model.GPT175B()
	e := trainExec(8, false)
	emb := EmbeddingForward(cfg, e)
	if len(emb) != 2 { // gather + learned positions
		t.Errorf("GPT embedding ops = %d, want 2", len(emb))
	}
	lg := LogitsForward(cfg, e)
	g := findOp(t, lg, "logits").GEMM
	if g.N != cfg.Vocab/8 || g.K != cfg.Hidden || g.M != 2048 {
		t.Errorf("logits GEMM = %+v", g)
	}

	// Llama has no learned positions: single embedding op.
	if got := len(EmbeddingForward(model.Llama2_7B(), Exec{Batch: 1, Seq: 8, Context: 8, TP: 1, Precision: tech.FP16, Phase: Prefill})); got != 1 {
		t.Errorf("llama embedding ops = %d, want 1", got)
	}
}

func TestExecValidate(t *testing.T) {
	bad := []Exec{
		{Batch: 0, Seq: 1, Context: 1, TP: 1, Phase: Decode},
		{Batch: 1, Seq: 2, Context: 2, TP: 1, Phase: Decode}, // decode must be seq 1
		{Batch: 1, Seq: 8, Context: 8, TP: 1, SP: true, Phase: Prefill},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	good := Exec{Batch: 1, Seq: 1, Context: 64, TP: 2, Precision: tech.FP16, Phase: Decode}
	if err := good.Validate(); err != nil {
		t.Errorf("valid exec rejected: %v", err)
	}
}

func TestLayerForwardPanicsOnInvalidExec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid exec should panic")
		}
	}()
	LayerForward(model.GPT7B(), Exec{})
}

func TestSummarizeCounts(t *testing.T) {
	cfg := model.GPT175B()
	tot := Summarize(LayerForward(cfg, trainExec(8, false)))
	if tot.GEMMCount != 5 { // qkv, scores, av, proj, mlp-up, mlp-down = 6 for GPT
		// GPT GELU MLP has 2 GEMMs: up and down → total 6.
		if tot.GEMMCount != 6 {
			t.Errorf("GEMM count = %d, want 6", tot.GEMMCount)
		}
	}
	if tot.CollCount != 2 {
		t.Errorf("collective count = %d, want 2", tot.CollCount)
	}
	if tot.EWCount == 0 || tot.EWBytes <= 0 {
		t.Error("element-wise ops missing")
	}
}

func TestKindAndPhaseStrings(t *testing.T) {
	if KindGEMM.String() != "gemm" || KindAllGather.String() != "all-gather" {
		t.Error("kind names wrong")
	}
	if Prefill.String() != "prefill" || Decode.String() != "decode" {
		t.Error("phase names wrong")
	}
}

// The attention score and value GEMMs must read the KV cache: their
// compulsory bytes grow linearly with context while QKV stays fixed.
func TestDecodeKVReadGrowsWithContext(t *testing.T) {
	cfg := model.Llama2_13B()
	at := func(ctx int) float64 {
		e := Exec{Batch: 1, Seq: 1, Context: ctx, TP: 1, Precision: tech.FP16, Phase: Decode}
		ops := LayerForward(cfg, e)
		return findOp(t, ops, "scores").GEMM.CompulsoryBytes() +
			findOp(t, ops, "attn-values").GEMM.CompulsoryBytes()
	}
	b100, b400 := at(100), at(400)
	if ratio := b400 / b100; math.Abs(ratio-4) > 0.15 {
		t.Errorf("KV read should scale ~linearly with context: ratio %g", ratio)
	}
}
