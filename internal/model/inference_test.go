package model

import (
	"testing"

	"amped/internal/memkit"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// infModel is a small dense model for serving tests.
func infModel() transformer.Model {
	return transformer.Model{
		Name: "inf-base", Layers: 4, Hidden: 1024, Heads: 16,
		SeqLen: 2048, Vocab: 1000, FFNRatio: 4,
	}
}

func TestInferenceEvaluateBasics(t *testing.T) {
	m := infModel()
	sys := gqaCPSystem()
	inf := Inference{PromptLen: 512, GenTokens: 128}
	sess, err := CompileInference(&m, &sys, Training{}, nil, inf)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 2, DPInter: 2}
	bd, err := sess.Evaluate(mp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bd.TTFT() <= 0 || bd.PerToken() <= 0 {
		t.Fatalf("TTFT %v / PerToken %v, want positive", bd.TTFT(), bd.PerToken())
	}
	if got, want := bd.TokensPerSecond(), 8/float64(bd.PerToken()); got != want {
		t.Errorf("TokensPerSecond = %g, want %g", got, want)
	}
	if bd.PromptLen != 512 || bd.GenTokens != 128 || bd.GlobalBatch != 8 {
		t.Errorf("echoed workload = (%d, %d, %d), want (512, 128, 8)",
			bd.PromptLen, bd.GenTokens, bd.GlobalBatch)
	}
	if bd.BatchPerReplica != 4 {
		t.Errorf("BatchPerReplica = %g, want 4", bd.BatchPerReplica)
	}
	// Prefill latency carries the full pipeline traversal; here PP = 1 so
	// prefill compute is just the per-worker forward time, and it must
	// dominate a single decode step's compute (512 tokens vs 1).
	if bd.PrefillCompute <= bd.DecodeCompute {
		t.Errorf("prefill compute %v not above decode compute %v",
			bd.PrefillCompute, bd.DecodeCompute)
	}
	// The KV footprint must match the memkit accounting at full context.
	want := memkit.KVCacheBytesPerSeq(&m, mp.Normalized(), 512+128, sess.Training().Operands)
	if bd.KVBytesPerSeq != want {
		t.Errorf("KVBytesPerSeq = %v, want %v", bd.KVBytesPerSeq, want)
	}
	// Components must sum exactly to TTFT + PerToken.
	var sum float64
	for _, c := range bd.Components() {
		if c.Time < 0 {
			t.Errorf("component %q = %v, want non-negative", c.Name, c.Time)
		}
		sum += float64(c.Time)
	}
	got := float64(bd.TTFT()) + float64(bd.PerToken())
	if diff := sum - got; diff > 1e-12*sum || diff < -1e-12*sum {
		t.Errorf("component sum %g != TTFT+PerToken %g", sum, got)
	}
}

// TestInferenceKVReadsFolded pins the decode aggregate's KV-cache
// accounting: the attention class's streamed activation elements include
// the KVElems of every layer, so the roofline path prices cache reads
// against memory bandwidth with no special case.
func TestInferenceKVReadsFolded(t *testing.T) {
	m, err := transformer.Variant{KVHeads: 4, Window: 1024}.Apply(infModel())
	if err != nil {
		t.Fatal(err)
	}
	sys := gqaCPSystem()
	sess, err := CompileInference(&m, &sys, Training{}, nil, Inference{PromptLen: 512, GenTokens: 256})
	if err != nil {
		t.Fatal(err)
	}
	batch := 4
	agg := sess.computeDecodeAgg(batch)
	var wantAct, wantKV float64
	for l := 0; l < m.Layers; l++ {
		for _, op := range m.DecodeLayerOps(l, batch, sess.kmean) {
			if op.Sublayer == transformer.Attention {
				wantAct += float64(op.ActElems) + float64(op.KVElems)
				wantKV += float64(op.KVElems)
			}
		}
	}
	if wantKV <= 0 {
		t.Fatal("decode layer ops carry no KV reads")
	}
	if got := agg.cls[clsAttn].act; got != wantAct {
		t.Errorf("attention class act = %.17g, want %.17g (KV folded in)", got, wantAct)
	}
}

func TestInferenceEvaluateZeroAlloc(t *testing.T) {
	m := infModel()
	sys := gqaCPSystem()
	sess, err := CompileInference(&m, &sys, Training{Roofline: true}, nil, Inference{PromptLen: 512, GenTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 2, DPInter: 2}
	var bd InferenceBreakdown
	allocs := testing.AllocsPerRun(200, func() {
		if err := sess.EvaluateInferencePoint(mp, 8, &bd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvaluateInferencePoint allocated %.1f objects/op, want 0", allocs)
	}
}

func TestInferenceValidation(t *testing.T) {
	m := infModel()
	sys := gqaCPSystem()
	bad := []Inference{
		{PromptLen: 0, GenTokens: 8},
		{PromptLen: 8, GenTokens: 0},
		{PromptLen: 2000, GenTokens: 64}, // context exceeds SeqLen
	}
	for _, inf := range bad {
		if _, err := CompileInference(&m, &sys, Training{}, nil, inf); err == nil {
			t.Errorf("CompileInference(%+v) accepted, want error", inf)
		}
	}

	sess, err := CompileInference(&m, &sys, Training{}, nil, Inference{PromptLen: 1, GenTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	var bd InferenceBreakdown
	if err := sess.EvaluateInferencePoint(parallel.Mapping{}, 0, &bd); err == nil {
		t.Error("batch 0 accepted, want error")
	}
	if err := sess.EvaluateInferencePoint(parallel.Mapping{DPInter: 2}, 3, &bd); err == nil {
		t.Error("batch 3 with DP 2 accepted, want error")
	}
	// The compiled prefill model's sequence is the prompt: CP cannot exceed it.
	if err := sess.EvaluateInferencePoint(parallel.Mapping{CPIntra: 2}, 4, &bd); err == nil {
		t.Error("CP 2 over a 1-token prompt accepted, want error")
	}
}

// TestInferenceKeyDistinguishesWorkloads checks the cache key separates
// inference scenarios from the training scenario and from each other.
func TestInferenceKeyDistinguishesWorkloads(t *testing.T) {
	m := infModel()
	sys := gqaCPSystem()
	a, err := CompileInference(&m, &sys, Training{}, nil, Inference{PromptLen: 512, GenTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileInference(&m, &sys, Training{}, nil, Inference{PromptLen: 512, GenTokens: 128})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Error("different generation lengths share a key")
	}
	if a.Key() == tr.Key() {
		t.Error("inference key collides with the training scenario key")
	}
	a2, err := CompileInference(&m, &sys, Training{}, nil, Inference{PromptLen: 512, GenTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != a2.Key() {
		t.Error("identical scenarios produced different keys")
	}
}
