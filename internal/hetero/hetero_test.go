package hetero

import (
	"math"
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// mixedPipeline is an A100+H100 two-generation deployment of Megatron 145B.
func mixedPipeline() Pipeline {
	m := transformer.Megatron145B()
	return Pipeline{
		Model: &m,
		Stages: []Stage{
			{Accel: hardware.NvidiaA100(), TP: 8},
			{Accel: hardware.NvidiaA100(), TP: 8},
			{Accel: hardware.NvidiaH100(), TP: 8},
			{Accel: hardware.NvidiaH100(), TP: 8},
		},
		Batch:        parallel.Batch{Global: 512, Microbatches: 64},
		Interconnect: hardware.InfinibandHDR(),
	}
}

func TestBalanceProportionalToSpeed(t *testing.T) {
	p, err := mixedPipeline().Balance()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range p.Stages {
		total += s.Layers
	}
	if total != 80 {
		t.Fatalf("balanced layers = %d, want 80", total)
	}
	// H100 stages (FP8-native: ~4 passes faster on FP16-param mixed
	// precision than... concretely: faster) must carry more layers.
	if p.Stages[2].Layers <= p.Stages[0].Layers {
		t.Errorf("H100 stage layers %d not above A100's %d",
			p.Stages[2].Layers, p.Stages[0].Layers)
	}
	// Identical stages get identical assignments (within one layer of
	// rounding).
	if d := p.Stages[0].Layers - p.Stages[1].Layers; d > 1 || d < -1 {
		t.Errorf("equal stages differ by %d layers", d)
	}
}

func TestBalancedBeatsNaiveSplit(t *testing.T) {
	base := mixedPipeline()
	balanced, err := base.Balance()
	if err != nil {
		t.Fatal(err)
	}
	balancedRes, err := balanced.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Naive even split: 20 layers per stage.
	naive := base
	naive.Stages = make([]Stage, len(base.Stages))
	copy(naive.Stages, base.Stages)
	for i := range naive.Stages {
		naive.Stages[i].Layers = 20
	}
	naiveRes, err := naive.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if balancedRes.PerBatch >= naiveRes.PerBatch {
		t.Errorf("balanced %v not faster than naive %v", balancedRes.PerBatch, naiveRes.PerBatch)
	}
	// The naive split's bottleneck is an A100 stage (overloaded slow gear).
	if naiveRes.Bottleneck >= 2 {
		t.Errorf("naive bottleneck = stage %d, want an A100 stage", naiveRes.Bottleneck)
	}
}

func TestHomogeneousDegenerates(t *testing.T) {
	// All-equal stages: balance gives the even split.
	m := transformer.Megatron145B()
	p := Pipeline{
		Model: &m,
		Stages: []Stage{
			{Accel: hardware.NvidiaA100(), TP: 8},
			{Accel: hardware.NvidiaA100(), TP: 8},
			{Accel: hardware.NvidiaA100(), TP: 8},
			{Accel: hardware.NvidiaA100(), TP: 8},
		},
		Batch:        parallel.Batch{Global: 512, Microbatches: 64},
		Interconnect: hardware.InfinibandHDR(),
	}
	balanced, err := p.Balance()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range balanced.Stages {
		if s.Layers != 20 {
			t.Errorf("stage %d layers = %d, want 20", i, s.Layers)
		}
	}
}

func TestMoreMicrobatchesAmortizeFill(t *testing.T) {
	p, err := mixedPipeline().Balance()
	if err != nil {
		t.Fatal(err)
	}
	p.Batch.Microbatches = 8
	few, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	p.Batch.Microbatches = 256
	many, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Per-batch time with more microbatches is lower or equal: same total
	// work, smaller fill/drain share (and ub effects can help or hurt, so
	// compare the fill share directly).
	fewFill := float64(few.PerBatch) - float64(few.StageTimes[few.Bottleneck])*8
	manyFill := float64(many.PerBatch) - float64(many.StageTimes[many.Bottleneck])*256
	if fewFill <= 0 || manyFill <= 0 {
		t.Fatalf("fill times: %v, %v", fewFill, manyFill)
	}
	if manyFill/float64(many.PerBatch) >= fewFill/float64(few.PerBatch) {
		t.Error("fill share did not shrink with more microbatches")
	}
}

func TestFasterStageNeverBottleneck(t *testing.T) {
	p, err := mixedPipeline().Balance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageTimes) != 4 {
		t.Fatalf("stage times = %v", res.StageTimes)
	}
	for _, st := range res.StageTimes {
		if st <= 0 {
			t.Fatalf("non-positive stage time %v", st)
		}
	}
	// After balancing, stage times should be near-equal: the max/min ratio
	// stays under the one-layer quantization bound.
	var min, max float64
	for i, st := range res.StageTimes {
		v := float64(st)
		if i == 0 || v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min > 1.35 {
		t.Errorf("balanced stage imbalance %vx", max/min)
	}
}

func TestValidateRejections(t *testing.T) {
	var nilP *Pipeline
	if err := nilP.Validate(); err == nil {
		t.Error("nil pipeline accepted")
	}
	p := mixedPipeline()
	p.Stages = nil
	if err := p.Validate(); err == nil {
		t.Error("no stages accepted")
	}
	p = mixedPipeline()
	p.Stages[1].TP = 0
	if err := p.Validate(); err == nil {
		t.Error("zero TP accepted")
	}
	p = mixedPipeline()
	p.Stages[0].Layers = 5 // partial assignment
	if err := p.Validate(); err == nil {
		t.Error("partial layer assignment accepted")
	}
	p = mixedPipeline()
	p.Batch.Global = 0
	if err := p.Validate(); err == nil {
		t.Error("zero batch accepted")
	}
	p = mixedPipeline()
	if _, err := p.Evaluate(); err == nil {
		t.Error("unbalanced pipeline evaluated")
	}
	// Too many stages for the layers.
	m := transformer.MinGPT() // 12 layers
	small := Pipeline{
		Model:        &m,
		Batch:        parallel.Batch{Global: 16},
		Interconnect: hardware.NVLinkV100(),
	}
	for i := 0; i < 13; i++ {
		small.Stages = append(small.Stages, Stage{Accel: hardware.NvidiaV100(), TP: 1})
	}
	if err := small.Validate(); err == nil {
		t.Error("13 stages for 12 layers accepted")
	}
}

// TestStageCommActivationWidth pins the stage-boundary transfer to the
// operands' activation width, as the homogeneous model's Eq. 7 prices it:
// FP32 activations move twice the bits of the Mixed16 default, so the
// volume term of StageProfile.Comm (Comm minus the link latency) doubles.
func TestStageCommActivationWidth(t *testing.T) {
	volume := func(ops precision.Operands) float64 {
		t.Helper()
		p := mixedPipeline()
		p.Operands = ops
		p, err := p.Balance()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := p.StageTimes()
		if err != nil {
			t.Fatal(err)
		}
		return float64(prof.Comm) - float64(p.Interconnect.Latency)
	}
	def, mixed, fp32 := volume(precision.Operands{}), volume(precision.Mixed16()), volume(precision.Uniform(precision.FP32))
	if def != mixed {
		t.Errorf("zero-value operands volume %g != Mixed16's %g", def, mixed)
	}
	if def <= 0 {
		t.Fatalf("degenerate transfer volume %g", def)
	}
	if r := fp32 / def; math.Abs(r-2) > 1e-9 {
		t.Errorf("FP32 activation volume is %gx the Mixed16 one, want 2x", r)
	}
}
