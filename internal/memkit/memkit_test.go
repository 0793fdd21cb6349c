package memkit

import (
	"math"
	"strings"
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

func baseConfig() Config {
	return Config{Operands: precision.Mixed16(), Optimizer: Adam}
}

func TestSingleGPUMinGPTFits(t *testing.T) {
	// The paper trains 85M-param minGPT on one 32 GB V100: that must fit.
	m := transformer.MinGPT()
	mp := parallel.Mapping{}
	fp, err := Estimate(&m, mp, parallel.Batch{Global: 8, Microbatches: 1}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !Fits(fp, hardware.NvidiaV100(), 0.1) {
		t.Errorf("minGPT footprint %v does not fit a V100", fp)
	}
	// ~124M params (incl. embeddings) at 2 bytes ≈ 248 MB.
	wantParams := m.TotalParams() * 2
	if got := float64(fp.Params); got != wantParams {
		t.Errorf("params = %v, want %v", got, wantParams)
	}
}

func TestGPT3SingleGPUDoesNotFit(t *testing.T) {
	// The paper's motivation: large models exceed any single accelerator.
	m := transformer.GPT3175B()
	fp, err := Estimate(&m, parallel.Mapping{}, parallel.Batch{Global: 1, Microbatches: 1}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if Fits(fp, hardware.NvidiaH100(), 0) {
		t.Errorf("175B model fits one H100: %v", fp)
	}
}

func TestShardingReducesParams(t *testing.T) {
	m := transformer.Megatron145B()
	single, err := Estimate(&m, parallel.Mapping{}, parallel.Batch{Global: 8, Microbatches: 8}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Estimate(&m, parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 1},
		parallel.Batch{Global: 8, Microbatches: 8}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(single.Params) / float64(sharded.Params)
	if ratio < 63 || ratio > 65 {
		t.Errorf("TP8xPP8 param sharding ratio = %.1f, want 64", ratio)
	}
}

func TestZeROStages(t *testing.T) {
	m := transformer.MinGPT()
	mp := parallel.Mapping{DPInter: 8}
	b := parallel.Batch{Global: 64, Microbatches: 1}
	prev := units.Bytes(0)
	for stage := 0; stage <= 3; stage++ {
		cfg := baseConfig()
		cfg.ZeROStage = stage
		fp, err := Estimate(&m, mp, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stage > 0 && fp.Total() >= prev {
			t.Errorf("ZeRO stage %d total %v not below stage %d total %v",
				stage, fp.Total(), stage-1, prev)
		}
		prev = fp.Total()
	}
	// Stage 1 shards optimizer by DP=8.
	cfg := baseConfig()
	cfg.ZeROStage = 1
	fp1, _ := Estimate(&m, mp, b, cfg)
	cfg.ZeROStage = 0
	fp0, _ := Estimate(&m, mp, b, cfg)
	if got := float64(fp0.Optimizer) / float64(fp1.Optimizer); got < 7.9 || got > 8.1 {
		t.Errorf("ZeRO-1 optimizer sharding = %.2fx, want 8x", got)
	}
}

func TestOptimizerAccounting(t *testing.T) {
	m := transformer.MinGPT()
	b := parallel.Batch{Global: 8, Microbatches: 1}
	for _, c := range []struct {
		opt  Optimizer
		want float64 // bytes per param
	}{{SGD, 0}, {SGDMomentum, 4}, {Adam, 12}} {
		cfg := baseConfig()
		cfg.Optimizer = c.opt
		fp, err := Estimate(&m, parallel.Mapping{}, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := m.TotalParams() * c.want
		if got := float64(fp.Optimizer); got != want {
			t.Errorf("%v optimizer bytes = %v, want %v", c.opt, got, want)
		}
	}
}

func TestCheckpointingShrinksActivations(t *testing.T) {
	m := transformer.MinGPTPipeline()
	mp := parallel.Mapping{PPIntra: 4}
	b := parallel.Batch{Global: 32, Microbatches: 4}
	plain, err := Estimate(&m, mp, b, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Checkpointing = true
	ckpt, err := Estimate(&m, mp, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Activations >= plain.Activations {
		t.Errorf("checkpointing did not reduce activations: %v vs %v",
			ckpt.Activations, plain.Activations)
	}
}

func TestScheduleBoundsLiveMicrobatches(t *testing.T) {
	// GPipe holds all 32 microbatches; 1F1B holds at most PP=4.
	m := transformer.GPipe24()
	mp := parallel.Mapping{PPIntra: 4}
	b := parallel.Batch{Global: 32, Microbatches: 32}
	gp, err := Estimate(&m, mp, b, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Schedule = OneFOneB
	fb, err := Estimate(&m, mp, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(gp.Activations) / float64(fb.Activations); got < 7.9 || got > 8.1 {
		t.Errorf("GPipe/1F1B activation ratio = %.2f, want 8 (32/4 microbatches)", got)
	}
}

func TestPaperPPMemoryBottleneck(t *testing.T) {
	// §V-B: at PP=16 with N_ub=16 the GPipe schedule cannot scale the
	// global batch, because gathered microbatches exhaust the last V100.
	m := transformer.MinGPTPipeline()
	mp := parallel.Mapping{PPIntra: 16}
	big := parallel.Batch{Global: 256, Microbatches: 16}
	fp, err := Estimate(&m, mp, big, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := parallel.Batch{Global: 32, Microbatches: 16}
	fpSmall, err := Estimate(&m, mp, small, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Activations <= fpSmall.Activations {
		t.Error("larger global batch did not increase activation memory")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := baseConfig()
	bad.ZeROStage = 4
	if err := bad.Validate(); err == nil {
		t.Error("ZeRO stage 4 accepted")
	}
	bad = baseConfig()
	bad.Operands.Act = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero act precision accepted")
	}
	bad = baseConfig()
	bad.Optimizer = Optimizer(9)
	if err := bad.Validate(); err == nil {
		t.Error("unknown optimizer accepted")
	}
	bad = baseConfig()
	bad.Schedule = Schedule(9)
	if err := bad.Validate(); err == nil {
		t.Error("unknown schedule accepted")
	}
}

func TestEstimateErrors(t *testing.T) {
	m := transformer.MinGPT()
	if _, err := Estimate(nil, parallel.Mapping{}, parallel.Batch{Global: 8}, baseConfig()); err == nil {
		t.Error("nil model accepted")
	}
	// Batch not divisible by DP.
	if _, err := Estimate(&m, parallel.Mapping{DPInter: 3}, parallel.Batch{Global: 8}, baseConfig()); err == nil {
		t.Error("bad batch accepted")
	}
	broken := m
	broken.Layers = 0
	if _, err := Estimate(&broken, parallel.Mapping{}, parallel.Batch{Global: 8}, baseConfig()); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestStringers(t *testing.T) {
	fp := Footprint{Params: 1 << 30, Grads: 1 << 30, Optimizer: 1 << 31, Activations: 1 << 29}
	s := fp.String()
	if !strings.Contains(s, "params") || !strings.Contains(s, "=") {
		t.Errorf("Footprint.String() = %q", s)
	}
	if fp.Total() != units.Bytes(1<<30+1<<30+1<<31+1<<29) {
		t.Errorf("Total = %v", fp.Total())
	}
	for o, want := range map[Optimizer]string{SGD: "sgd", SGDMomentum: "sgd+momentum", Adam: "adam", Optimizer(7): "memkit.Optimizer(7)"} {
		if got := o.String(); got != want {
			t.Errorf("Optimizer(%d) = %q, want %q", int(o), got, want)
		}
	}
	for s, want := range map[Schedule]string{GPipe: "gpipe", OneFOneB: "1f1b", Schedule(7): "memkit.Schedule(7)"} {
		if got := s.String(); got != want {
			t.Errorf("Schedule(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestStageFootprintsLastStageGather(t *testing.T) {
	m := transformer.MinGPTPipeline()
	mp := parallel.Mapping{PPIntra: 8}
	b := parallel.Batch{Global: 256, Microbatches: 8}
	stages, err := StageFootprints(&m, mp, b, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 8 {
		t.Fatalf("stages = %d", len(stages))
	}
	for i := 0; i < 7; i++ {
		if stages[i] != stages[0] {
			t.Errorf("interior stage %d differs", i)
		}
	}
	last := stages[7]
	if last.Activations <= stages[0].Activations {
		t.Error("last stage has no output gather")
	}
	// The gather is exactly N_ub boundary tensors: 8 x 32·512·1024·2 B.
	want := float64(8 * 32 * 512 * 1024 * 2)
	got := float64(last.Activations - stages[0].Activations)
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("gather = %v, want %v", got, want)
	}
	// PP=1: no gather, single uniform entry.
	single, err := StageFootprints(&m, parallel.Mapping{}, parallel.Batch{Global: 8, Microbatches: 1}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 {
		t.Fatalf("PP=1 stages = %d", len(single))
	}
	if _, err := StageFootprints(nil, mp, b, baseConfig()); err == nil {
		t.Error("nil model accepted")
	}
	// WorstStage is the last stage without the slice, and Estimate at PP=1.
	if worst, err := WorstStage(&m, mp, b, baseConfig()); err != nil || worst != last {
		t.Errorf("WorstStage = %v, %v; want the last stage %v", worst, err, last)
	}
	if worst, err := WorstStage(&m, parallel.Mapping{}, parallel.Batch{Global: 8, Microbatches: 1}, baseConfig()); err != nil || worst != single[0] {
		t.Errorf("PP=1 WorstStage = %v, %v; want %v", worst, err, single[0])
	}
	if _, err := WorstStage(nil, mp, b, baseConfig()); err == nil {
		t.Error("WorstStage accepted a nil model")
	}
}

func TestMaxGlobalBatch(t *testing.T) {
	// The Fig. 2b phenomenon: at PP=16 the last-stage gather caps the
	// batch harder than at PP=8 relative to the pipeline's width.
	m := transformer.MinGPTPipeline()
	v100 := hardware.NvidiaV100()
	cfg := baseConfig()
	at := func(pp int) int {
		return MaxGlobalBatch(&m, parallel.Mapping{PPIntra: pp}, pp, cfg, v100.Memory, 0.1)
	}
	b8, b16 := at(8), at(16)
	if b8 <= 0 || b16 <= 0 {
		t.Fatalf("batches = %d, %d", b8, b16)
	}
	// Doubling the pipeline does not double the feasible batch — the
	// gather (∝ batch) and per-stage activations both bind.
	if b16 >= 2*b8 {
		t.Errorf("PP=16 batch %d scaled linearly from PP=8's %d", b16, b8)
	}
	// The found batch fits and the next step does not.
	fitsAt := func(batch, pp int) bool {
		stages, err := StageFootprints(&m, parallel.Mapping{PPIntra: pp},
			parallel.Batch{Global: batch, Microbatches: pp}, cfg)
		if err != nil {
			return false
		}
		for _, fp := range stages {
			if float64(fp.Total()) > float64(v100.Memory)*0.9 {
				return false
			}
		}
		return true
	}
	if !fitsAt(b8, 8) {
		t.Error("reported max batch does not fit")
	}
	if fitsAt(b8+8, 8) {
		t.Error("max batch not maximal")
	}
	// A model too large for the card yields 0.
	huge := transformer.GPT3175B()
	if got := MaxGlobalBatch(&huge, parallel.Mapping{PPIntra: 8}, 8, cfg, v100.Memory, 0.1); got != 0 {
		t.Errorf("infeasible model max batch = %d", got)
	}
}

func TestOffloadOptimizer(t *testing.T) {
	m := transformer.Megatron145B()
	mp := parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16}
	b := parallel.Batch{Global: 512, Microbatches: 64}
	cfg := baseConfig()
	on := cfg
	on.OffloadOptimizer = true
	plain, err := Estimate(&m, mp, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Estimate(&m, mp, b, on)
	if err != nil {
		t.Fatal(err)
	}
	if off.Optimizer != 0 {
		t.Errorf("offloaded optimizer bytes = %v", off.Optimizer)
	}
	if off.Params != plain.Params || off.Activations != plain.Activations {
		t.Error("offload changed non-optimizer components")
	}
	if off.Total() >= plain.Total() {
		t.Error("offload did not reduce the device footprint")
	}
}
