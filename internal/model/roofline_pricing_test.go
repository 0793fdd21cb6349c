package model

import (
	"math"
	"strings"
	"testing"

	"amped/internal/collective"
	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// TestRooflineFallbackPresets pins the MemBW == 0 contract over every
// shipped accelerator preset: asking for roofline pricing on an accelerator
// whose memory bandwidth is "not modeled" must fall back bit-identically to
// pure-FLOP pricing — no error, no Inf op times — while the same preset
// with its real bandwidth produces a finite, never-cheaper evaluation.
func TestRooflineFallbackPresets(t *testing.T) {
	m := goldenModel()
	mp := parallel.Mapping{TPIntra: 2, DPInter: 2}
	sysOf := func(a hardware.Accelerator) hardware.System {
		sys := goldenSystem()
		sys.Accel = a
		return sys
	}
	for _, name := range hardware.AcceleratorPresetNames() {
		accel, err := hardware.AcceleratorPreset(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}

		legacySys := sysOf(accel)
		legacy, err := Compile(&m, &legacySys, Training{}, efficiency.Fixed(1))
		if err != nil {
			t.Fatalf("preset %q legacy compile: %v", name, err)
		}
		var want Breakdown
		if err := legacy.EvaluatePoint(mp, 8, 1, &want); err != nil {
			t.Fatalf("preset %q legacy evaluate: %v", name, err)
		}

		noBW := accel
		noBW.MemBW = 0
		noBWSys := sysOf(noBW)
		fallback, err := Compile(&m, &noBWSys, Training{Roofline: true}, efficiency.Fixed(1))
		if err != nil {
			t.Fatalf("preset %q MemBW=0 roofline compile: %v", name, err)
		}
		var got Breakdown
		if err := fallback.EvaluatePoint(mp, 8, 1, &got); err != nil {
			t.Fatalf("preset %q MemBW=0 roofline evaluate: %v", name, err)
		}
		if got != want {
			t.Errorf("preset %q: MemBW=0 roofline breakdown differs from pure-FLOP pricing:\n got %+v\nwant %+v", name, got, want)
		}

		if accel.MemBW <= 0 {
			continue // preset genuinely does not model bandwidth
		}
		onSys := sysOf(accel)
		on, err := Compile(&m, &onSys, Training{Roofline: true}, efficiency.Fixed(1))
		if err != nil {
			t.Fatalf("preset %q roofline compile: %v", name, err)
		}
		var roofed Breakdown
		if err := on.EvaluatePoint(mp, 8, 1, &roofed); err != nil {
			t.Fatalf("preset %q roofline evaluate: %v", name, err)
		}
		if roofed.ComputeForward < want.ComputeForward {
			t.Errorf("preset %q: roofline forward %v cheaper than pure-FLOP %v",
				name, roofed.ComputeForward, want.ComputeForward)
		}
	}
}

// caseStudyPoint evaluates GPT-3 175B on the paper's Case Study I machine
// at one mapping under the given training recipe.
func caseStudyPoint(t *testing.T, tr Training, mp parallel.Mapping) (*Session, *Breakdown) {
	t.Helper()
	m := transformer.GPT3175B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var bd Breakdown
	if err := sess.EvaluatePoint(mp, 8192, 64, &bd); err != nil {
		t.Fatal(err)
	}
	return sess, &bd
}

// TestRooflineMemoryBoundSublayers is the headline bugfix check: with
// roofline pricing on a real accelerator the bandwidth-bound sublayers
// (LayerNorm traffic, softmax score matrices) carry nonzero cost, so the
// forward compute time strictly exceeds the pure-FLOP price, and sequence
// parallelism — which shards the TP-replicated norm traffic — can only
// lower it.
func TestRooflineMemoryBoundSublayers(t *testing.T) {
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	_, flop := caseStudyPoint(t, Training{}, mp)
	sess, roof := caseStudyPoint(t, Training{Roofline: true}, mp)
	if roof.ComputeForward <= flop.ComputeForward {
		t.Fatalf("roofline forward %v not above pure-FLOP %v — memory-bound sublayers still priced free",
			roof.ComputeForward, flop.ComputeForward)
	}

	// The norms class alone must be bandwidth-bound here: its compute price
	// is tiny while 10·b·s·h activation elements stream per layer,
	// TP-replicated (x8) without sequence parallelism.
	agg := sess.agg(8192)
	c := agg.cls[clsNorms]
	ub := 8192.0 / 64 / 64
	cMAC := 1 / (sess.peakMAC * sess.eff.Eff(ub))
	compute := c.mac*cMAC*sess.macScale + c.nonlin*sess.cNonlin*sess.nonlinScale
	membw := (c.act*sess.actBytesF*8 + c.weight*sess.paramBytesF) * sess.invMemBW
	if membw <= compute {
		t.Errorf("norms class not memory-bound on the A100: mem %g <= compute %g", membw, compute)
	}

	spMP := mp
	spMP.SequenceParallel = true
	var withSP Breakdown
	if err := sess.EvaluatePoint(spMP, 8192, 64, &withSP); err != nil {
		t.Fatal(err)
	}
	if withSP.ComputeForward > roof.ComputeForward {
		t.Errorf("sequence parallelism raised the roofline forward time: %v > %v",
			withSP.ComputeForward, roof.ComputeForward)
	}
}

// TestRooflineSharedDerivations asserts the per-sublayer roofline and the
// predictive efficiency roofline agree on units by construction: both pull
// bandwidth from hardware.MemBWBytes and element sizes from the shared
// precision derivations, so streaming the dominant GEMM's operands costs
// the same seconds on either path.
func TestRooflineSharedDerivations(t *testing.T) {
	accel := hardware.NvidiaA100()
	m := transformer.GPT3175B()
	ops := precision.Mixed16()
	r, err := RooflinePredictor(accel, &m, 8, ops)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemBW != accel.MemBWBytes() {
		t.Errorf("predictor MemBW %g != shared MemBWBytes %g", r.MemBW, accel.MemBWBytes())
	}
	if r.BytesPerElem != ops.MACOperandBytes() {
		t.Errorf("predictor BytesPerElem %g != shared MACOperandBytes %g", r.BytesPerElem, ops.MACOperandBytes())
	}
	// Dominant GEMM: streaming N weight elements must cost identical
	// seconds through either derivation. Mixed16 has 16-bit parameters and
	// activations, so the MAC-operand and streamed-parameter element sizes
	// coincide and the comparison is exact.
	n := float64(m.Hidden) * float64(m.Hidden)
	viaEff := n * r.BytesPerElem / r.MemBW
	viaSession := n * ops.ParamBytesF() * (1 / accel.MemBWBytes())
	if viaEff != viaSession {
		t.Errorf("dominant-GEMM stream time disagrees: efficiency path %g, session path %g", viaEff, viaSession)
	}
	if !(viaEff > 0) {
		t.Errorf("degenerate stream time %g", viaEff)
	}
}

// TestEvaluatePointAllocsRoofline extends the zero-allocation gate over the
// widened hot path: roofline pricing, sequence/context parallelism, virtual
// pipelining and gradient overlap together stay allocation-free per point.
func TestEvaluatePointAllocsRoofline(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{Roofline: true, GradOverlap: 0.8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Breakdown
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 32, CPInter: 2, VPP: 2, SequenceParallel: true}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sess.EvaluatePoint(mp, 8192, 64, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("roofline EvaluatePoint allocates %v times per point, want 0", allocs)
	}
	if out.CPComm <= 0 {
		t.Errorf("CP mapping produced no CP communication: %+v", out)
	}
}

func TestGoldenCPComm(t *testing.T) {
	// Context parallelism on the golden config, mapping TP2(intra) x
	// CP2(inter), batch 8, one microbatch. DP = 1, so ub = 8 and the TP
	// volume N_act,TP = 2·ub·s·h/N_CP = 2·8·16·64/2 = 8192 elements — the
	// same per-layer all-reduce TestGoldenTPIntraComm pins (there ub = 4,
	// CP = 1). The K/V exchange moves N_act,CP = 8192 elements at 16 bits
	// around the CP ring on the inter link (2 steps x 1e-2 latency, factor
	// 1), once per layer, doubled for backward.
	m := goldenModel()
	sys := goldenSystem()
	est := Estimator{
		Model: &m, System: &sys,
		Mapping:  parallel.Mapping{TPIntra: 2, CPInter: 2},
		Training: Training{Batch: parallel.Batch{Global: 8, Microbatches: 1}},
		Eff:      efficiency.Fixed(1),
	}
	bd, err := est.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	perLayerTP := 2*1e-3 + 8192*16.0/1e9
	exact(t, "TPIntraComm", float64(bd.TPIntraComm), 4*perLayerTP)
	perLayerCP := 2*1e-2 + 8192*16.0/1e8
	exact(t, "CPComm", float64(bd.CPComm), 4*perLayerCP)
	if bd.Workers != 4 {
		t.Errorf("Workers = %d, want 4 (TP2 x CP2)", bd.Workers)
	}
}

func TestGoldenVPP(t *testing.T) {
	// Interleaved schedule on a 4-layer golden variant, DP2(intra) x
	// PP2(inter): the stage boundary is crossed VPP times per microbatch,
	// so PPComm scales by exactly VPP, while the Eq. 8 bubble — divided by
	// VPP — shrinks strictly (the compute part of the step halves; the
	// comm part cancels against the doubled boundary traffic).
	m := goldenModel()
	m.Layers = 4
	sys := goldenSystem()
	eval := func(vpp int) *Breakdown {
		est := Estimator{
			Model: &m, System: &sys,
			Mapping:  parallel.Mapping{DPIntra: 2, PPInter: 2, VPP: vpp},
			Training: Training{Batch: parallel.Batch{Global: 8, Microbatches: 2}},
			Eff:      efficiency.Fixed(1),
		}
		bd, err := est.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return bd
	}
	plain := eval(1)
	inter := eval(2)
	exact(t, "PPComm x VPP", float64(inter.PPComm), 2*float64(plain.PPComm))
	if inter.Bubble >= plain.Bubble {
		t.Errorf("VPP=2 bubble %v not below plain %v", inter.Bubble, plain.Bubble)
	}
	if plain.Bubble <= 0 || inter.Bubble <= 0 {
		t.Errorf("degenerate bubbles: plain %v, interleaved %v", plain.Bubble, inter.Bubble)
	}
}

// TestNewDimensionValidation covers the added model-fit checks on both the
// scalar and the batched path: CP bounded by the sequence length, VPP
// requiring a pipeline and fitting pp·vpp into the layer count.
func TestNewDimensionValidation(t *testing.T) {
	m := goldenModel() // 2 layers, seq 16, heads 4
	sys := goldenSystem()
	sess, err := Compile(&m, &sys, Training{}, efficiency.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	// CP > seq len needs a wider machine to host degree 32.
	bigSys := goldenSystem()
	bigSys.Nodes = 32
	bigSess, err := Compile(&m, &bigSys, Training{}, efficiency.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sess *Session
		mp   parallel.Mapping
		b    int
		want string // the model-fit error's text
	}{
		{"cp over seq len", bigSess, parallel.Mapping{DPIntra: 2, CPInter: 32}, 64, "exceeds sequence length"},
		{"vpp without pp", sess, parallel.Mapping{DPIntra: 2, DPInter: 2, VPP: 2}, 8, "requires PP > 1"},
		{"pp*vpp over layers", sess, parallel.Mapping{DPIntra: 2, PPInter: 2, VPP: 2}, 8, "x VPP 2 exceeds"},
	}
	var out Breakdown
	for _, c := range cases {
		pointErr := c.sess.EvaluatePoint(c.mp, c.b, 1, &out)
		if pointErr == nil || !strings.Contains(pointErr.Error(), c.want) {
			t.Fatalf("%s: EvaluatePoint error %v, want the model-fit error %q", c.name, pointErr, c.want)
		}
		var bout BatchOutput
		if err := c.sess.EvaluateBatch(BatchInput{
			Mappings: []parallel.Mapping{c.mp}, Batches: []int{c.b}, Microbatches: []int{1},
		}, &bout); err != nil {
			t.Fatalf("%s: batch call failed: %v", c.name, err)
		}
		if bout.Errs[0] == nil || bout.Errs[0].Error() != pointErr.Error() {
			t.Errorf("%s: batch error %v, want EvaluatePoint's %q", c.name, bout.Errs[0], pointErr)
		}
	}
}

// TestGradOverlap pins the bucketed-overlap behavior: zero overlap (and a
// DP = 1 mapping) keeps the exact legacy arithmetic, increasing overlap
// monotonically shrinks the exposed all-reduce, and overlap can never hide
// more communication than there is backward compute to hide it under.
func TestGradOverlap(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	grad := func(o float64) (float64, *Breakdown) {
		sess, err := Compile(&m, &sys, Training{GradOverlap: o}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var bd Breakdown
		if err := sess.EvaluatePoint(mp, 8192, 64, &bd); err != nil {
			t.Fatal(err)
		}
		return float64(bd.GradIntraComm + bd.GradInterComm), &bd
	}
	g0, bd0 := grad(0)
	gHalf, _ := grad(0.5)
	gFull, bdFull := grad(1)
	if g0 <= 0 {
		t.Fatalf("no gradient communication at DP 64: %v", g0)
	}
	if !(gFull <= gHalf && gHalf <= g0) {
		t.Errorf("exposed grad comm not monotone in overlap: o=0 %v, o=0.5 %v, o=1 %v", g0, gHalf, gFull)
	}
	if gHalf >= g0 {
		t.Errorf("o=0.5 hid no gradient communication: %v vs %v", gHalf, g0)
	}
	if hidden := g0 - gFull; hidden > float64(bd0.ComputeBackward)*(1+1e-9) {
		t.Errorf("hid %g s of gradient comm under only %v of backward compute", hidden, bd0.ComputeBackward)
	}
	if bdFull.GradIntraComm < 0 || bdFull.GradInterComm < 0 {
		t.Errorf("negative exposed components: %+v", bdFull)
	}

	// GradOverlap with no data parallelism is an exact no-op.
	gm := goldenModel()
	gs := goldenSystem()
	sessO, err := Compile(&gm, &gs, Training{GradOverlap: 0.9}, efficiency.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	sessP, err := Compile(&gm, &gs, Training{}, efficiency.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	noDP := parallel.Mapping{TPIntra: 2, PPInter: 2}
	var a, b Breakdown
	if err := sessO.EvaluatePoint(noDP, 8, 2, &a); err != nil {
		t.Fatal(err)
	}
	if err := sessP.EvaluatePoint(noDP, 8, 2, &b); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("GradOverlap changed a DP=1 evaluation:\n got %+v\nwant %+v", a, b)
	}

	// Out-of-range overlap is rejected at Validate time.
	for _, bad := range []float64{-0.1, 1.5} {
		if _, err := Compile(&gm, &gs, Training{GradOverlap: bad}, nil); err == nil {
			t.Errorf("GradOverlap %g accepted", bad)
		}
	}
}

// TestGradOverlapDES cross-validates the closed-form exposed-gradient time
// against an independent co-simulation: per-layer gradient buckets become
// ready as backward compute progresses, a serialized NIC drains them FIFO,
// the overlapped fraction launches when ready and the rest at backward
// completion, and each bucket's all-reduce duration comes from the
// round-by-round collective ring simulator rather than the analytic
// formula. The acceptance bar is 10%.
func TestGradOverlapDES(t *testing.T) {
	m := transformer.Model{
		Name: "des", Layers: 8, Hidden: 4096, Heads: 32, SeqLen: 2048,
		Vocab: 51200, FFNRatio: 4,
	}
	sys := hardware.System{
		Name: "des", Accel: hardware.NvidiaA100(),
		Nodes: 4, AccelsPerNode: 1,
		Intra:       hardware.Link{Name: "i", Latency: 1e-6, Bandwidth: 4.8e12},
		Inter:       hardware.Link{Name: "e", Latency: 5e-6, Bandwidth: 1.6e12},
		NICsPerNode: 1,
	}
	mp := parallel.Mapping{DPInter: 4}
	const batch = 32

	for _, o := range []float64{0.5, 1.0} {
		tr := Training{IncludeEmbedding: true, GradOverlap: o}
		sess, err := Compile(&m, &sys, tr, efficiency.Fixed(1))
		if err != nil {
			t.Fatal(err)
		}
		var bd Breakdown
		if err := sess.EvaluatePoint(mp, batch, 1, &bd); err != nil {
			t.Fatal(err)
		}
		analytic := float64(bd.GradIntraComm + bd.GradInterComm)

		// Per-bucket ring times from the collective simulator over the
		// effective inter link (the analytic path's default topology is the
		// same ring, so disagreement isolates the overlap model itself).
		gradBits := float64(sess.Training().Operands.Grad.Bits())
		link := sys.InterLinkEffective()
		buckets := make([]float64, 0, m.Layers+1)
		for l := 0; l < m.Layers; l++ {
			bits := units.Bits(m.LayerParams(l) * gradBits)
			buckets = append(buckets, float64(collective.RingAllReduce(4, bits, link).Time))
		}
		embBits := units.Bits(m.EmbeddingParams() * gradBits)
		buckets = append(buckets, float64(collective.RingAllReduce(4, embBits, link).Time))

		tb := float64(bd.ComputeBackward)
		L := len(buckets)
		overlapped := int(math.Ceil(o * float64(L)))
		// The NIC drains the buckets FIFO; their ready times never
		// decrease, so launch order is bucket order.
		var free float64
		for l, dur := range buckets {
			ready := float64(l+1) / float64(L) * tb
			if l >= overlapped {
				ready = tb
			}
			free = math.Max(free, ready) + dur
		}
		des := free - tb
		if des <= 0 {
			t.Fatalf("o=%g: degenerate co-simulation, no exposed communication", o)
		}
		if rel := math.Abs(analytic-des) / des; rel > 0.10 {
			t.Errorf("o=%g: closed form %g s vs co-simulated %g s exposed gradient time (%.1f%% apart)",
				o, analytic, des, rel*100)
		}
	}
}
