package model

import (
	"errors"
	"math"
	"sync"

	"amped/internal/efficiency"
	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/topology"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Session is a compiled scenario: one (model, system, training recipe,
// efficiency curve) tuple with every point-invariant quantity of Eq. 1–12
// hoisted out of the per-point path. Design-space sweeps evaluate thousands
// of (mapping, batch) cells against the same scenario; Compile validates the
// invariants once, precomputes the reciprocal throughputs and precision
// scales of Eq. 3–4, the parameter aggregates of Eq. 11–12 and the
// communication link constants, and memoizes the per-batch operation
// aggregates of Eq. 2 on first touch — after which EvaluatePoint runs in
// O(1) time with zero heap allocations per point.
//
// A Session is immutable after Compile and safe for concurrent use by any
// number of goroutines: the first evaluation of a batch pays O(L) to build
// its aggregate, every later one on any goroutine reads the memo.
type Session struct {
	model *transformer.Model
	sys   *hardware.System
	tr    Training // defaults applied; Batch is supplied per point
	eff   efficiency.Model

	// Eq. 3–4 hoists: peak MAC rate (the efficiency derating is per point),
	// the nonlinear-op reciprocal and the precision pass counts.
	peakMAC     float64
	cNonlin     float64
	macScale    float64
	nonlinScale float64

	// Roofline hoists: roofline is true only when the recipe asks for
	// roofline pricing AND the accelerator models memory bandwidth —
	// MemBW == 0 ("not modeled") silently keeps the pure-FLOP path, so
	// every preset-free custom accelerator evaluates bit-identically to
	// the legacy model. The byte sizes come from the shared precision
	// derivations (ActBytesF/ParamBytesF) and the bandwidth from
	// hardware.MemBWBytes, the same sources RooflinePredictor uses.
	roofline    bool
	invMemBW    float64 // 1 / MemBWBytes
	actBytesF   float64 // streamed activation element size, bytes
	paramBytesF float64 // streamed weight element size, bytes

	// Communication hoists: links, operand widths, topology kinds.
	intra    hardware.Link
	inter    hardware.Link
	actBits  float64
	gradBits float64
	arKind   topology.Kind

	// Eq. 9 hoists: the all-to-all latency term and per-element volume
	// coefficient (both fixed by the system's node count).
	moeLatTerm  float64
	moeVolCoeff float64

	// Model-shape hoists.
	layersF   float64 // L
	moeLayers float64 // MoE block count
	seqHidden float64 // s·h, the per-sequence activation element count
	kvFrac    float64 // KVHeads/Heads, the K/V tensor width fraction (GQA)

	// Eq. 11–12 parameter aggregates (batch-independent).
	updateParams    float64 // Σ_l LayerParams (+ embedding when included)
	gradParamsPlain float64 // Σ_l N_g(l)
	gradParamsEP    float64 // same with expert-parallel MoE sharding
	gradEmbParams   float64 // embedding N_g when included, else 0
	gradLatCount    float64 // latency terms per all-reduce: L (+1 embedding)

	// Reliability hoists: nil relSpec skips the failure model entirely (the
	// legacy path stays bit-identical and branch-predictable); otherwise the
	// job-wide checkpoint state and the node/NIC geometry are fixed by the
	// scenario and only the mapping's world size varies per point.
	relSpec        *faults.Spec
	ckptStateBytes float64 // parameters + optimizer state, all shards
	accelsPerNode  int
	nicsPerNode    int

	// aggs memoizes the Eq. 2 per-batch operation aggregates.
	aggs aggMemo
}

// aggMemo memoizes one phase's per-batch operation aggregates, keyed by the
// global batch size. Each batch is computed on first touch and published
// with LoadOrStore, so goroutines racing on a new batch all return the one
// stored pointer; the aggregate it points to is never written again.
type aggMemo struct {
	compute func(batch int) batchAgg
	byBatch sync.Map // int -> *batchAgg
}

// get returns the aggregate of a batch: O(1) once memoized, O(L) and one
// small allocation on the first touch.
func (m *aggMemo) get(batch int) *batchAgg {
	if v, ok := m.byBatch.Load(batch); ok {
		return v.(*batchAgg)
	}
	a := m.compute(batch)
	v, _ := m.byBatch.LoadOrStore(batch, &a)
	return v.(*batchAgg)
}

// Roofline op classes. The per-sublayer roofline t_op = max(work/peak,
// bytes/BW) does not distribute over sums, so the model-wide aggregate keeps
// one bucket per class of identical sublayers: within a class every member
// has the same compute/byte ratio, so the class-level max equals the sum of
// member-level maxes exactly (max(Σc, Σb) = Σ max(c,b) when all members are
// scalar multiples of one another — here they are identical layers).
const (
	clsAttn = iota // attention sublayers (all layers identical)
	clsMLPDense
	clsMLPMoE
	clsNorms
	clsEmbed // logit projection, when IncludeEmbedding
	numOpClasses
)

// opClass is one roofline class's operation and streamed-element totals.
type opClass struct {
	mac, nonlin, act, weight float64
}

// batchAgg is the Eq. 2/12 operation aggregate for one global batch size:
// the model-wide MAC and nonlinear-op sums (embedding included when the
// training recipe asks for it), the derived useful-work FLOPs, and the
// per-class splits the roofline path prices individually. macSum/nonlinSum
// are accumulated exactly as the legacy path did (per-layer OpSums in layer
// order) so the pure-FLOP path stays bit-identical.
type batchAgg struct {
	macSum    float64
	nonlinSum float64
	flops     units.FLOPs
	cls       [numOpClasses]opClass
}

// errNonFinite mirrors the legacy Evaluate error for degenerate points; a
// sentinel so the hot path never allocates an error value.
var errNonFinite = errors.New("model: evaluation produced non-finite time (unusable link or degenerate mapping)")

// Compile validates a scenario once and returns the compiled Session.
// A nil efficiency model selects efficiency.Default(). The training
// configuration's Batch field is ignored — batch and microbatch schedule
// are per-point inputs to EvaluatePoint.
func Compile(m *transformer.Model, sys *hardware.System, tr Training, eff efficiency.Model) (*Session, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if sys == nil {
		return nil, errors.New("model: nil system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	tr = tr.withDefaults()
	if eff == nil {
		eff = efficiency.Default()
	}

	s := &Session{
		model: m,
		sys:   sys,
		tr:    tr,
		eff:   eff,

		peakMAC:     float64(sys.Accel.PeakMACRate()),
		cNonlin:     1 / float64(sys.Accel.NonlinRate()),
		macScale:    float64(tr.Operands.MACScale(sys.Accel.MACPrecision)),
		nonlinScale: float64(tr.Operands.NonlinScale(sys.Accel.NonlinPrecision)),

		intra:    sys.Intra,
		inter:    sys.InterLinkEffective(),
		actBits:  float64(tr.Operands.Act.Bits()),
		gradBits: float64(tr.Operands.Grad.Bits()),
		arKind:   tr.Topology.AllReduce,

		layersF:   float64(m.Layers),
		moeLayers: float64(m.MoELayers()),
		seqHidden: float64(m.SeqLen) * float64(m.Hidden),
		kvFrac:    m.KVFrac(),

		actBytesF:   tr.Operands.ActBytesF(),
		paramBytesF: tr.Operands.ParamBytesF(),
	}
	s.aggs.compute = s.computeAgg
	if tr.Roofline && sys.Accel.MemBW > 0 {
		s.roofline = true
		s.invMemBW = 1 / sys.Accel.MemBWBytes()
	}

	// Eq. 9 constants: 2 all-to-alls per MoE layer across the node groups,
	// traffic split between links by the uniform routing probabilities.
	if m.MoE() {
		n := float64(sys.Nodes)
		tMoE := topology.Factor(tr.Topology.AllToAll, sys.Nodes)
		s.moeLatTerm = 2 * float64(s.inter.Latency) * tMoE * n
		s.moeVolCoeff = 2 * s.actBits * tMoE *
			(1/(n*float64(s.intra.Bandwidth)) + (n-1)/(n*float64(s.inter.Bandwidth)))
	}

	// Eq. 11–12 parameter aggregates. The gradient all-reduce is linear in
	// the element count, so the layer sum collapses to one volume term plus
	// one latency term per layer.
	for l := 0; l < m.Layers; l++ {
		s.gradParamsPlain += gradParams(m, l, false)
		s.gradParamsEP += gradParams(m, l, true)
	}
	s.updateParams = s.gradParamsPlain
	s.gradLatCount = s.layersF
	if tr.IncludeEmbedding {
		s.updateParams += m.EmbeddingParams()
		s.gradEmbParams = m.EmbeddingParams()
		s.gradLatCount++
	}

	// Reliability hoists: the checkpoint carries every parameter shard at
	// the parameter operand width plus the spec's optimizer state.
	if tr.Reliability.Enabled() {
		s.relSpec = tr.Reliability
		s.ckptStateBytes = s.updateParams *
			(float64(tr.Operands.Param.Bytes()) + tr.Reliability.OptimizerBytesPerParam)
		s.accelsPerNode = sys.AccelsPerNode
		s.nicsPerNode = sys.NICsPerNode
	}
	return s, nil
}

// gradParams is block l's gradient element count N_g(l) before the TP·PP
// shard. Expert parameters are sharded across the expert-parallel group
// (GShard-style): with ep set a MoE block all-reduces its dense
// attention/norm parameters in full and only its 1/E share of the experts.
func gradParams(m *transformer.Model, l int, ep bool) float64 {
	lp := m.LayerParams(l)
	if ep && m.IsMoELayer(l) {
		shared := m.AttentionNormParams()
		return shared + (lp-shared)/float64(m.Experts)
	}
	return lp
}

// Model returns the compiled transformer architecture.
func (s *Session) Model() *transformer.Model { return s.model }

// System returns the compiled machine description.
func (s *Session) System() *hardware.System { return s.sys }

// Training returns the compiled training recipe with defaults applied.
func (s *Session) Training() Training { return s.tr }

// Eff returns the compiled microbatch-efficiency model.
func (s *Session) Eff() efficiency.Model { return s.eff }

// addLayer accumulates one block into the aggregate: its op sums (macs,
// nonlin, in the exact per-layer OpSums order) and its sublayer ops into
// the roofline class buckets. KV-cache reads — decode ops only, zero for
// training and prefill — stream at the activation width, so they join the
// class's activation elements.
func (a *batchAgg) addLayer(macs, nonlin units.Ops, ops []transformer.Ops, moe bool) {
	a.macSum += float64(macs)
	a.nonlinSum += float64(nonlin)
	for _, op := range ops {
		k := clsNorms
		switch op.Sublayer {
		case transformer.Attention:
			k = clsAttn
		case transformer.MLP:
			k = clsMLPDense
			if moe {
				k = clsMLPMoE
			}
		}
		c := &a.cls[k]
		c.mac += float64(op.MACs)
		c.nonlin += float64(op.Nonlin)
		c.act += float64(op.ActElems) + float64(op.KVElems)
		c.weight += float64(op.WeightElems)
	}
}

// addEmbedding accounts the logit projection (IncludeEmbedding) as its own
// roofline class.
func (a *batchAgg) addEmbedding(macs, act, weight units.Ops) {
	a.macSum += float64(macs)
	e := &a.cls[clsEmbed]
	e.mac = float64(macs)
	e.act = float64(act)
	e.weight = float64(weight)
}

// computeAgg builds the Eq. 2/12 operation aggregate for one batch size by
// summing the per-layer op counts in layer order.
func (s *Session) computeAgg(batch int) batchAgg {
	var a batchAgg
	m := s.model
	for l := 0; l < m.Layers; l++ {
		macs, nonlin := m.OpSums(l, batch)
		a.addLayer(macs, nonlin, m.LayerOps(l, batch), m.IsMoELayer(l))
	}
	if s.tr.IncludeEmbedding {
		act, weight := m.EmbeddingStreamElems(batch)
		a.addEmbedding(m.EmbeddingMACs(batch), act, weight)
	}
	a.flops = units.FLOPs(a.macSum * 3 * units.FLOPsPerMAC)
	return a
}

// gradOverlapScale returns the factor in [0,1] by which the exposed
// gradient all-reduce shrinks when a fraction o of its buckets overlaps
// with backward compute. The all-reduce is modeled as `buckets` equal
// serialized buckets of g = total/buckets each; backward produces bucket i's
// gradients at i·(tb/buckets). The first m = ceil(o·buckets) buckets drain
// concurrently with backward — a two-server pipeline whose makespan is
// max(rel + m·g, m·rel + g) (the linear objective peaks at an endpoint) —
// and the rest serialize after whichever of that drain or the backward pass
// finishes last. Exposed time is the makespan beyond tb; communication that
// outlasts compute stays exposed even at o = 1.
func gradOverlapScale(o, total, tb, buckets float64) float64 {
	g := total / buckets
	m := math.Ceil(o * buckets)
	rel := tb / buckets
	var finishO float64
	if m > 0 {
		finishO = max2(rel+m*g, m*rel+g)
	}
	makespan := max2(finishO, tb) + (buckets-m)*g
	return (makespan - tb) / total
}

// agg returns the memoized Eq. 2 aggregate for a global batch.
func (s *Session) agg(batch int) *batchAgg { return s.aggs.get(batch) }

// EvaluatePoint evaluates one design point of the compiled scenario — a
// parallelism mapping, a global batch size and a microbatch count
// (0 derives the N_ub default) — writing the per-batch breakdown into out.
// It is a one-cell run of the batch kernel. The caller owns out; the hot
// path performs no heap allocations.
func (s *Session) EvaluatePoint(mp parallel.Mapping, batch, microbatches int, out *Breakdown) error {
	var run mappingRun
	s.prepareRun(&run, &mp)
	_, err := s.priceCell(&run, batch, microbatches, nil, nil, nil, false, out)
	return err
}

// LowerBound returns an admissible lower bound on the point's expected total
// time — the exact rank key float64(Breakdown.ExpectedTotalTime()). It
// costs one full pricing of the cell, which is why the planner
// (internal/plan) prices cells instead of bounding them. It runs the full
// EvaluatePoint arithmetic with the MoE all-to-all term forced to exactly
// zero, in the same association order, so by the monotonicity of IEEE-754
// rounded addition and multiplication the result is bit-identical to the
// true rank on every cell whose MoE term is zero (non-MoE models, or
// mappings without expert parallelism) and never above it otherwise. The
// error contract matches EvaluatePoint: a cell that fails validation here
// fails identically there.
func (s *Session) LowerBound(mp parallel.Mapping, batch, microbatches int) (float64, error) {
	var run mappingRun
	s.prepareRun(&run, &mp)
	var bd Breakdown
	return s.priceCell(&run, batch, microbatches, nil, nil, nil, true, &bd)
}

// Evaluate is the one-shot convenience over EvaluatePoint: it allocates a
// fresh Breakdown for the point. On a non-finite result the partially
// useful breakdown is returned alongside the error, matching the legacy
// Estimator.Evaluate contract.
func (s *Session) Evaluate(mp parallel.Mapping, batch, microbatches int) (*Breakdown, error) {
	out := new(Breakdown)
	if err := s.EvaluatePoint(mp, batch, microbatches, out); err != nil {
		if errors.Is(err, errNonFinite) {
			return out, err
		}
		return nil, err
	}
	return out, nil
}
