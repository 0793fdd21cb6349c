package model

import (
	"errors"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/topology"
	"amped/internal/transformer"
	"amped/internal/units"
)

// referenceEvaluate is the pre-session Estimator.Evaluate, kept verbatim as
// the golden reference for the compiled-scenario fast path: the naive
// O(layers) per-layer, per-sublayer double sum of Eq. 2/12 plus the
// layer-looped communication sums below. The equivalence tests in
// session_test.go assert Session.EvaluatePoint reproduces this to
// double-precision round-off for every preset and mapping shape.
func referenceEvaluate(e *Estimator) (*Breakdown, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	tr := e.Training.withDefaults()
	effModel := e.Eff
	if effModel == nil {
		effModel = efficiency.Default()
	}

	m := e.Model
	sys := e.System
	mp := e.Mapping.Normalized()
	B := tr.Batch.Global
	workers := float64(mp.Workers())

	ub := tr.Batch.Microbatch(mp)
	eff := effModel.Eff(ub)
	nub := float64(tr.Batch.MicrobatchesOrDefault(mp))

	// Eq. 3 and 4: reciprocal throughputs.
	cMAC := 1 / float64(sys.Accel.MACRate(eff))
	cNonlin := 1 / float64(sys.Accel.NonlinRate())
	macScale := float64(tr.Operands.MACScale(sys.Accel.MACPrecision))
	nonlinScale := float64(tr.Operands.NonlinScale(sys.Accel.NonlinPrecision))

	// Eq. 2: forward compute, full global batch on one worker, per layer.
	var ufTotal, uwTotal float64
	var macTotal units.Ops
	for l := 0; l < m.Layers; l++ {
		var uf float64
		for _, op := range m.LayerOps(l, B) {
			uf += float64(op.MACs)*cMAC*macScale + float64(op.Nonlin)*cNonlin*nonlinScale
			macTotal += op.MACs
		}
		ufTotal += uf
		// Eq. 12: weight update is one MAC per parameter.
		uwTotal += m.LayerParams(l) * cMAC * macScale
	}
	if tr.IncludeEmbedding {
		emb := float64(m.EmbeddingMACs(B))
		ufTotal += emb * cMAC * macScale
		uwTotal += m.EmbeddingParams() * cMAC * macScale
		macTotal += m.EmbeddingMACs(B)
	}
	ubTotal := tr.BackwardComputeFactor * ufTotal

	// Communication (Eq. 5–7, 9): per-replica effective batch.
	comm := e.commState(tr)
	fwd := comm.forward(m, mp, sys)

	bf := tr.BackwardCommFactor
	exposed := 1 - tr.CommOverlap

	// Eq. 10–11: gradient all-reduce across the DP group.
	grad := comm.gradient(m, mp, sys, tr)

	// Eq. 8: pipeline bubbles.
	var bubble float64
	if pp := mp.PP(); pp > 1 && nub > 0 {
		step := (ufTotal+ubTotal)/workers + (1+bf)*exposed*fwd.total()
		bubble = tr.BubbleRatio * float64(pp-1) / nub * step
	}

	zeroExtra := tr.ZeROOverhead * (1 + bf) * exposed * fwd.total()

	bd := &Breakdown{
		ComputeForward:  units.Seconds(ufTotal / workers),
		ComputeBackward: units.Seconds(ubTotal / workers),
		WeightUpdate:    units.Seconds(uwTotal / workers),
		TPIntraComm:     units.Seconds((1 + bf) * exposed * fwd.tpIntra),
		TPInterComm:     units.Seconds((1 + bf) * exposed * fwd.tpInter),
		PPComm:          units.Seconds((1 + bf) * exposed * fwd.pp),
		MoEComm:         units.Seconds((1 + bf) * exposed * fwd.moe),
		ZeROComm:        units.Seconds(zeroExtra),
		GradIntraComm:   units.Seconds(grad.intra),
		GradInterComm:   units.Seconds(grad.inter),
		Bubble:          units.Seconds(bubble),
		Microbatch:      ub,
		Efficiency:      eff,
		Workers:         mp.Workers(),
		NumBatches:      tr.NumBatches,
		ModelFLOPs:      units.FLOPs(float64(macTotal) * 3 * units.FLOPsPerMAC),
	}
	if !componentsFinite(bd.Components()) {
		return bd, errors.New("model: evaluation produced non-finite time (unusable link or degenerate mapping)")
	}
	return bd, nil
}

// componentsFinite is the legacy finiteness check over the component list.
func componentsFinite(cs []Component) bool {
	for _, c := range cs {
		if !finite(c.Time) {
			return false
		}
	}
	return true
}

// The legacy layer-looped communication helpers referenceEvaluate prices
// with, kept verbatim from the pre-kernel estimator.

// commState carries the per-evaluation constants the communication
// equations share.
type commState struct {
	tr Training
}

func (e *Estimator) commState(tr Training) commState { return commState{tr: tr} }

// fwdComm is the forward-pass communication time decomposition, summed over
// all layers (seconds per batch).
type fwdComm struct {
	tpIntra float64
	tpInter float64
	pp      float64
	cp      float64
	moe     float64
}

func (f fwdComm) total() float64 { return f.tpIntra + f.tpInter + f.pp + f.cp + f.moe }

// allReduceTime is the Eq. 6/11 pattern: latency·steps + volume·T/BW, for
// an all-reduce of `elems` elements of `bits` bits each over n workers on
// the link.
func allReduceTime(kind topology.Kind, n int, elems, bits float64, link hardware.Link) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(topology.Steps(kind, n))
	factor := topology.Factor(kind, n)
	return float64(link.Latency)*steps + elems*bits/float64(link.Bandwidth)*factor
}

// forward evaluates Eq. 5–7 and 9 summed over the model's layers, without
// the (1 + M_f_DP) ZeRO factor (accounted separately so it can be reported
// as its own breakdown component).
func (c commState) forward(m *transformer.Model, mp parallel.Mapping, sys *hardware.System) fwdComm {
	var out fwdComm
	tr := c.tr
	// b in Eq. 6/7/9 is the paper's "effective batch size": the microbatch
	// one pipeline step processes, ub = B/(N_DP·N_ub). Eq. 8's step
	// semantics ("each pipeline step works on a microbatch, [its duration
	// includes] the forward and backward pass communication time") fix this
	// reading: the per-batch communication the model charges is that of one
	// microbatch per layer, the rest assumed overlapped with compute.
	// Without pipelining (N_ub=1) this degenerates to the full per-replica
	// batch, so pure-DP/TP mappings charge their complete volume.
	bEff := tr.Batch.Microbatch(mp)
	s := float64(m.SeqLen)
	h := float64(m.Hidden)
	actBits := float64(tr.Operands.Act.Bits())
	intra := sys.Intra
	inter := sys.InterLinkEffective()
	ar := tr.Topology.AllReduce

	// Eq. 6: two all-reduces of b·s·h activations per layer, hierarchical
	// (intra first, then inter). N_act,TP = 2bsh covers both; context
	// parallelism shards the sequence, shrinking every activation volume by
	// the CP degree (an exact no-op at the default CP = 1).
	cpF := float64(mp.CP())
	nActTP := 2 * bEff * s * h / cpF
	tpIntraPerLayer := allReduceTime(ar, mp.TPIntra, nActTP, actBits, intra)
	tpInterPerLayer := allReduceTime(ar, mp.TPInter, nActTP, actBits, inter)

	// Eq. 7: one boundary tensor of b·s·h activations per pipeline hop;
	// the 1/L spreads the pipeline's batch-level overhead across layers,
	// so the layer sum recovers C + V/BW once. The pipeline runs at the
	// speed of its slowest hop: max(intra, inter); interleaved schedules
	// cross the stage boundary VPP times per microbatch.
	nActPP := bEff * s * h / cpF
	var ppPerLayer float64
	if mp.PP() > 1 {
		L := float64(m.Layers)
		var ppIntra, ppInter float64
		if mp.PPIntra > 1 {
			ppIntra = (float64(intra.Latency) + nActPP*actBits/float64(intra.Bandwidth)) / L
		}
		if mp.PPInter > 1 {
			ppInter = (float64(inter.Latency) + nActPP*actBits/float64(inter.Bandwidth)) / L
		}
		ppPerLayer = max2(ppIntra, ppInter) * float64(mp.Normalized().VPP)
	}

	// Context-parallel K/V exchange: once per layer, each rank passes its
	// 2·ub·(s/N_CP)·h key/value shard around the CP group, hierarchically
	// like the TP all-reduce.
	var cpPerLayer float64
	if mp.CP() > 1 {
		nActCP := 2 * bEff * s * h / cpF
		cpPerLayer = allReduceTime(ar, mp.CPIntra, nActCP, actBits, intra) +
			allReduceTime(ar, mp.CPInter, nActCP, actBits, inter)
	}

	// Eq. 9: two all-to-alls per MoE layer across N_nodes node groups,
	// splitting traffic between intra- and inter-node links by the uniform
	// routing probabilities 1/N_nodes and (N_nodes-1)/N_nodes.
	var moePerLayer float64
	if m.MoE() && mp.ExpertParallel {
		n := float64(sys.Nodes)
		tMoE := topology.Factor(tr.Topology.AllToAll, sys.Nodes)
		nActMoE := nActPP
		moePerLayer = 2*float64(inter.Latency)*tMoE*n +
			2*nActMoE*actBits*tMoE*(1/(n*float64(intra.Bandwidth))+
				(n-1)/(n*float64(inter.Bandwidth)))
	}

	for l := 0; l < m.Layers; l++ {
		out.tpIntra += tpIntraPerLayer
		out.tpInter += tpInterPerLayer
		out.pp += ppPerLayer
		out.cp += cpPerLayer
		if m.IsMoELayer(l) {
			out.moe += moePerLayer
		}
	}
	return out
}

// gradComm is the gradient all-reduce decomposition (Eq. 10–11).
type gradComm struct {
	intra float64
	inter float64
}

// gradient evaluates the hierarchical data-parallel gradient all-reduce.
// Each worker holds the layer's parameters divided by TP·PP (the shard it
// is responsible for), and reduces them over the intra- then inter-node
// data-parallel groups.
func (c commState) gradient(m *transformer.Model, mp parallel.Mapping, sys *hardware.System, tr Training) gradComm {
	var out gradComm
	if mp.DP() <= 1 {
		return out
	}
	shard := 1 / float64(mp.TP()*mp.PP())
	gradBits := float64(tr.Operands.Grad.Bits())
	intra := sys.Intra
	inter := sys.InterLinkEffective()
	ar := tr.Topology.AllReduce
	for l := 0; l < m.Layers; l++ {
		ng := m.LayerParams(l) * shard
		if mp.ExpertParallel && m.IsMoELayer(l) {
			// Expert parameters are sharded across the expert-parallel
			// group (GShard-style): each worker holds ~1/E of the experts
			// and all-reduces only those, so the MoE layer's gradient
			// volume shrinks by the expert count while the dense
			// attention/norm parameters still reduce in full.
			shared := m.AttentionNormParams() * shard
			ng = shared + (m.LayerParams(l)-m.AttentionNormParams())*shard/float64(m.Experts)
		}
		out.intra += allReduceTime(ar, mp.DPIntra, ng, gradBits, intra)
		out.inter += allReduceTime(ar, mp.DPInter, ng, gradBits, inter)
	}
	if tr.IncludeEmbedding {
		ng := m.EmbeddingParams() * shard
		out.intra += allReduceTime(ar, mp.DPIntra, ng, gradBits, intra)
		out.inter += allReduceTime(ar, mp.DPInter, ng, gradBits, inter)
	}
	return out
}
