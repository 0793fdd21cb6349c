package model

import (
	"fmt"

	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/topology"
	"amped/internal/transformer"
	"amped/internal/units"
)

// The pricing kernel. Every entry point — EvaluatePoint and LowerBound (a
// one-cell run), EvaluateBatch, both inference phases and ProfileLayers —
// prices through the same pieces over one mappingRun: prepareRun (the fit
// check and the Eq. 6/10/11 hoists), fwdCompute (Eq. 2–4), fwdComm
// (Eq. 5–7, 9) and, for training cells, priceCell (Eq. 1, 8, 12, the
// gradient overlap and the breakdown).

// mappingRun holds everything hoisted out of the per-cell path for one
// mapping: validation verdicts, the normalized degrees, the
// collective-topology constants of Eq. 6 and the fully batch-independent
// gradient all-reduce and reliability expectations.
type mappingRun struct {
	err        error // mapping does not tile the system (poisons the run)
	fitErr     error // TP > heads, PP > layers, CP > seq len or bad VPP
	mpn        parallel.Mapping
	workers    float64
	workersInt int
	pp         int
	dp         int
	tpF        float64 // total TP degree, the roofline norm-class factor
	cpF        float64 // total CP degree (1.0 when disengaged)
	vppF       float64 // virtual-pipeline chunk count (1.0 when plain)
	rPP        float64 // BubbleRatio · (N_PP − 1), Eq. 8's run constant
	moeActive  bool
	tpIntra    allReduce // TP all-reduce levels (Eq. 6)
	tpInter    allReduce
	cpIntra    allReduce // the context-parallel K/V exchange levels
	cpInter    allReduce
	gradIntra  float64 // Eq. 10/11 are batch-independent: hoisted whole
	gradInter  float64
	rel        faults.Expectation
}

// allReduce is one level of a hierarchical all-reduce with its link
// latency · topology steps and topology factor hoisted. on is false for a
// level of one member, which costs nothing.
type allReduce struct {
	on         bool
	latSt, fac float64
	bw         float64
}

func (s *Session) allReduce(n int, link hardware.Link) allReduce {
	if n <= 1 {
		return allReduce{}
	}
	return allReduce{
		on:    true,
		latSt: float64(link.Latency) * float64(topology.Steps(s.arKind, n)),
		fac:   topology.Factor(s.arKind, n),
		bw:    float64(link.Bandwidth),
	}
}

// time is the Eq. 6/11 pattern, latency·steps + volume·T/BW, for elems
// elements of bits bits each; latTerms counts the latency terms (1 for one
// collective, one per layer bucket for a layer-summed gradient all-reduce).
func (a allReduce) time(latTerms, elems, bits float64) float64 {
	if !a.on {
		return 0
	}
	return a.latSt*latTerms + elems*bits/a.bw*a.fac
}

// checkFit reports whether the model splits the way the mapping asks: TP
// within the head count, PP within the layer count, CP within the sequence
// length, and a virtual pipeline only over PP > 1 with a chunk per layer.
func checkFit(m *transformer.Model, mp parallel.Mapping) error {
	mpn := mp.Normalized()
	tp, pp, cp, vpp := mpn.TP(), mpn.PP(), mpn.CP(), mpn.VPP
	switch {
	case tp > m.Heads:
		return fmt.Errorf("model: TP degree %d exceeds %d attention heads", tp, m.Heads)
	case pp > m.Layers:
		return fmt.Errorf("model: PP degree %d exceeds %d layers", pp, m.Layers)
	case cp > m.SeqLen:
		return fmt.Errorf("model: CP degree %d exceeds sequence length %d", cp, m.SeqLen)
	case vpp > 1 && pp <= 1:
		return fmt.Errorf("model: virtual pipeline depth %d requires PP > 1", vpp)
	case vpp > 1 && pp*vpp > m.Layers:
		return fmt.Errorf("model: PP %d x VPP %d exceeds %d layers", pp, vpp, m.Layers)
	}
	return nil
}

// prepareRun validates a mapping once and precomputes its run constants.
func (s *Session) prepareRun(mp parallel.Mapping) mappingRun {
	var r mappingRun
	if err := mp.Validate(s.sys); err != nil {
		r.err = err
		return r
	}
	mpn := mp.Normalized()
	r.fitErr = checkFit(s.model, mpn)
	r.mpn = mpn
	r.workersInt = mpn.Workers()
	r.workers = float64(r.workersInt)
	r.pp = mpn.PP()
	r.dp = mpn.DP()
	r.tpF = float64(mpn.TP())
	r.cpF = float64(mpn.CP())
	r.vppF = float64(mpn.VPP)
	if r.pp > 1 {
		r.rPP = s.tr.BubbleRatio * float64(r.pp-1)
	}
	r.moeActive = s.model.MoE() && mpn.ExpertParallel
	r.tpIntra = s.allReduce(mpn.TPIntra, s.intra)
	r.tpInter = s.allReduce(mpn.TPInter, s.inter)
	r.cpIntra = s.allReduce(mpn.CPIntra, s.intra)
	r.cpInter = s.allReduce(mpn.CPInter, s.inter)
	// Eq. 10–11: each worker reduces its 1/(TP·PP) shard of the gradients.
	// The all-reduce is linear in the element count, so the layer loop
	// collapses to the precomputed parameter aggregate.
	if r.dp > 1 {
		shard := 1 / float64(mpn.TP()*mpn.PP())
		ngSum := s.gradParamsPlain
		if r.moeActive {
			ngSum = s.gradParamsEP
		}
		ngSum = (ngSum + s.gradEmbParams) * shard
		r.gradIntra = s.allReduce(mpn.DPIntra, s.intra).time(s.gradLatCount, ngSum, s.gradBits)
		r.gradInter = s.allReduce(mpn.DPInter, s.inter).time(s.gradLatCount, ngSum, s.gradBits)
	}
	if s.relSpec != nil {
		nodes := faults.NodesFor(r.workersInt, s.accelsPerNode)
		r.rel = s.relSpec.Expect(faults.Cluster{
			Workers: r.workersInt,
			Nodes:   nodes,
			Links:   nodes * s.nicsPerNode,
		}, s.ckptStateBytes)
	}
	return r
}

// fwdCompute is Eq. 2–4's forward compute for one operation aggregate at
// reciprocal MAC throughput cMAC. Pure-FLOP pricing factors the double sum
// into the two aggregate op counts. Roofline pricing costs each op class at
// max(compute, bytes/BW), the streamed bytes taken at the shared
// precision-derived element sizes. Without sequence parallelism the
// norm-class activation traffic is replicated across the tensor-parallel
// group (every TP rank streams the full b·s·h norm tensors), so it scales
// by the TP degree; the tiny 4h-per-layer norm weights are left unscaled.
func (s *Session) fwdCompute(agg *batchAgg, cMAC float64, run *mappingRun) float64 {
	if !s.roofline {
		return agg.macSum*cMAC*s.macScale + agg.nonlinSum*s.cNonlin*s.nonlinScale
	}
	var total float64
	for k := 0; k < numOpClasses; k++ {
		c := &agg.cls[k]
		t := c.mac*cMAC*s.macScale + c.nonlin*s.cNonlin*s.nonlinScale
		actBytes := c.act * s.actBytesF
		if k == clsNorms && !run.mpn.SequenceParallel {
			actBytes *= run.tpF
		}
		if mem := (actBytes + c.weight*s.paramBytesF) * s.invMemBW; mem > t {
			t = mem
		}
		total += t
	}
	return total
}

// fwdComm is the forward communication of one pipeline step over b
// sequences whose per-layer activations are width elements each (s·h for
// training and prefill, h for a decode step), summed over the layers. With
// context parallelism every rank holds 1/N_CP of the tokens, so each volume
// shrinks by the CP degree (an exact no-op at CP = 1). relaxed keeps the
// MoE term at exactly 0.0, the admissible relaxation behind LowerBound.
//
//   - Eq. 6: two hierarchical all-reduces of b·width activations per layer
//     across the TP group, split by link level.
//   - Eq. 7: the 1/L spreading cancels against the layer sum, leaving one
//     boundary crossing at the slowest hop. ppHop is that single crossing;
//     callers scale it by the crossings their schedule makes.
//   - The CP K/V exchange: once per layer each rank passes its 2·b·kvFrac·
//     width key/value shard around the CP group, hierarchically like TP.
//     Under GQA the K/V tensors are only kvFrac of the hidden width.
//   - Eq. 9: two all-to-alls per MoE layer across the node groups, over the
//     session's hoisted latency and volume constants.
func (s *Session) fwdComm(run *mappingRun, b, width float64, relaxed bool) (tpIntra, tpInter, ppHop, cp, moe float64) {
	nActTP := 2 * b * width / run.cpF
	tpIntra = s.layersF * run.tpIntra.time(1, nActTP, s.actBits)
	tpInter = s.layersF * run.tpInter.time(1, nActTP, s.actBits)
	if run.pp > 1 {
		nActPP := b * width / run.cpF
		var ppI, ppE float64
		if run.mpn.PPIntra > 1 {
			ppI = float64(s.intra.Latency) + nActPP*s.actBits/float64(s.intra.Bandwidth)
		}
		if run.mpn.PPInter > 1 {
			ppE = float64(s.inter.Latency) + nActPP*s.actBits/float64(s.inter.Bandwidth)
		}
		ppHop = max2(ppI, ppE)
	}
	if run.cpF > 1 {
		nActCP := 2 * b * width * s.kvFrac / run.cpF
		cp = s.layersF * (run.cpIntra.time(1, nActCP, s.actBits) + run.cpInter.time(1, nActCP, s.actBits))
	}
	if run.moeActive && !relaxed {
		moe = s.moeLayers * (s.moeLatTerm + b*width*s.moeVolCoeff/run.cpF)
	}
	return tpIntra, tpInter, ppHop, cp, moe
}

// priceCell prices one training cell — a global batch g and a raw
// microbatch count nub (0 derives the default) on a prepared mapping run —
// into out. It checks the batch schedule before the model-fit bounds, so a
// cell failing both reports the batch error. A failing cell leaves out
// untouched; a non-finite result keeps the partial breakdown. aggs memoizes
// the Eq. 2 aggregates across a batched call (nil resolves each through the
// session). relaxed drops the Eq. 9 MoE term for LowerBound.
func (s *Session) priceCell(run *mappingRun, g, nub int, aggs *aggCache, relaxed bool, out *Breakdown) (PointCode, error) {
	if run.err != nil {
		return PointBadMapping, run.err
	}
	// Inline of parallel.Batch.Validate + MicrobatchesOrDefault + Microbatch
	// over the run's pre-normalized degrees. Failures take the slow path
	// through the real Validate for its error message.
	var per, nubD int
	bad := g <= 0 || nub < 0 || g%run.dp != 0
	if !bad {
		per = g / run.dp
		nubD = nub
		if nubD <= 0 {
			nubD = run.pp
		}
		if nubD > per && per > 0 {
			nubD = per
		}
		if nubD < 1 {
			nubD = 1
		}
		bad = per%nubD != 0
	}
	if bad {
		return PointBadBatch, parallel.Batch{Global: g, Microbatches: nub}.Validate(run.mpn)
	}
	if run.fitErr != nil {
		return PointBadModelFit, run.fitErr
	}

	tr := &s.tr
	ub := float64(per) / float64(nubD)
	eff := s.eff.Eff(ub)
	nubF := float64(nubD)

	// Eq. 2–4: compute over the cached per-batch aggregate.
	cMAC := 1 / (s.peakMAC * eff)
	agg := aggs.get(s, g)
	ufTotal := s.fwdCompute(&agg, cMAC, run)
	uwTotal := s.updateParams * cMAC * s.macScale
	ubTotal := tr.BackwardComputeFactor * ufTotal

	// Eq. 5–7, 9 on the microbatch; interleaved schedules cross the stage
	// boundary VPP times per microbatch.
	tpIntra, tpInter, ppHop, cpComm, moe := s.fwdComm(run, ub, s.seqHidden, relaxed)
	ppComm := ppHop * run.vppF
	fwdTotal := tpIntra + tpInter + ppComm + cpComm + moe
	bf := tr.BackwardCommFactor
	exposed := 1 - tr.CommOverlap
	commScale := (1 + bf) * exposed

	gradIntra, gradInter := run.gradIntra, run.gradInter
	if o := tr.GradOverlap; o > 0 {
		if total := gradIntra + gradInter; total > 0 {
			scale := gradOverlapScale(o, total, ubTotal/run.workers, s.gradLatCount)
			gradIntra *= scale
			gradInter *= scale
		}
	}

	// Eq. 8 over the hoisted R·(N_PP−1); the interleaved schedule shrinks
	// the bubble by the chunk count.
	var bubble float64
	if run.pp > 1 && nubF > 0 {
		step := (ufTotal+ubTotal)/run.workers + commScale*fwdTotal
		bubble = run.rPP / nubF * step / run.vppF
	}
	zeroExtra := tr.ZeROOverhead * (1 + bf) * exposed * fwdTotal

	*out = Breakdown{
		ComputeForward:  units.Seconds(ufTotal / run.workers),
		ComputeBackward: units.Seconds(ubTotal / run.workers),
		WeightUpdate:    units.Seconds(uwTotal / run.workers),
		TPIntraComm:     units.Seconds(commScale * tpIntra),
		TPInterComm:     units.Seconds(commScale * tpInter),
		PPComm:          units.Seconds(commScale * ppComm),
		CPComm:          units.Seconds(commScale * cpComm),
		MoEComm:         units.Seconds(commScale * moe),
		ZeROComm:        units.Seconds(zeroExtra),
		GradIntraComm:   units.Seconds(gradIntra),
		GradInterComm:   units.Seconds(gradInter),
		Bubble:          units.Seconds(bubble),
		Microbatch:      ub,
		Efficiency:      eff,
		Workers:         run.workersInt,
		NumBatches:      tr.NumBatches,
		ModelFLOPs:      agg.flops,
	}
	if s.relSpec != nil {
		out.Reliability = run.rel
	}
	if !finite(out.Components()) {
		return PointNonFinite, errNonFinite
	}
	return PointOK, nil
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
