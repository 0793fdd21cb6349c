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
// one-cell run), EvaluateBatch, the sweep executor's row API (PrepareRow,
// then PriceRowCell per cell against the positional Aggregates), both
// inference phases and ProfileLayers — prices through the same pieces over
// one mappingRun: prepareRun (the fit check and the Eq. 6/10/11 hoists),
// fwdCompute (Eq. 2–4), fwdComm (Eq. 5–7, 9) and, for training cells,
// priceCell (Eq. 1, 8, 12, the gradient overlap, the breakdown and its rank
// key). priceCell splits a cell in two: the degree-group terms (fillColumn
// fills a Column: the batch schedule verdict, N_ub and ub, the Eq. 3
// efficiency, the per-worker Eq. 2–4 compute, its compute floor and Eq.
// 8's R·(N_PP−1)/N_ub), which read only the batch, the raw N_ub and the
// degree products, and the mapping-dependent rest (priceRest:
// communication, gradient all-reduce, bubble, breakdown, rank key). A
// sweep hands in the Column its walk scopes to one degree group and batch
// position, and a Row keeps the forward communication of its mapping's
// last microbatch size; a point prices both from empty. PriceRowCell runs
// the rest only for a cell its column does not cut (Column.Cuts), which a
// sweep walk asks first, with a row-free fit verdict (Session.Fits). Every
// Eq. 2 aggregate comes from the session's one memo (aggMemo), which is the
// only state a compiled session writes after Compile.

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
// It takes the normalized degree products (vpp at least 1).
func checkFit(m *transformer.Model, tp, pp, cp, vpp int) error {
	if e := fitCheck(m, tp, pp, cp, vpp); e.bound != fitOK {
		err := e // only a failure allocates
		return &err
	}
	return nil
}

// fitCheck is checkFit's verdict by value: a bare yes or no allocates nothing.
func fitCheck(m *transformer.Model, tp, pp, cp, vpp int) fitError {
	switch {
	case tp > m.Heads:
		return fitError{fitHeads, tp, m.Heads, 0}
	case pp > m.Layers:
		return fitError{fitLayers, pp, m.Layers, 0}
	case cp > m.SeqLen:
		return fitError{fitSeqLen, cp, m.SeqLen, 0}
	case vpp > 1 && pp <= 1:
		return fitError{fitVPPNoPP, vpp, 0, 0}
	case vpp > 1 && pp*vpp > m.Layers:
		return fitError{fitVPPLayers, pp, vpp, m.Layers}
	}
	return fitError{}
}

// fitError is a checkFit failure: the bound that failed and the numbers its
// message names. The message is formatted only when Error is called, since
// a sweep prepares many mappings that do not fit and reports few of them.
type fitError struct {
	bound   fitBound
	a, b, c int
}

type fitBound uint8

const (
	fitOK fitBound = iota
	fitHeads
	fitLayers
	fitSeqLen
	fitVPPNoPP
	fitVPPLayers
)

func (e *fitError) Error() string {
	switch e.bound {
	case fitHeads:
		return fmt.Sprintf("model: TP degree %d exceeds %d attention heads", e.a, e.b)
	case fitLayers:
		return fmt.Sprintf("model: PP degree %d exceeds %d layers", e.a, e.b)
	case fitSeqLen:
		return fmt.Sprintf("model: CP degree %d exceeds sequence length %d", e.a, e.b)
	case fitVPPNoPP:
		return fmt.Sprintf("model: virtual pipeline depth %d requires PP > 1", e.a)
	default:
		return fmt.Sprintf("model: PP %d x VPP %d exceeds %d layers", e.a, e.b, e.c)
	}
}

// prepareRun validates a mapping once and fills r with its run constants,
// in place. The mapping is read through mp, normalized once into r, and
// every degree product is read off that copy; Mapping.Validate runs only to
// build the error of a mapping that does not tile the system.
func (s *Session) prepareRun(r *mappingRun, mp *parallel.Mapping) {
	*r = mappingRun{}
	r.mpn = *mp
	n := &r.mpn
	n.Normalize()
	if !n.Tiles(s.sys) {
		*r = mappingRun{err: mp.Validate(s.sys)}
		return
	}
	tp, cp := n.TPIntra*n.TPInter, n.CPIntra*n.CPInter
	r.pp, r.dp = n.PPIntra*n.PPInter, n.DPIntra*n.DPInter
	r.fitErr = checkFit(s.model, tp, r.pp, cp, n.VPP)
	r.workersInt = tp * r.pp * r.dp * cp
	r.workers = float64(r.workersInt)
	r.tpF = float64(tp)
	r.cpF = float64(cp)
	r.vppF = float64(n.VPP)
	if r.pp > 1 {
		r.rPP = s.tr.BubbleRatio * float64(r.pp-1)
	}
	r.moeActive = s.model.MoE() && n.ExpertParallel
	r.tpIntra = s.allReduce(n.TPIntra, s.intra)
	r.tpInter = s.allReduce(n.TPInter, s.inter)
	r.cpIntra = s.allReduce(n.CPIntra, s.intra)
	r.cpInter = s.allReduce(n.CPInter, s.inter)
	// Eq. 10–11: each worker reduces its 1/(TP·PP) shard of the gradients.
	// The all-reduce is linear in the element count, so the layer loop
	// collapses to the precomputed parameter aggregate.
	if r.dp > 1 {
		shard := 1 / float64(tp*r.pp)
		ngSum := s.gradParamsPlain
		if r.moeActive {
			ngSum = s.gradParamsEP
		}
		ngSum = (ngSum + s.gradEmbParams) * shard
		r.gradIntra = s.allReduce(n.DPIntra, s.intra).time(s.gradLatCount, ngSum, s.gradBits)
		r.gradInter = s.allReduce(n.DPInter, s.inter).time(s.gradLatCount, ngSum, s.gradBits)
	}
	if s.relSpec != nil {
		nodes := faults.NodesFor(r.workersInt, s.accelsPerNode)
		r.rel = s.relSpec.Expect(faults.Cluster{
			Workers: r.workersInt,
			Nodes:   nodes,
			Links:   nodes * s.nicsPerNode,
		}, s.ckptStateBytes)
	}
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

// commTerms memoizes fwdComm's five terms for one training microbatch size
// ub over s·h. A Row keeps the last set it priced: fwdComm reads nothing of
// a cell but the mapping run and ub, so the cells of a row that share ub
// share the terms. A point prices with an empty one of its own. ub is 0
// when the memo is empty; a priced microbatch is always positive.
type commTerms struct {
	ub                               float64
	tpIntra, tpInter, ppHop, cp, moe float64
}

// Column is the degree-group part of one training cell: what priceCell
// reads of the batch, the raw N_ub and the degree products alone (DP and PP
// for the schedule, TP and sequence parallelism for the roofline compute,
// all four for the worker count). Every mapping of one degree group at one
// batch position and raw N_ub shares it, so a sweep walking a group prices
// it once per batch position; a point prices with an empty one of its own.
// The zero value is empty. It fills in two steps, each on the first cell
// that needs it: the batch-schedule verdict (err, parallel.Batch.Validate's
// error, or ub and the bubble rate), then, on the first cell that also
// passes the model-fit check, the efficiency and the per-worker Eq. 2–4
// compute. The efficiency model is thus called once per filled Column; it
// must be a pure function of ub. A panic in it leaves the terms unfilled,
// so the next cell calls it again.
type Column struct {
	resolved bool // the verdict fields hold the schedule
	err      error
	ub       float64
	// bubbleRate is Eq. 8's R·(N_PP−1)/N_ub.
	bubbleRate float64

	priced bool // the terms below are filled
	eff    float64
	flops  units.FLOPs // the batch's model FLOPs
	// Forward, backward and weight-update compute per worker, and the
	// forward plus backward step per worker.
	fwd, bwd, upd, step float64
	// floor is the rank key of the cell's compute alone: what the key
	// would be if every communication and bubble term were zero.
	floor float64
}

// Floor is the column's compute floor, 0 until a cell of the column has
// priced its terms: compute × N_batch × (1 + failure overhead), summed and
// multiplied in the order the rank key is. Every other term of the key is
// non-negative and rounding is monotone, so no cell of the column has a
// rank key below it, bit for bit. The failure overhead depends only on the
// worker count, a degree-group product, so the floor is the column's.
func (c *Column) Floor() float64 { return c.floor }

// Cuts reports whether the column cuts its cells that pass the run and fit
// checks at limit: it has priced its terms and its floor is above limit.
func (c *Column) Cuts(limit float64) bool { return c.priced && c.floor > limit }

// Fits is PrepareRow's model-fit verdict on a mapping with TP, PP and CP
// degree products tp, pp and cp and VPP blocks vpp: it reads nothing else,
// so a sweep takes it from a tiling mapping's degree group without a row.
func (s *Session) Fits(tp, pp, cp, vpp int) bool {
	return fitCheck(s.model, tp, pp, cp, vpp).bound == fitOK
}

// resolve fills e with the batch-schedule verdict of global batch g at raw
// microbatch count nub on run's degrees: an inline of parallel.Batch's
// Validate, MicrobatchesOrDefault and Microbatch over the run's normalized
// degrees. A failing schedule takes the real Validate for its error.
func (run *mappingRun) resolve(g, nub int, e *Column) {
	*e = Column{resolved: true}
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
		e.err = parallel.Batch{Global: g, Microbatches: nub}.Validate(run.mpn)
		return
	}
	e.ub = float64(per) / float64(nubD)
	e.bubbleRate = run.rPP / float64(nubD)
}

// priceGroup fills e's efficiency and per-worker Eq. 2–4 compute over
// global batch g's aggregate (agg, or the session's memo when nil). Every
// term is written after the efficiency model returns.
func (s *Session) priceGroup(run *mappingRun, g int, agg *batchAgg, e *Column) {
	eff := s.eff.Eff(e.ub)
	cMAC := 1 / (s.peakMAC * eff)
	if agg == nil {
		agg = s.agg(g)
	}
	ufTotal := s.fwdCompute(agg, cMAC, run)
	uwTotal := s.updateParams * cMAC * s.macScale
	ubTotal := s.tr.BackwardComputeFactor * ufTotal
	e.eff, e.flops = eff, agg.flops
	e.fwd = ufTotal / run.workers
	e.bwd = ubTotal / run.workers
	e.upd = uwTotal / run.workers
	e.step = (ufTotal + ubTotal) / run.workers
	// Breakdown.ComputeTime, then expectedTotal, over the same fields.
	compute := units.Seconds(e.fwd) + units.Seconds(e.bwd) + units.Seconds(e.upd)
	e.floor = float64(compute) * float64(s.tr.NumBatches) * (1 + run.rel.Overhead())
	e.priced = true
}

// priceCell prices one training cell — a global batch g and a raw
// microbatch count nub (0 derives the default) on a prepared mapping run —
// into out, field by field, and returns its rank key, the float64 of
// out.ExpectedTotalTime(). It checks the batch schedule before the
// model-fit bounds, so a cell failing both reports the batch error. A
// failing cell leaves out untouched; a non-finite result keeps the partial
// breakdown. agg is g's Eq. 2 aggregate when the caller resolved it up
// front (a sweep's positional Aggregates); nil resolves it through the
// session's memo once the cell validates. grp is the cell's degree-group
// Column, filled for g and nub on the run's degree group or empty; comm is
// a row's communication memo. nil prices without them. relaxed drops the
// Eq. 9 MoE term for LowerBound and must not be set with a memo.
func (s *Session) priceCell(run *mappingRun, g, nub int, agg *batchAgg, grp *Column, comm *commTerms, relaxed bool, out *Breakdown) (float64, error) {
	if grp == nil {
		grp = new(Column) // empty: this cell's own
	}
	if err := s.fillColumn(run, g, nub, agg, grp); err != nil {
		return 0, err
	}
	return s.priceRest(run, grp, comm, relaxed, out)
}

// fillColumn checks a cell's mapping run, then its batch schedule, then its
// model fit, returning the first error, and fills the terms of its column
// grp that are still empty.
func (s *Session) fillColumn(run *mappingRun, g, nub int, agg *batchAgg, grp *Column) error {
	if run.err != nil {
		return run.err
	}
	if !grp.resolved {
		run.resolve(g, nub, grp)
	}
	if grp.err != nil {
		return grp.err
	}
	if run.fitErr != nil {
		return run.fitErr
	}
	if !grp.priced {
		s.priceGroup(run, g, agg, grp)
	}
	return nil
}

// priceRest prices the mapping-dependent rest of a cell whose column
// fillColumn has filled: communication, gradient all-reduce, bubble, the
// breakdown and the rank key (see priceCell).
func (s *Session) priceRest(run *mappingRun, grp *Column, comm *commTerms, relaxed bool, out *Breakdown) (float64, error) {
	tr := &s.tr
	ub := grp.ub

	// Eq. 5–7, 9 on the microbatch, unless the memo holds ub's terms;
	// interleaved schedules cross the stage boundary VPP times per
	// microbatch.
	if comm == nil {
		comm = new(commTerms) // empty: this cell's own
	}
	if comm.ub != ub {
		comm.tpIntra, comm.tpInter, comm.ppHop, comm.cp, comm.moe = s.fwdComm(run, ub, s.seqHidden, relaxed)
		comm.ub = ub
	}
	ppComm := comm.ppHop * run.vppF
	fwdTotal := comm.tpIntra + comm.tpInter + ppComm + comm.cp + comm.moe
	bf := tr.BackwardCommFactor
	exposed := 1 - tr.CommOverlap
	commScale := (1 + bf) * exposed

	gradIntra, gradInter := run.gradIntra, run.gradInter
	if o := tr.GradOverlap; o > 0 {
		if total := gradIntra + gradInter; total > 0 {
			scale := gradOverlapScale(o, total, grp.bwd, s.gradLatCount)
			gradIntra *= scale
			gradInter *= scale
		}
	}

	// Eq. 8 over the group's R·(N_PP−1)/N_ub; the interleaved schedule
	// shrinks the bubble by the chunk count.
	var bubble float64
	if run.pp > 1 {
		bubble = grp.bubbleRate * (grp.step + commScale*fwdTotal) / run.vppF
	}
	zeroExtra := tr.ZeROOverhead * (1 + bf) * exposed * fwdTotal

	out.ComputeForward = units.Seconds(grp.fwd)
	out.ComputeBackward = units.Seconds(grp.bwd)
	out.WeightUpdate = units.Seconds(grp.upd)
	out.TPIntraComm = units.Seconds(commScale * comm.tpIntra)
	out.TPInterComm = units.Seconds(commScale * comm.tpInter)
	out.PPComm = units.Seconds(commScale * ppComm)
	out.CPComm = units.Seconds(commScale * comm.cp)
	out.MoEComm = units.Seconds(commScale * comm.moe)
	out.ZeROComm = units.Seconds(zeroExtra)
	out.GradIntraComm = units.Seconds(gradIntra)
	out.GradInterComm = units.Seconds(gradInter)
	out.Bubble = units.Seconds(bubble)
	out.Microbatch = ub
	out.Efficiency = grp.eff
	out.Workers = run.workersInt
	out.NumBatches = tr.NumBatches
	out.ModelFLOPs = grp.flops
	out.Reliability = run.rel // zero without a reliability spec
	// One sum of the twelve components. A finite sum proves every
	// component finite (an Inf or NaN term makes the sum Inf or NaN); only
	// a non-finite sum, which finite components can reach by overflow,
	// needs the field-wise check.
	perBatch := out.PerBatch()
	if perBatch-perBatch != 0 && !out.finite() {
		return 0, errNonFinite
	}
	return float64(out.expectedTotal(perBatch)), nil
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
