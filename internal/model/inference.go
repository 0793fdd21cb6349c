package model

import (
	"errors"
	"fmt"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/parallel"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Inference describes a serving workload on the compiled model: every
// request carries a PromptLen-token prompt (processed in one prefill pass)
// and generates GenTokens tokens autoregressively against a growing KV
// cache. Prefill is priced as the training forward pass at the prompt
// length; decode is priced per token at the mean cache depth, with the
// KV-cache reads flowing through the roofline bandwidth term.
type Inference struct {
	// PromptLen is the prompt length in tokens (the prefill sequence).
	PromptLen int
	// GenTokens is the number of tokens generated per request.
	GenTokens int
}

// Validate checks the workload against the model it will run on: the
// context (prompt plus generated tokens) must fit the model's trained
// sequence length.
func (inf Inference) Validate(m *transformer.Model) error {
	if inf.PromptLen < 1 {
		return fmt.Errorf("model: prompt length %d must be at least 1", inf.PromptLen)
	}
	if inf.GenTokens < 1 {
		return fmt.Errorf("model: generated token count %d must be at least 1", inf.GenTokens)
	}
	if ctx := inf.PromptLen + inf.GenTokens; ctx > m.SeqLen {
		return fmt.Errorf("model: context %d (prompt %d + generate %d) exceeds sequence length %d",
			ctx, inf.PromptLen, inf.GenTokens, m.SeqLen)
	}
	return nil
}

// InferenceSession is a compiled serving scenario: one (model, system,
// recipe, efficiency, workload) tuple with every point-invariant hoisted,
// mirroring Session for the training workload. The prefill phase reuses a
// full training Session compiled at the prompt length — same hoists, same
// memoized per-batch aggregates, same roofline pricing — while the decode
// phase keeps its own aggregate memo built from the per-token decode op
// counts at the mean cache depth, with the KV-cache reads folded into the
// attention class's streamed activation bytes so fwdCompute prices them
// against memory bandwidth unchanged. EvaluateInferencePoint runs in O(1)
// with zero heap allocations once a batch's aggregates are memoized.
//
// An InferenceSession is immutable after CompileInference and safe for
// concurrent use: both phases memoize each batch on first touch.
type InferenceSession struct {
	// pre is the prefill scenario: the model truncated to the prompt length
	// (AtSeqLen clamps a longer sliding window too), compiled exactly as a
	// training session. Its hoists (links, precision scales, roofline
	// constants, parameter aggregates) are shared by the decode path.
	pre *Session
	// full is the original model, with the trained sequence length and the
	// unclamped window — the decode op counts and the KV-cache footprint
	// depend on the serving context, not the prefill truncation.
	full *transformer.Model
	inf  Inference
	// kmean is the cache depth a decode step is priced at: the mean context
	// over the generation, prompt + (gen+1)/2, so one representative
	// aggregate prices every step (decode cost is affine in the span, so the
	// mean-depth step time equals the per-token average exactly for
	// unwindowed attention).
	kmean int

	// dec memoizes the decode-step operation aggregates by global batch,
	// exactly like the training aggregates.
	dec aggMemo
}

// CompileInference validates a serving scenario once and returns the
// compiled InferenceSession. A nil efficiency model selects
// efficiency.Default(). The training recipe supplies the precision
// operands, topology, roofline switch and communication overlap; its
// batch, backward and optimizer knobs are ignored (inference runs forward
// only, batch is a per-point input).
func CompileInference(m *transformer.Model, sys *hardware.System, tr Training, eff efficiency.Model, inf Inference) (*InferenceSession, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := inf.Validate(m); err != nil {
		return nil, err
	}
	pm := m.AtSeqLen(inf.PromptLen)
	pre, err := Compile(&pm, sys, tr, eff)
	if err != nil {
		return nil, err
	}
	s := &InferenceSession{
		pre:   pre,
		full:  m,
		inf:   inf,
		kmean: inf.PromptLen + (inf.GenTokens+1)/2,
	}
	s.dec.compute = s.computeDecodeAgg
	return s, nil
}

// Model returns the compiled transformer architecture (the original model,
// not the prompt-length truncation).
func (s *InferenceSession) Model() *transformer.Model { return s.full }

// System returns the compiled machine description.
func (s *InferenceSession) System() *hardware.System { return s.pre.sys }

// Training returns the compiled recipe with defaults applied.
func (s *InferenceSession) Training() Training { return s.pre.tr }

// Eff returns the compiled microbatch-efficiency model.
func (s *InferenceSession) Eff() efficiency.Model { return s.pre.eff }

// Inference returns the compiled serving workload.
func (s *InferenceSession) Inference() Inference { return s.inf }

// Key returns the canonical scenario key: the training ScenarioKey of the
// underlying tuple extended with the serving workload, so the serving
// layer's session cache distinguishes inference scenarios from training
// ones and from each other by prompt/generation shape.
func (s *InferenceSession) Key() string {
	return InferenceScenarioKey(s.full, s.pre.sys, s.pre.tr, s.pre.eff, s.inf)
}

// computeDecodeAgg builds the decode-step aggregate for one global batch:
// per-layer decode op counts at the mean cache depth, bucketed by roofline
// class exactly like the training aggregate. The KV-cache reads land in the
// attention class's activation elements, which lets fwdCompute price the
// decode step's bandwidth bound without a special case (in pure-FLOP mode
// they are free, as all memory traffic is).
func (s *InferenceSession) computeDecodeAgg(batch int) batchAgg {
	var a batchAgg
	m := s.full
	for l := 0; l < m.Layers; l++ {
		macs, nonlin := m.DecodeOpSums(l, batch, s.kmean)
		a.addLayer(macs, nonlin, m.DecodeLayerOps(l, batch, s.kmean), m.IsMoELayer(l))
	}
	if s.pre.tr.IncludeEmbedding {
		act, weight := m.DecodeEmbeddingStreamElems(batch)
		a.addEmbedding(m.DecodeEmbeddingMACs(batch), act, weight)
	}
	// Useful work per decode step: forward MACs only (2 FLOPs each) — no
	// backward, no weight update.
	a.flops = units.FLOPs(a.macSum * units.FLOPsPerMAC)
	return a
}

// InferenceBreakdown is the evaluated serving-time decomposition. The
// prefill fields compose time-to-first-token; the decode fields compose the
// steady-state per-token latency. All durations are in seconds.
type InferenceBreakdown struct {
	// PrefillCompute is the prompt's forward compute on the critical path:
	// the batch crosses all N_PP stages serially (no microbatch pipelining
	// hides the traversal from the first token), so the per-worker forward
	// time carries a N_PP factor relative to the training throughput view.
	PrefillCompute units.Seconds
	// PrefillTPIntraComm and PrefillTPInterComm are the prefill
	// tensor-parallel all-reduce time (Eq. 6 at the prompt length,
	// forward only), split by link level.
	PrefillTPIntraComm units.Seconds
	PrefillTPInterComm units.Seconds
	// PrefillPPComm is the pipeline point-to-point time on the first
	// token's path: N_PP−1 boundary crossings at the slowest hop.
	PrefillPPComm units.Seconds
	// PrefillCPComm is the context-parallel K/V exchange over the prompt.
	PrefillCPComm units.Seconds
	// PrefillMoEComm is the expert all-to-all over the prompt (Eq. 9).
	PrefillMoEComm units.Seconds

	// DecodeCompute is one decode step's forward compute in the
	// steady-state throughput view: concurrent decode waves keep every
	// pipeline stage busy, so the per-token step time is the per-worker
	// share without the pipeline-traversal factor.
	DecodeCompute units.Seconds
	// DecodeTPIntraComm and DecodeTPInterComm are the decode-step TP
	// all-reduce time (one token per sequence).
	DecodeTPIntraComm units.Seconds
	DecodeTPInterComm units.Seconds
	// DecodePPComm is the decode-step boundary crossing (once per step,
	// times the virtual-pipeline chunk count, mirroring Eq. 7).
	DecodePPComm units.Seconds
	// DecodeCPComm is the decode-step K/V exchange: the new token's
	// kvFrac·h-wide key/value broadcast around the CP group.
	DecodeCPComm units.Seconds
	// DecodeMoEComm is the decode-step expert all-to-all.
	DecodeMoEComm units.Seconds

	// GlobalBatch is the concurrent sequence count across the fleet;
	// BatchPerReplica is its data-parallel share (the serving batch one
	// replica decodes together).
	GlobalBatch     int
	BatchPerReplica float64
	// Efficiency is eff(BatchPerReplica) as used in C_MAC for both phases.
	Efficiency float64
	// Workers echoes the mapping's total accelerator count.
	Workers int
	// PromptLen and GenTokens echo the compiled workload.
	PromptLen int
	GenTokens int
	// PrefillFLOPs and DecodeFLOPs are the useful forward work (2·MACs) of
	// the prefill pass and of one decode step, for MFU-style metrics.
	PrefillFLOPs units.FLOPs
	DecodeFLOPs  units.FLOPs
	// KVBytesPerSeq is one sequence's KV-cache footprint per accelerator at
	// the full context (prompt + generated), the admission quantity behind
	// memkit.MaxConcurrentSeqs.
	KVBytesPerSeq units.Bytes
}

// TTFT is the time to first token: prefill compute plus exposed prefill
// communication.
func (b *InferenceBreakdown) TTFT() units.Seconds {
	return b.PrefillCompute + b.PrefillTPIntraComm + b.PrefillTPInterComm +
		b.PrefillPPComm + b.PrefillCPComm + b.PrefillMoEComm
}

// PerToken is the steady-state decode latency per generated token.
func (b *InferenceBreakdown) PerToken() units.Seconds {
	return b.DecodeCompute + b.DecodeTPIntraComm + b.DecodeTPInterComm +
		b.DecodePPComm + b.DecodeCPComm + b.DecodeMoEComm
}

// RequestLatency is one request end to end: prefill plus every generated
// token.
func (b *InferenceBreakdown) RequestLatency() units.Seconds {
	return b.TTFT() + units.Seconds(float64(b.GenTokens)*float64(b.PerToken()))
}

// TokensPerSecond is the fleet-wide steady-state generation throughput:
// every step emits one token per concurrent sequence.
func (b *InferenceBreakdown) TokensPerSecond() float64 {
	t := float64(b.PerToken())
	if t <= 0 {
		return 0
	}
	return float64(b.GlobalBatch) / t
}

// Components returns the named contributions in presentation order, for
// breakdown tables and the audit differential.
func (b *InferenceBreakdown) Components() []Component {
	return []Component{
		{"prefill compute", b.PrefillCompute},
		{"prefill TP intra", b.PrefillTPIntraComm},
		{"prefill TP inter", b.PrefillTPInterComm},
		{"prefill PP", b.PrefillPPComm},
		{"prefill CP", b.PrefillCPComm},
		{"prefill MoE", b.PrefillMoEComm},
		{"decode compute", b.DecodeCompute},
		{"decode TP intra", b.DecodeTPIntraComm},
		{"decode TP inter", b.DecodeTPInterComm},
		{"decode PP", b.DecodePPComm},
		{"decode CP", b.DecodeCPComm},
		{"decode MoE", b.DecodeMoEComm},
	}
}

// finite reports whether every component of Components is a finite
// number, reading the fields directly instead of building the list.
func (b *InferenceBreakdown) finite() bool {
	return finite(b.PrefillCompute, b.PrefillTPIntraComm, b.PrefillTPInterComm,
		b.PrefillPPComm, b.PrefillCPComm, b.PrefillMoEComm,
		b.DecodeCompute, b.DecodeTPIntraComm, b.DecodeTPInterComm,
		b.DecodePPComm, b.DecodeCPComm, b.DecodeMoEComm)
}

// String summarizes the breakdown.
func (b *InferenceBreakdown) String() string {
	return fmt.Sprintf("TTFT %v, %v/token, %.1f tok/s (batch %d, eff %.1f%%)",
		b.TTFT(), b.PerToken(), b.TokensPerSecond(), b.GlobalBatch, b.Efficiency*100)
}

// EvaluateInferencePoint evaluates one serving design point — a parallelism
// mapping and a global concurrent-sequence count — writing the breakdown
// into out. The caller owns out; once the batch's aggregates are memoized
// the hot path performs no heap allocations.
func (s *InferenceSession) EvaluateInferencePoint(mp parallel.Mapping, batch int, out *InferenceBreakdown) error {
	p := s.pre
	var run mappingRun
	p.prepareRun(&run, &mp)
	if run.err != nil {
		return run.err
	}
	if batch <= 0 {
		return fmt.Errorf("model: global batch %d must be positive", batch)
	}
	if batch%run.dp != 0 {
		return fmt.Errorf("model: global batch %d not divisible by %d data-parallel replicas", batch, run.dp)
	}
	// The prefill model's SeqLen is the prompt length: context parallelism
	// shards prompt tokens, so its degree is bounded by the prompt.
	if run.fitErr != nil {
		return run.fitErr
	}

	br := float64(batch / run.dp)
	eff := p.eff.Eff(br)
	cMAC := 1 / (p.peakMAC * eff)
	exposed := 1 - p.tr.CommOverlap

	// Prefill: the training forward pass at the prompt length. The first
	// token crosses every stage boundary; interleaving does not shorten a
	// single pass's traversal.
	aggP := p.agg(batch)
	ufPre := p.fwdCompute(aggP, cMAC, &run)
	tpIntraPre, tpInterPre, ppHopPre, cpPre, moePre := p.fwdComm(&run, br, p.seqHidden, false)
	ppPre := ppHopPre * float64(run.pp-1)

	// Decode: one token per sequence against the mean-depth cache, so the
	// activation width collapses from s·h to h. Steady-state view, mirroring
	// Eq. 7: concurrent decode waves keep the stages busy, so each step pays
	// one boundary crossing (per virtual chunk), not the full traversal.
	aggD := s.dec.get(batch)
	ufDec := p.fwdCompute(aggD, cMAC, &run)
	tpIntraDec, tpInterDec, ppHopDec, cpDec, moeDec := p.fwdComm(&run, br, float64(s.full.Hidden), false)
	ppDec := ppHopDec * run.vppF

	*out = InferenceBreakdown{
		PrefillCompute:     units.Seconds(float64(run.pp) * ufPre / run.workers),
		PrefillTPIntraComm: units.Seconds(exposed * tpIntraPre),
		PrefillTPInterComm: units.Seconds(exposed * tpInterPre),
		PrefillPPComm:      units.Seconds(exposed * ppPre),
		PrefillCPComm:      units.Seconds(exposed * cpPre),
		PrefillMoEComm:     units.Seconds(exposed * moePre),
		DecodeCompute:      units.Seconds(ufDec / run.workers),
		DecodeTPIntraComm:  units.Seconds(exposed * tpIntraDec),
		DecodeTPInterComm:  units.Seconds(exposed * tpInterDec),
		DecodePPComm:       units.Seconds(exposed * ppDec),
		DecodeCPComm:       units.Seconds(exposed * cpDec),
		DecodeMoEComm:      units.Seconds(exposed * moeDec),
		GlobalBatch:        batch,
		BatchPerReplica:    br,
		Efficiency:         eff,
		Workers:            run.workersInt,
		PromptLen:          s.inf.PromptLen,
		GenTokens:          s.inf.GenTokens,
		PrefillFLOPs:       units.FLOPs(aggP.macSum * units.FLOPsPerMAC),
		DecodeFLOPs:        aggD.flops,
		KVBytesPerSeq: memkit.KVCacheBytesPerSeq(s.full, run.mpn,
			s.inf.PromptLen+s.inf.GenTokens, p.tr.Operands),
	}
	if !out.finite() {
		return errNonFinite
	}
	return nil
}

// Evaluate is the one-shot convenience over EvaluateInferencePoint. On a
// non-finite result the partial breakdown is returned alongside the error,
// matching Session.Evaluate.
func (s *InferenceSession) Evaluate(mp parallel.Mapping, batch int) (*InferenceBreakdown, error) {
	out := new(InferenceBreakdown)
	if err := s.EvaluateInferencePoint(mp, batch, out); err != nil {
		if errors.Is(err, errNonFinite) {
			return out, err
		}
		return nil, err
	}
	return out, nil
}
