package model

import "amped/internal/units"

// LayerProfile is one transformer block's share of the per-batch time.
type LayerProfile struct {
	// Layer is the block index.
	Layer int
	// MoE flags Mixture-of-Experts blocks.
	MoE bool
	// Compute is the block's forward+backward+update compute time on the
	// critical path (already divided by the worker count).
	Compute units.Seconds
	// Comm is the block's exposed communication time: its TP, PP, CP and
	// MoE shares plus the ZeRO overhead on them, forward and backward.
	Comm units.Seconds
	// GradAR is the block's share of the exposed gradient all-reduce.
	GradAR units.Seconds
}

// Total sums the profile's components.
func (p LayerProfile) Total() units.Seconds { return p.Compute + p.Comm + p.GradAR }

// ProfileLayers splits the per-batch breakdown by transformer block — the
// view that locates which layers (dense vs MoE, attention- vs MLP-heavy)
// dominate a configuration. It prices the point through the same kernel as
// Evaluate and apportions the result: compute by each block's own Eq. 2–4
// aggregate, the layer-uniform TP/PP/CP communication evenly, the MoE
// all-to-all over the MoE blocks, the ZeRO overhead with the communication
// it scales, and the exposed gradient all-reduce by each block's Eq. 10–11
// cost. The profile sums to the breakdown minus what no block owns: the
// pipeline bubble (a schedule property) and, under IncludeEmbedding, the
// logit projection's compute and gradient all-reduce.
func (e *Estimator) ProfileLayers() ([]LayerProfile, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	s, err := Compile(e.Model, e.System, e.Training, e.Eff)
	if err != nil {
		return nil, err
	}
	batch := e.Training.Batch.Global
	run := s.prepareRun(e.Mapping)
	var bd Breakdown
	if _, err := s.priceCell(&run, batch, e.Training.Batch.Microbatches, nil, false, &bd); err != nil {
		return nil, err
	}

	m := s.model
	cMAC := 1 / (s.peakMAC * bd.Efficiency)
	uniform := float64(bd.TPIntraComm+bd.TPInterComm+bd.PPComm+bd.CPComm) / s.layersF
	var perMoE float64
	if s.moeLayers > 0 {
		perMoE = float64(bd.MoEComm) / s.moeLayers
	}
	zero := 1 + s.tr.ZeROOverhead
	var gradScale float64
	if raw := run.gradIntra + run.gradInter; raw > 0 {
		gradScale = float64(bd.GradIntraComm+bd.GradInterComm) / raw
	}
	shard := 1 / float64(run.mpn.TP()*run.pp)
	dpIntra, dpInter := s.allReduce(run.mpn.DPIntra, s.intra), s.allReduce(run.mpn.DPInter, s.inter)

	out := make([]LayerProfile, m.Layers)
	for l := range out {
		moe := m.IsMoELayer(l)
		var a batchAgg
		macs, nonlin := m.OpSums(l, batch)
		a.addLayer(macs, nonlin, m.LayerOps(l, batch), moe)
		uf := s.fwdCompute(&a, cMAC, &run)
		uw := m.LayerParams(l) * cMAC * s.macScale
		comm := uniform
		if moe {
			comm += perMoE
		}
		ng := gradParams(m, l, run.moeActive) * shard
		grad := dpIntra.time(1, ng, s.gradBits) + dpInter.time(1, ng, s.gradBits)
		out[l] = LayerProfile{
			Layer:   l,
			MoE:     moe,
			Compute: units.Seconds((uf + s.tr.BackwardComputeFactor*uf + uw) / run.workers),
			Comm:    units.Seconds(zero * comm),
			GradAR:  units.Seconds(gradScale * grad),
		}
	}
	return out, nil
}
