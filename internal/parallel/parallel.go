// Package parallel describes how a training job is parallelized across a
// distributed system: the degrees of tensor (TP), pipeline (PP), data (DP)
// and expert (MoE) parallelism and their split between intra-node and
// inter-node accelerators — the "mapping of parallelisms onto the system"
// that AMPeD exposes as its central tunable knob.
package parallel

import (
	"errors"
	"fmt"
	"strconv"

	"amped/internal/hardware"
)

// Mapping is one parallelism configuration. Total degree of each parallelism
// is the product of its intra- and inter-node components; the product of all
// three totals must equal the machine's accelerator count.
type Mapping struct {
	// TPIntra and TPInter compose N_TP = TPIntra · TPInter.
	TPIntra, TPInter int
	// PPIntra and PPInter compose N_PP.
	PPIntra, PPInter int
	// DPIntra and DPInter compose N_DP.
	DPIntra, DPInter int
	// CPIntra and CPInter compose N_CP, the context-parallel degree: the
	// sequence dimension is sharded across the group, each rank holding
	// s/N_CP tokens and exchanging K/V shards per layer (ring-attention
	// style). Zero means 1 (no context parallelism).
	CPIntra, CPInter int
	// VPP is the virtual-pipeline (interleaved schedule) chunk count v:
	// each pipeline stage holds v non-contiguous layer chunks, shrinking
	// the Eq. 8 bubble by v at the price of v× the stage-boundary traffic
	// [Narayanan'21]. Zero or 1 means the plain schedule.
	VPP int
	// SequenceParallel shards the norm/dropout activations across the
	// tensor-parallel group [Korthikanti'22]: it changes activation-memory
	// accounting (memkit) and the bandwidth-bound norm traffic of the
	// roofline op pricing, not the TP communication volume (the all-reduce
	// becomes an equal-volume reduce-scatter + all-gather pair).
	SequenceParallel bool
	// ExpertParallel distributes MoE experts across workers; the paper
	// models its communication as node-level all-to-all (Eq. 9), so the
	// flag records intent and the expert count lives with the model.
	ExpertParallel bool
}

// deg is one degree field as Normalize reads it: zero is promoted to 1 so
// callers can leave unused dimensions unset; every other value, negative
// ones included, stands.
func deg(d int) int {
	if d == 0 {
		return 1
	}
	return d
}

// Normalize promotes m's zero degrees to 1 in place: Normalized without
// the copy.
func (m *Mapping) Normalize() {
	m.TPIntra, m.TPInter = deg(m.TPIntra), deg(m.TPInter)
	m.PPIntra, m.PPInter = deg(m.PPIntra), deg(m.PPInter)
	m.DPIntra, m.DPInter = deg(m.DPIntra), deg(m.DPInter)
	m.CPIntra, m.CPInter = deg(m.CPIntra), deg(m.CPInter)
	m.VPP = deg(m.VPP)
}

// Normalized returns the mapping with all degrees at least 1.
func (m Mapping) Normalized() Mapping {
	m.Normalize()
	return m
}

// The degree accessors multiply the promoted fields directly instead of
// normalizing a copy of the whole mapping: they sit on sweep hot paths.

// TP returns the total tensor-parallel degree N_TP.
func (m Mapping) TP() int { return deg(m.TPIntra) * deg(m.TPInter) }

// PP returns the total pipeline-parallel degree N_PP.
func (m Mapping) PP() int { return deg(m.PPIntra) * deg(m.PPInter) }

// DP returns the total data-parallel degree N_DP.
func (m Mapping) DP() int { return deg(m.DPIntra) * deg(m.DPInter) }

// CP returns the total context-parallel degree N_CP.
func (m Mapping) CP() int { return deg(m.CPIntra) * deg(m.CPInter) }

// Workers returns the total accelerator count the mapping occupies.
func (m Mapping) Workers() int { return m.TP() * m.PP() * m.DP() * m.CP() }

// IntraDegree returns the accelerators per node the mapping uses.
func (m Mapping) IntraDegree() int {
	return deg(m.TPIntra) * deg(m.PPIntra) * deg(m.DPIntra) * deg(m.CPIntra)
}

// InterDegree returns the node count the mapping uses.
func (m Mapping) InterDegree() int {
	return deg(m.TPInter) * deg(m.PPInter) * deg(m.DPInter) * deg(m.CPInter)
}

// String renders the mapping compactly, e.g. "TP8x1 PP1x2 DP1x64". Built
// with strconv instead of fmt: the sweep engine uses the string as its
// deterministic ranking tiebreak.
func (m Mapping) String() string {
	var buf [64]byte
	return string(m.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of the mapping to b. The sweep
// ranking compares identities through it on exact time ties without
// allocating a string per comparison.
func (m Mapping) AppendTo(b []byte) []byte {
	n := m.Normalized()
	b = append(b, "TP"...)
	b = strconv.AppendInt(b, int64(n.TPIntra), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(n.TPInter), 10)
	b = append(b, " PP"...)
	b = strconv.AppendInt(b, int64(n.PPIntra), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(n.PPInter), 10)
	b = append(b, " DP"...)
	b = strconv.AppendInt(b, int64(n.DPIntra), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(n.DPInter), 10)
	// New dimensions render only when engaged so legacy mappings keep their
	// exact historical strings (sort order, sweep cursors and goldens depend
	// on them byte-for-byte).
	if n.CPIntra > 1 || n.CPInter > 1 {
		b = append(b, " CP"...)
		b = strconv.AppendInt(b, int64(n.CPIntra), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(n.CPInter), 10)
	}
	if n.VPP > 1 {
		b = append(b, " VPP"...)
		b = strconv.AppendInt(b, int64(n.VPP), 10)
	}
	if m.SequenceParallel {
		b = append(b, " +SP"...)
	}
	if m.ExpertParallel {
		b = append(b, " +EP"...)
	}
	return b
}

// Tiles reports whether m, already normalized (Normalize), fits sys
// exactly: every degree at least 1, the intra-node product equal to the
// node population and the inter-node product equal to the node count. It is
// Validate's rule without the error text, for callers that check many
// mappings and report few.
func (m *Mapping) Tiles(sys *hardware.System) bool {
	return sys != nil &&
		m.TPIntra >= 1 && m.TPInter >= 1 && m.PPIntra >= 1 && m.PPInter >= 1 &&
		m.DPIntra >= 1 && m.DPInter >= 1 && m.CPIntra >= 1 && m.CPInter >= 1 && m.VPP >= 1 &&
		m.TPIntra*m.PPIntra*m.DPIntra*m.CPIntra == sys.AccelsPerNode &&
		m.TPInter*m.PPInter*m.DPInter*m.CPInter == sys.Nodes
}

// Validate checks that the mapping is internally consistent and fits the
// system (Tiles), and names the check a failing mapping fails: the first
// degree below 1, else the intra-node product, else the inter-node product.
func (m Mapping) Validate(sys *hardware.System) error {
	if sys == nil {
		return errors.New("parallel: nil system")
	}
	n := m.Normalized()
	if n.Tiles(sys) {
		return nil
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"TP intra", n.TPIntra}, {"TP inter", n.TPInter},
		{"PP intra", n.PPIntra}, {"PP inter", n.PPInter},
		{"DP intra", n.DPIntra}, {"DP inter", n.DPInter},
		{"CP intra", n.CPIntra}, {"CP inter", n.CPInter},
		{"VPP", n.VPP},
	} {
		if d.v < 1 {
			return fmt.Errorf("parallel: %s degree %d must be >= 1", d.name, d.v)
		}
	}
	// Products off n: IntraDegree and InterDegree would normalize again.
	if got, want := n.TPIntra*n.PPIntra*n.DPIntra*n.CPIntra, sys.AccelsPerNode; got != want {
		return fmt.Errorf("parallel: mapping %v uses %d accelerators per node, node has %d", m, got, want)
	}
	return fmt.Errorf("parallel: mapping %v spans %d nodes, system has %d",
		m, n.TPInter*n.PPInter*n.DPInter*n.CPInter, sys.Nodes)
}

// Batch describes how the global batch is scheduled through a mapping.
type Batch struct {
	// Global is the total sequences per training step (the paper sweeps
	// 4096/8192/16384 in Case Study I).
	Global int
	// Microbatches is N_ub, the microbatch count per pipeline (per
	// replica). Zero lets callers derive a default (commonly N_PP).
	Microbatches int
}

// Validate checks the batch configuration against a mapping: the global
// batch must divide evenly into per-replica batches and microbatches.
func (b Batch) Validate(m Mapping) error {
	if b.Global <= 0 {
		return fmt.Errorf("parallel: global batch %d must be positive", b.Global)
	}
	if b.Microbatches < 0 {
		return fmt.Errorf("parallel: microbatch count %d must be non-negative", b.Microbatches)
	}
	dp := m.DP()
	if b.Global%dp != 0 {
		return fmt.Errorf("parallel: global batch %d not divisible by DP degree %d", b.Global, dp)
	}
	nub := b.MicrobatchesOrDefault(m)
	if per := b.Global / dp; per%nub != 0 {
		return fmt.Errorf("parallel: per-replica batch %d not divisible by %d microbatches", per, nub)
	}
	return nil
}

// MicrobatchesOrDefault returns N_ub, defaulting to the pipeline degree
// (the paper's §V-B choice) clamped to at least 1 and at most the
// per-replica batch so a microbatch always holds >= 1 sequence.
func (b Batch) MicrobatchesOrDefault(m Mapping) int {
	nub := b.Microbatches
	if nub <= 0 {
		nub = m.PP()
	}
	if per := b.PerReplica(m); nub > per && per > 0 {
		nub = per
	}
	if nub < 1 {
		nub = 1
	}
	return nub
}

// PerReplica returns b = B / N_DP, the effective batch one data-parallel
// replica processes — the batch size entering the communication volumes of
// Eq. 6/7/9.
func (b Batch) PerReplica(m Mapping) int {
	dp := m.DP()
	if dp == 0 {
		return 0
	}
	return b.Global / dp
}

// Microbatch returns ub = B / (N_DP · N_ub), the per-step batch that
// determines microbatch efficiency (Eq. 3's eff(ub) argument).
func (b Batch) Microbatch(m Mapping) float64 {
	nub := b.MicrobatchesOrDefault(m)
	per := b.PerReplica(m)
	if nub == 0 {
		return 0
	}
	return float64(per) / float64(nub)
}
