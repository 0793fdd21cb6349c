// Package config loads and saves AMPeD design points as JSON documents.
// Every knob the model exposes — transformer architecture, accelerator and
// system parameters, parallelism mapping, training recipe — is addressable
// from a config file, so sweeps are reproducible without recompiling.
//
// Model and accelerator sections accept either a preset name or explicit
// fields; quantity-valued fields (bandwidths, frequencies, memory) accept
// either numbers or strings with SI/binary suffixes ("2.4T", "32GiB").
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
	"amped/internal/units"
)

// Quantity is a float64 that unmarshals from either a JSON number or a
// suffixed string ("897G", "31.75GiB").
type Quantity float64

// UnmarshalJSON implements json.Unmarshaler. A bare number is parsed
// directly (null reads as 0, as it does into a float64); anything else must
// be a JSON string holding a quantity.
func (q *Quantity) UnmarshalJSON(data []byte) error {
	switch lit := bytes.Trim(data, " \t\r\n"); {
	case len(lit) > 0 && (lit[0] == '-' || '0' <= lit[0] && lit[0] <= '9') && json.Valid(lit):
		// A valid JSON value that opens like a number is one, and
		// ParseFloat reads it as encoding/json would.
		num, err := strconv.ParseFloat(string(lit), 64)
		if err != nil { // out of float64 range
			return fmt.Errorf("config: quantity must be a number or string: %s", data)
		}
		*q = Quantity(num)
		return nil
	case string(lit) == "null":
		*q = 0
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("config: quantity must be a number or string: %s", data)
	}
	v, err := units.ParseQuantity(s)
	if err != nil {
		return err
	}
	*q = Quantity(v)
	return nil
}

// MarshalJSON renders the plain number.
func (q Quantity) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(q))
}

// Model selects a transformer architecture: a preset name, optionally with
// field overrides.
type Model struct {
	Preset   string  `json:"preset,omitempty"`
	Name     string  `json:"name,omitempty"`
	Layers   int     `json:"layers,omitempty"`
	Hidden   int     `json:"hidden,omitempty"`
	Heads    int     `json:"heads,omitempty"`
	SeqLen   int     `json:"seq_len,omitempty"`
	Vocab    int     `json:"vocab,omitempty"`
	FFNRatio float64 `json:"ffn_ratio,omitempty"`
	Experts  int     `json:"experts,omitempty"`
	MoEEvery int     `json:"moe_every,omitempty"`
	TopK     int     `json:"top_k,omitempty"`
	// KVHeads enables grouped-query attention; Window enables sliding
	// (local) attention over the given token span.
	KVHeads int `json:"kv_heads,omitempty"`
	Window  int `json:"window,omitempty"`
}

// Resolve produces the domain model, applying overrides on top of the
// preset (zero-valued fields keep the preset's values).
func (m Model) Resolve() (transformer.Model, error) {
	var out transformer.Model
	if m.Preset != "" {
		p, err := transformer.Preset(m.Preset)
		if err != nil {
			return out, err
		}
		out = p
	} else {
		out.FFNRatio = 4 // the universal default when built from scratch
	}
	if m.Name != "" {
		out.Name = m.Name
	}
	override := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	override(&out.Layers, m.Layers)
	override(&out.Hidden, m.Hidden)
	override(&out.Heads, m.Heads)
	override(&out.SeqLen, m.SeqLen)
	override(&out.Vocab, m.Vocab)
	override(&out.Experts, m.Experts)
	override(&out.MoEEvery, m.MoEEvery)
	override(&out.TopK, m.TopK)
	if m.FFNRatio != 0 {
		out.FFNRatio = m.FFNRatio
	}
	if err := out.Validate(); err != nil {
		return transformer.Model{}, err
	}
	if m.KVHeads != 0 || m.Window != 0 {
		return transformer.Variant{KVHeads: m.KVHeads, Window: m.Window}.Apply(out)
	}
	return out, nil
}

// Link configures one interconnect level.
type Link struct {
	Name      string   `json:"name,omitempty"`
	LatencyS  Quantity `json:"latency_s,omitempty"`
	Bandwidth Quantity `json:"bandwidth_bps,omitempty"`
}

func (l Link) resolve() hardware.Link {
	return hardware.Link{
		Name:      l.Name,
		Latency:   units.Seconds(l.LatencyS),
		Bandwidth: units.BitsPerSecond(l.Bandwidth),
	}
}

// Accelerator configures the accelerator design point; a preset name with
// optional overrides, mirroring Table IV's knobs.
type Accelerator struct {
	Preset          string   `json:"preset,omitempty"`
	Name            string   `json:"name,omitempty"`
	FreqHz          Quantity `json:"freq_hz,omitempty"`
	Cores           int      `json:"cores,omitempty"`
	MACUnits        int      `json:"mac_units,omitempty"`
	MACWidth        int      `json:"mac_width,omitempty"`
	MACPrecision    int      `json:"mac_precision_bits,omitempty"`
	NonlinUnits     int      `json:"nonlin_units,omitempty"`
	NonlinWidth     int      `json:"nonlin_width,omitempty"`
	NonlinPrecision int      `json:"nonlin_precision_bits,omitempty"`
	MemoryBytes     Quantity `json:"memory_bytes,omitempty"`
	// MemBW is the device (HBM) memory bandwidth in bits/s, the roofline
	// input; zero keeps the preset's value (or leaves bandwidth unmodeled).
	MemBW     Quantity `json:"mem_bw_bps,omitempty"`
	OffChipBW Quantity `json:"offchip_bw_bps,omitempty"`
	TDPWatts  float64  `json:"tdp_watts,omitempty"`
}

func (a Accelerator) resolve() (hardware.Accelerator, error) {
	var out hardware.Accelerator
	if a.Preset != "" {
		p, err := hardware.AcceleratorPreset(a.Preset)
		if err != nil {
			return out, err
		}
		out = p
	}
	if a.Name != "" {
		out.Name = a.Name
	}
	if a.FreqHz != 0 {
		out.Freq = units.Hertz(a.FreqHz)
	}
	overrideInt := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	overrideInt(&out.Cores, a.Cores)
	overrideInt(&out.MACUnits, a.MACUnits)
	overrideInt(&out.MACWidth, a.MACWidth)
	overrideInt(&out.NonlinUnits, a.NonlinUnits)
	overrideInt(&out.NonlinWidth, a.NonlinWidth)
	if a.MACPrecision != 0 {
		out.MACPrecision = precision.Precision(a.MACPrecision)
	}
	if a.NonlinPrecision != 0 {
		out.NonlinPrecision = precision.Precision(a.NonlinPrecision)
	}
	if a.MemoryBytes != 0 {
		out.Memory = units.Bytes(a.MemoryBytes)
	}
	if a.MemBW != 0 {
		out.MemBW = units.BitsPerSecond(a.MemBW)
	}
	if a.OffChipBW != 0 {
		out.OffChipBW = units.BitsPerSecond(a.OffChipBW)
	}
	if a.TDPWatts != 0 {
		out.TDP = a.TDPWatts
	}
	if err := out.Validate(); err != nil {
		return hardware.Accelerator{}, err
	}
	return out, nil
}

// System configures the machine.
type System struct {
	Name          string      `json:"name,omitempty"`
	Accelerator   Accelerator `json:"accelerator"`
	Nodes         int         `json:"nodes"`
	AccelsPerNode int         `json:"accels_per_node"`
	Intra         Link        `json:"intra"`
	Inter         Link        `json:"inter"`
	NICsPerNode   int         `json:"nics_per_node,omitempty"`
	IdleFraction  float64     `json:"idle_power_fraction,omitempty"`
	// Oversubscription tapers the inter-node fabric (>= 1; 0 = none).
	Oversubscription float64 `json:"oversubscription,omitempty"`
}

// Resolve produces the domain system.
func (s System) Resolve() (hardware.System, error) {
	accel, err := s.Accelerator.resolve()
	if err != nil {
		return hardware.System{}, err
	}
	nics := s.NICsPerNode
	if nics == 0 {
		nics = s.AccelsPerNode // one NIC per accelerator by default
	}
	out := hardware.System{
		Name:              s.Name,
		Accel:             accel,
		Nodes:             s.Nodes,
		AccelsPerNode:     s.AccelsPerNode,
		Intra:             s.Intra.resolve(),
		Inter:             s.Inter.resolve(),
		NICsPerNode:       nics,
		IdlePowerFraction: s.IdleFraction,
		Oversubscription:  s.Oversubscription,
	}
	if err := out.Validate(); err != nil {
		return hardware.System{}, err
	}
	return out, nil
}

// Mapping configures the parallelism degrees.
type Mapping struct {
	TPIntra int `json:"tp_intra,omitempty"`
	TPInter int `json:"tp_inter,omitempty"`
	PPIntra int `json:"pp_intra,omitempty"`
	PPInter int `json:"pp_inter,omitempty"`
	DPIntra int `json:"dp_intra,omitempty"`
	DPInter int `json:"dp_inter,omitempty"`
	CPIntra int `json:"cp_intra,omitempty"`
	CPInter int `json:"cp_inter,omitempty"`
	// VPP is the virtual-pipeline chunk count per stage (interleaved 1F1B);
	// 0 or 1 means no interleaving.
	VPP              int  `json:"vpp,omitempty"`
	SequenceParallel bool `json:"sequence_parallel,omitempty"`
	ExpertParallel   bool `json:"expert_parallel,omitempty"`
}

// Resolve produces the domain mapping.
func (m Mapping) Resolve() parallel.Mapping {
	return parallel.Mapping{
		TPIntra: m.TPIntra, TPInter: m.TPInter,
		PPIntra: m.PPIntra, PPInter: m.PPInter,
		DPIntra: m.DPIntra, DPInter: m.DPInter,
		CPIntra: m.CPIntra, CPInter: m.CPInter,
		VPP:              m.VPP,
		SequenceParallel: m.SequenceParallel,
		ExpertParallel:   m.ExpertParallel,
	}
}

// Training configures the recipe.
type Training struct {
	GlobalBatch  int     `json:"global_batch"`
	Microbatches int     `json:"microbatches,omitempty"`
	NumBatches   int     `json:"num_batches,omitempty"`
	BubbleRatio  float64 `json:"bubble_ratio,omitempty"`
	ZeROOverhead float64 `json:"zero_overhead,omitempty"`
	// ZeROStage derives the overhead from the ZeRO stage (0–3) via
	// model.ZeROOverheadForStage; mutually exclusive with ZeROOverhead.
	ZeROStage   int     `json:"zero_stage,omitempty"`
	CommOverlap float64 `json:"comm_overlap,omitempty"`
	// Roofline prices every sublayer as max(compute, bytes/mem_bw); it needs
	// the accelerator's mem_bw_bps and falls back to pure-FLOP pricing when
	// that is zero.
	Roofline bool `json:"roofline,omitempty"`
	// Overlap is the fraction of the gradient all-reduce eligible to hide
	// under backward compute (bucketed overlap, 0..1).
	Overlap float64 `json:"overlap,omitempty"`
	// BackwardComputeFactor and BackwardCommFactor scale forward compute
	// and communication to their backward-pass counterparts (0 keeps the
	// model defaults of 2 and 1).
	BackwardComputeFactor float64 `json:"backward_compute_factor,omitempty"`
	BackwardCommFactor    float64 `json:"backward_comm_factor,omitempty"`
	ParamBits             int     `json:"param_bits,omitempty"`
	ActBits               int     `json:"act_bits,omitempty"`
	NonlinBits            int     `json:"nonlin_bits,omitempty"`
	GradBits              int     `json:"grad_bits,omitempty"`
	// Topology selects the collective algorithms; nil keeps the defaults
	// (ring all-reduce, pairwise all-to-all).
	Topology     *Topology `json:"topology,omitempty"`
	FixedEff     float64   `json:"fixed_efficiency,omitempty"`
	EffAsymptote float64   `json:"eff_asymptote,omitempty"`
	EffHalfPoint float64   `json:"eff_half_point,omitempty"`
	EffFloor     float64   `json:"eff_floor,omitempty"`
	IncludeEmbed bool      `json:"include_embedding,omitempty"`
}

// Topology names the collective algorithm per collective class. Accepted
// names are those of topology.ParseKind ("ring", "tree", "pairwise",
// "point-to-point", "2d-torus"); an empty field keeps that class's default.
type Topology struct {
	AllReduce string `json:"all_reduce,omitempty"`
	AllToAll  string `json:"all_to_all,omitempty"`
}

// Reliability configures the failure-aware goodput model (internal/faults):
// per-component MTBFs that compose into a whole-job failure rate, and the
// checkpoint/restart costs that turn it into expected-time inflation. An
// absent section keeps the legacy healthy-cluster behavior.
type Reliability struct {
	// AccelMTBFSeconds, NodeMTBFSeconds and LinkMTBFSeconds are the mean
	// time between failures of one accelerator, one node and one fabric
	// link. Zero disables that component class.
	AccelMTBFSeconds Quantity `json:"accel_mtbf_s,omitempty"`
	NodeMTBFSeconds  Quantity `json:"node_mtbf_s,omitempty"`
	LinkMTBFSeconds  Quantity `json:"link_mtbf_s,omitempty"`
	// CheckpointBW is the per-worker checkpoint write bandwidth in bytes/s.
	// Required whenever any MTBF is set.
	CheckpointBW Quantity `json:"checkpoint_bw_bytes_per_s,omitempty"`
	// RestartSeconds is the fixed recovery cost per failure.
	RestartSeconds Quantity `json:"restart_s,omitempty"`
	// CheckpointIntervalSeconds forces the checkpoint cadence; zero derives
	// the Young/Daly optimum per design point.
	CheckpointIntervalSeconds Quantity `json:"checkpoint_interval_s,omitempty"`
	// Optimizer names the optimizer whose state the checkpoint carries
	// ("sgd", "sgd+momentum", "adam"). Empty defaults to adam — the
	// standard mixed-precision recipe at 12 bytes per parameter.
	Optimizer string `json:"optimizer,omitempty"`
}

// Inference configures the serving workload, selected by
// workload: "inference". The training section still supplies the precision
// operands, topology, roofline switch and efficiency curve; its
// global_batch is ignored (the serving batch lives here).
type Inference struct {
	// PromptLen is the prompt length in tokens (the prefill pass).
	PromptLen int `json:"prompt_len"`
	// GenTokens is the number of tokens generated per request.
	GenTokens int `json:"gen_tokens"`
	// GlobalBatch is the concurrent-sequence count across the fleet; it
	// must divide the data-parallel degree.
	GlobalBatch int `json:"global_batch"`
	// Occupancy, when set, wraps the efficiency curve in continuous
	// batching: the kernel batch the accelerator sees is only this fraction
	// of the admitted sequences (scheduler gaps, ragged generation).
	Occupancy float64 `json:"occupancy,omitempty"`
}

// Resolve produces the domain workload.
func (i *Inference) Resolve() model.Inference {
	return model.Inference{PromptLen: i.PromptLen, GenTokens: i.GenTokens}
}

// Document is a complete design point.
type Document struct {
	// Workload selects what the point evaluates: "" or "training" runs the
	// paper's training model; "inference" prices the serving workload in the
	// inference section instead.
	Workload    string       `json:"workload,omitempty"`
	Model       Model        `json:"model"`
	System      System       `json:"system"`
	Mapping     Mapping      `json:"mapping"`
	Training    Training     `json:"training"`
	Inference   *Inference   `json:"inference,omitempty"`
	Reliability *Reliability `json:"reliability,omitempty"`
}

// IsInference reports whether the document selects the serving workload.
func (d *Document) IsInference() bool { return d.Workload == "inference" }

// Load reads and parses a document from path.
func Load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse parses a document from JSON bytes, rejecting unknown fields so
// typos surface as errors rather than silently-ignored knobs.
func Parse(data []byte) (*Document, error) {
	var doc Document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	switch doc.Workload {
	case "", "training":
		if doc.Training.GlobalBatch <= 0 {
			return nil, errors.New("config: training.global_batch must be positive")
		}
	case "inference":
		if doc.Inference == nil {
			return nil, errors.New("config: workload \"inference\" requires an inference section")
		}
		if doc.Inference.GlobalBatch <= 0 {
			return nil, errors.New("config: inference.global_batch must be positive")
		}
	default:
		return nil, fmt.Errorf("config: unknown workload %q (want \"training\" or \"inference\")", doc.Workload)
	}
	return &doc, nil
}

// Save writes the document as indented JSON.
func Save(path string, doc *Document) error {
	if doc == nil {
		return errors.New("config: nil document")
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
