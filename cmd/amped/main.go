// Command amped evaluates one AMPeD design point and prints the training
// time breakdown.
//
// Either point at a JSON design-point file:
//
//	amped -config point.json
//
// or assemble a point from presets and flags:
//
//	amped -model megatron-145b -accel a100 -nodes 128 -accels 8 \
//	      -tp-intra 8 -dp-inter 128 -batch 8192 -num-batches 17880
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amped/internal/config"
	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/power"
	"amped/internal/precision"
	"amped/internal/report"
	"amped/internal/transformer"
	"amped/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amped:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amped", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "JSON design-point file (overrides the other flags)")
		modelName  = fs.String("model", "megatron-145b", "model preset ("+joinNames(transformer.PresetNames())+")")
		accelName  = fs.String("accel", "a100", "accelerator preset ("+joinNames(hardware.AcceleratorPresetNames())+")")
		nodes      = fs.Int("nodes", 128, "node count")
		accels     = fs.Int("accels", 8, "accelerators per node")
		nics       = fs.Int("nics", 0, "NICs per node (default: one per accelerator)")
		interGbps  = fs.Float64("inter-gbps", 200, "inter-node NIC bandwidth (Gbit/s)")
		intraGbps  = fs.Float64("intra-gbps", 2400, "intra-node link bandwidth (Gbit/s)")
		tpIntra    = fs.Int("tp-intra", 1, "tensor parallelism within a node")
		tpInter    = fs.Int("tp-inter", 1, "tensor parallelism across nodes")
		ppIntra    = fs.Int("pp-intra", 1, "pipeline parallelism within a node")
		ppInter    = fs.Int("pp-inter", 1, "pipeline parallelism across nodes")
		dpIntra    = fs.Int("dp-intra", 1, "data parallelism within a node")
		dpInter    = fs.Int("dp-inter", 1, "data parallelism across nodes")
		expert     = fs.Bool("expert-parallel", false, "enable MoE expert parallelism")
		batch      = fs.Int("batch", 8192, "global batch size (sequences)")
		micro      = fs.Int("microbatches", 0, "microbatches per batch (0: tune automatically)")
		numBatches = fs.Int("num-batches", 1, "batches in the training run")
		fixedEff   = fs.Float64("eff", 0, "fixed microbatch efficiency (0: saturating default)")
		bubbleR    = fs.Float64("bubble-ratio", 1, "pipeline bubble ratio R")
		zero       = fs.Float64("zero-overhead", 0, "ZeRO-DP communication overhead factor")
		memory     = fs.Bool("memory", false, "also print the per-accelerator memory footprint")
		energy     = fs.Bool("energy", false, "also print the training energy estimate")
		profile    = fs.Bool("profile", false, "also print the per-layer time profile")
		jsonOut    = fs.Bool("json", false, "emit the result as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var est *model.Estimator
	if *configPath != "" {
		doc, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		est, err = doc.Estimator()
		if err != nil {
			return err
		}
	} else {
		m, err := transformer.Preset(*modelName)
		if err != nil {
			return err
		}
		accel, err := hardware.AcceleratorPreset(*accelName)
		if err != nil {
			return err
		}
		nicCount := *nics
		if nicCount == 0 {
			nicCount = *accels
		}
		sys := hardware.System{
			Name:          fmt.Sprintf("%dx%d %s", *nodes, *accels, accel.Name),
			Accel:         accel,
			Nodes:         *nodes,
			AccelsPerNode: *accels,
			Intra:         hardware.Link{Name: "intra", Latency: 2e-6, Bandwidth: gbps(*intraGbps)},
			Inter:         hardware.Link{Name: "inter", Latency: 5e-6, Bandwidth: gbps(*interGbps)},
			NICsPerNode:   nicCount,
		}
		var eff efficiency.Model
		if *fixedEff > 0 {
			eff = efficiency.Fixed(*fixedEff)
		}
		est = &model.Estimator{
			Model:  &m,
			System: &sys,
			Mapping: parallel.Mapping{
				TPIntra: *tpIntra, TPInter: *tpInter,
				PPIntra: *ppIntra, PPInter: *ppInter,
				DPIntra: *dpIntra, DPInter: *dpInter,
				ExpertParallel: *expert,
			},
			Training: model.Training{
				Batch:        parallel.Batch{Global: *batch, Microbatches: *micro},
				NumBatches:   *numBatches,
				BubbleRatio:  *bubbleR,
				ZeROOverhead: *zero,
			},
			Eff: eff,
		}
	}

	var bd *model.Breakdown
	var err error
	if est.Training.Batch.Microbatches == 0 && est.Mapping.PP() > 1 {
		var nub int
		nub, bd, err = explore.OptimalMicrobatches(*est)
		if err == nil {
			fmt.Fprintf(out, "tuned microbatches: %d\n", nub)
			est.Training.Batch.Microbatches = nub
		}
	} else {
		bd, err = est.Evaluate()
	}
	if err != nil {
		return err
	}

	if *jsonOut {
		return writeJSON(out, est, bd)
	}

	fmt.Fprintf(out, "model:    %v\n", est.Model)
	fmt.Fprintf(out, "system:   %s (%d accelerators)\n", est.System.Name, est.System.TotalAccelerators())
	fmt.Fprintf(out, "mapping:  %v\n", est.Mapping)
	fmt.Fprintf(out, "batch:    %d global, %d microbatches (ub=%.3g, eff=%.1f%%)\n\n",
		est.Training.Batch.Global, est.Training.Batch.MicrobatchesOrDefault(est.Mapping),
		bd.Microbatch, bd.Efficiency*100)

	tab := report.NewTable("per-batch time breakdown", "component", "time", "share")
	for _, c := range bd.Components() {
		tab.AddRow(c.Name, c.Time.String(),
			fmt.Sprintf("%.1f%%", 100*float64(c.Time)/float64(bd.PerBatch())))
	}
	fmt.Fprint(out, tab)
	fmt.Fprintf(out, "\nper batch:   %v\n", bd.PerBatch())
	fmt.Fprintf(out, "total:       %v (%d batches)\n", bd.TotalTime(), bd.NumBatches)
	fmt.Fprintf(out, "throughput:  %.1f TFLOP/s/GPU\n", bd.TFLOPSPerGPU())

	if *memory {
		cfg := memkit.Config{Operands: precision.Mixed16(), Optimizer: memkit.Adam}
		fp, err := memkit.Estimate(est.Model, est.Mapping, est.Training.Batch, cfg)
		if err != nil {
			return err
		}
		// The last pipeline stage also holds the output gather; a mapping
		// fits only when that worst stage does.
		worst, err := memkit.WorstStage(est.Model, est.Mapping, est.Training.Batch, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "memory:      %v", fp)
		if memkit.Fits(worst, est.System.Accel, 0.1) {
			fmt.Fprintf(out, " (fits %v)\n", est.System.Accel.Memory)
		} else {
			fmt.Fprintf(out, " (DOES NOT FIT %v)\n", est.System.Accel.Memory)
		}
		if est.Mapping.PP() > 1 {
			fmt.Fprintf(out, "             per stage: %v; last stage gathers to %v\n",
				fp.Total(), worst.Total())
		}
	}
	if *energy {
		en, err := power.FromBreakdown(bd, est.System)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "energy:      %v\n", en)
	}
	if *profile {
		profiles, err := est.ProfileLayers()
		if err != nil {
			return err
		}
		ptab := report.NewTable("\nper-layer profile", "layer", "kind", "compute", "comm", "grad AR")
		for _, p := range profiles {
			kind := "dense"
			if p.MoE {
				kind = "moe"
			}
			ptab.AddRow(fmt.Sprintf("%d", p.Layer), kind,
				p.Compute.String(), p.Comm.String(), p.GradAR.String())
		}
		fmt.Fprint(out, ptab)
	}
	return nil
}

// jsonResult is the machine-readable evaluation output.
type jsonResult struct {
	Model        string             `json:"model"`
	System       string             `json:"system"`
	Accelerators int                `json:"accelerators"`
	Mapping      string             `json:"mapping"`
	GlobalBatch  int                `json:"global_batch"`
	Microbatches int                `json:"microbatches"`
	Efficiency   float64            `json:"efficiency"`
	Components   map[string]float64 `json:"components_s"`
	PerBatchS    float64            `json:"per_batch_s"`
	TotalS       float64            `json:"total_s"`
	TotalDays    float64            `json:"total_days"`
	TFLOPsPerGPU float64            `json:"tflops_per_gpu"`
}

// writeJSON renders the evaluation as indented JSON.
func writeJSON(out io.Writer, est *model.Estimator, bd *model.Breakdown) error {
	res := jsonResult{
		Model:        est.Model.Name,
		System:       est.System.Name,
		Accelerators: est.System.TotalAccelerators(),
		Mapping:      est.Mapping.String(),
		GlobalBatch:  est.Training.Batch.Global,
		Microbatches: est.Training.Batch.MicrobatchesOrDefault(est.Mapping),
		Efficiency:   bd.Efficiency,
		Components:   map[string]float64{},
		PerBatchS:    float64(bd.PerBatch()),
		TotalS:       float64(bd.TotalTime()),
		TotalDays:    bd.TotalTime().Days(),
		TFLOPsPerGPU: bd.TFLOPSPerGPU(),
	}
	for _, c := range bd.Components() {
		res.Components[c.Name] = float64(c.Time)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// gbps converts gigabits per second to the model's bit/s unit.
func gbps(v float64) units.BitsPerSecond { return units.BitsPerSecond(v * 1e9) }

// joinNames renders a preset list for flag help text.
func joinNames(names []string) string { return strings.Join(names, ", ") }
