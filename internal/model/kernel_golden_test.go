package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/topology"
	"amped/internal/transformer"
)

var updateKernel = flag.Bool("update", false, "rewrite testdata/kernel_golden.json from the current pricing kernel")

const kernelGoldenPath = "testdata/kernel_golden.json"

// kernelRecord pins one cell: a SHA-256 over the IEEE-754 bits of every
// field the path returned, followed by its error text, if any. Floats hash
// by math.Float64bits, integers and booleans by value, structs field by
// field, so a reassociated sum that moves one ulp changes the record.
func kernelRecord(v any, err error) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(reflect.Value)
	walk = func(rv reflect.Value) {
		switch rv.Kind() {
		case reflect.Float32, reflect.Float64:
			put(math.Float64bits(rv.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(rv.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			put(rv.Uint())
		case reflect.Bool:
			if rv.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				walk(rv.Field(i))
			}
		default:
			panic(fmt.Sprintf("kernelRecord: unsupported kind %v", rv.Kind()))
		}
	}
	walk(reflect.ValueOf(v))
	rec := hex.EncodeToString(h.Sum(nil))
	if err != nil {
		rec += " " + err.Error()
	}
	return rec
}

// kernelCell is one design point of a training scenario.
type kernelCell struct {
	name  string
	mp    parallel.Mapping
	batch int
	nub   int
}

// kernelScenario is a compiled training scenario and the cells priced on it.
type kernelScenario struct {
	name  string
	m     transformer.Model
	sys   hardware.System
	tr    Training
	cells []kernelCell
}

// infCell is one design point of a serving scenario.
type infCell struct {
	name  string
	mp    parallel.Mapping
	batch int
}

type infScenario struct {
	name  string
	m     transformer.Model
	sys   hardware.System
	tr    Training
	inf   Inference
	cells []infCell
}

func withAccel(sys hardware.System, a hardware.Accelerator) hardware.System {
	sys.Accel = a
	return sys
}

// tinyFitModel is small enough that 32-accelerator mappings overrun every
// model-fit bound: 4 heads, 2 layers, 16 tokens.
func tinyFitModel() transformer.Model {
	return transformer.Model{
		Name: "fit", Layers: 2, Hidden: 64, Heads: 4, SeqLen: 16, Vocab: 100, FFNRatio: 4,
	}
}

func fitSystem() hardware.System {
	return hardware.System{
		Name: "fit", Accel: hardware.NvidiaA100(),
		Nodes: 4, AccelsPerNode: 8,
		Intra:       hardware.NVLinkA100(),
		Inter:       hardware.InfinibandHDR(),
		NICsPerNode: 8,
	}
}

func kernelScenarios() []kernelScenario {
	cs1 := hardware.CaseStudy1System()
	base := []kernelCell{
		{"tp8-pp8-dp16", parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16}, 1536, 0},
		{"tp8-pp2-dp64-nub4", parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}, 1024, 4},
	}
	unusable := cs1
	unusable.Inter.Bandwidth = 1e-300
	return []kernelScenario{
		{name: "gpt3-dense", m: transformer.GPT3175B(), sys: cs1, cells: append(base,
			kernelCell{"tp4-dp2x128", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 128}, 2048, 0})},
		{name: "glam", m: transformer.GLaM(), sys: cs1, cells: []kernelCell{
			{"no-ep", parallel.Mapping{TPIntra: 8, DPInter: 128}, 1024, 0},
			{"ep", parallel.Mapping{TPIntra: 8, DPInter: 128, ExpertParallel: true}, 1024, 0},
			{"ep-pp2", parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64, ExpertParallel: true}, 1024, 0},
		}},
		{name: "llama70b-gqa", m: transformer.Llama70B(), sys: cs1, cells: []kernelCell{
			{"cp2", parallel.Mapping{TPIntra: 8, CPInter: 2, DPInter: 64}, 1024, 0},
			{"cp4", parallel.Mapping{TPIntra: 4, CPIntra: 2, CPInter: 2, DPInter: 64}, 1024, 0},
		}},
		{name: "vpp2", m: transformer.Megatron145B(), sys: cs1, cells: []kernelCell{
			{"pp4-vpp2", parallel.Mapping{TPIntra: 8, PPInter: 4, DPInter: 32, VPP: 2}, 1024, 0},
		}},
		{name: "roofline-a100", m: transformer.GPT3175B(), sys: withAccel(cs1, hardware.NvidiaA100()),
			tr: Training{Roofline: true}, cells: []kernelCell{
				{"sp-off", parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16}, 1536, 0},
				{"sp-on", parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16, SequenceParallel: true}, 1536, 0},
			}},
		{name: "roofline-h100", m: transformer.GPT3175B(), sys: withAccel(cs1, hardware.NvidiaH100()),
			tr: Training{Roofline: true}, cells: []kernelCell{
				{"sp-off", parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16}, 1536, 0},
				{"sp-on", parallel.Mapping{TPIntra: 8, PPInter: 8, DPInter: 16, SequenceParallel: true}, 1536, 0},
			}},
		{name: "reliability", m: transformer.Megatron145B(), sys: cs1,
			tr: Training{Reliability: testRelSpec(), NumBatches: 100}, cells: base},
		{name: "grad-overlap", m: transformer.Megatron145B(), sys: cs1,
			tr: Training{GradOverlap: 0.5}, cells: base},
		{name: "zero-overlap", m: transformer.Megatron145B(), sys: cs1,
			tr: Training{ZeROOverhead: 0.5, CommOverlap: 0.7}, cells: base},
		{name: "tree", m: transformer.Megatron145B(), sys: cs1,
			tr:    Training{Topology: topology.Choice{AllReduce: topology.Tree, AllToAll: topology.PairwiseAllToAll}},
			cells: base},
		{name: "unusable-link", m: transformer.Megatron145B(), sys: unusable, cells: base[:1]},
		{name: "errors", m: tinyFitModel(), sys: fitSystem(), cells: []kernelCell{
			{"ok", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4}, 64, 0},
			{"no-tile", parallel.Mapping{TPIntra: 4, DPInter: 4}, 64, 0},
			{"batch-zero", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4}, 0, 0},
			{"batch-negative-nub", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4}, 64, -1},
			{"batch-indivisible", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4}, 60, 0},
			{"batch-nub-indivisible", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4}, 64, 3},
			{"tp-heads", parallel.Mapping{TPIntra: 8, DPInter: 4}, 64, 0},
			{"pp-layers", parallel.Mapping{TPIntra: 4, DPIntra: 2, PPInter: 4}, 64, 0},
			{"cp-seq", parallel.Mapping{CPIntra: 8, CPInter: 4}, 64, 0},
			{"vpp-no-pp", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4, VPP: 2}, 64, 0},
			{"pp-vpp-layers", parallel.Mapping{TPIntra: 4, DPIntra: 2, PPInter: 2, DPInter: 2, VPP: 2}, 64, 0},
			{"batch-before-fit", parallel.Mapping{TPIntra: 8, DPInter: 4}, 3, 0},
		}},
	}
}

func infScenarios() []infScenario {
	sys := gqaCPSystem()
	gqa, err := transformer.Variant{KVHeads: 4}.Apply(infModel())
	if err != nil {
		panic(err)
	}
	deep := infModel()
	deep.Layers = 8
	glam := transformer.GLaM()
	return []infScenario{
		{name: "dense", m: infModel(), sys: sys, inf: Inference{PromptLen: 512, GenTokens: 128}, cells: []infCell{
			{"tp2-dp2", parallel.Mapping{TPIntra: 2, DPInter: 2}, 8},
			{"pp2-tp2", parallel.Mapping{TPIntra: 2, PPInter: 2}, 8},
			{"no-tile", parallel.Mapping{TPIntra: 2}, 8},
			{"batch-zero", parallel.Mapping{TPIntra: 2, DPInter: 2}, 0},
			{"batch-indivisible", parallel.Mapping{TPIntra: 2, DPInter: 2}, 7},
		}},
		{name: "gqa-cp", m: gqa, sys: sys, tr: Training{CommOverlap: 0.3},
			inf: Inference{PromptLen: 512, GenTokens: 256}, cells: []infCell{
				{"cp4", parallel.Mapping{CPIntra: 2, CPInter: 2}, 4},
				{"cp2-dp2", parallel.Mapping{CPIntra: 2, DPInter: 2}, 4},
			}},
		{name: "roofline-vpp", m: deep, sys: sys, tr: Training{Roofline: true},
			inf: Inference{PromptLen: 256, GenTokens: 64}, cells: []infCell{
				{"pp2-vpp2", parallel.Mapping{TPIntra: 2, PPInter: 2, VPP: 2}, 8},
				{"pp2-vpp2-sp", parallel.Mapping{TPIntra: 2, PPInter: 2, VPP: 2, SequenceParallel: true}, 8},
			}},
		{name: "moe-ep", m: glam, sys: sys, inf: Inference{PromptLen: 256, GenTokens: 32}, cells: []infCell{
			{"ep", parallel.Mapping{TPIntra: 2, DPInter: 2, ExpertParallel: true}, 8},
			{"no-ep", parallel.Mapping{TPIntra: 2, DPInter: 2}, 8},
		}},
		{name: "errors", m: tinyFitModel(), sys: fitSystem(), inf: Inference{PromptLen: 4, GenTokens: 4}, cells: []infCell{
			{"tp-heads", parallel.Mapping{TPIntra: 8, DPInter: 4}, 8},
			{"pp-layers", parallel.Mapping{TPIntra: 4, DPIntra: 2, PPInter: 4}, 8},
			{"cp-prompt", parallel.Mapping{CPIntra: 8, DPInter: 4}, 8},
			{"vpp-no-pp", parallel.Mapping{TPIntra: 4, DPIntra: 2, DPInter: 4, VPP: 2}, 8},
			{"pp-vpp-layers", parallel.Mapping{TPIntra: 4, DPIntra: 2, PPInter: 2, DPInter: 2, VPP: 2}, 8},
		}},
	}
}

// kernelResults prices every golden cell through every public entry point
// of the pricing kernel: EvaluatePoint, LowerBound and EvaluateBatch for
// training, EvaluateInferencePoint for serving.
func kernelResults(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, sc := range kernelScenarios() {
		m, sys := sc.m, sc.sys
		sess, err := Compile(&m, &sys, sc.tr, nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		var in BatchInput
		for _, c := range sc.cells {
			key := sc.name + "/" + c.name
			var bd Breakdown
			err := sess.EvaluatePoint(c.mp, c.batch, c.nub, &bd)
			got[key+"/point"] = kernelRecord(bd, err)
			lb, err := sess.LowerBound(c.mp, c.batch, c.nub)
			got[key+"/lower-bound"] = kernelRecord(lb, err)
			in.Mappings = append(in.Mappings, c.mp)
			in.Batches = append(in.Batches, c.batch)
			in.Microbatches = append(in.Microbatches, c.nub)
		}
		var out BatchOutput
		if err := sess.EvaluateBatch(in, &out); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for i, c := range sc.cells {
			cell := struct {
				Code                   PointCode
				Bd                     Breakdown
				PerBatch, ExpectedTime float64
			}{out.Codes[i], out.Breakdowns[i], out.PerBatchSeconds[i], out.ExpectedTotalSeconds[i]}
			got[sc.name+"/"+c.name+"/batch"] = kernelRecord(cell, out.Errs[i])
		}
	}
	for _, sc := range infScenarios() {
		m, sys := sc.m, sc.sys
		sess, err := CompileInference(&m, &sys, sc.tr, nil, sc.inf)
		if err != nil {
			t.Fatalf("inference %s: %v", sc.name, err)
		}
		for _, c := range sc.cells {
			key := "inference/" + sc.name + "/" + c.name
			var bd InferenceBreakdown
			err := sess.EvaluateInferencePoint(c.mp, c.batch, &bd)
			got[key+"/point"] = kernelRecord(bd, err)
		}
	}
	return got
}

// TestKernelGolden pins every pricing entry point bit for bit: each cell's
// digest covers the IEEE-754 bits of every returned field, so a refactor
// that reassociates one sum — which the 1e-9 audit and the 1e-12 reference
// comparison both tolerate — fails here. Regenerate with
// `go test ./internal/model -run TestKernelGolden -update` only for an
// intended change of the model's numbers.
func TestKernelGolden(t *testing.T) {
	got := kernelResults(t)
	if *updateKernel {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are amd64 answers")
	}
	raw, err := os.ReadFile(kernelGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s:\n got %q\nwant %q", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: cell missing from %s", k, kernelGoldenPath)
		}
	}
}
