package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/parallel"
	"amped/internal/serve"
)

// Every generator draws from its own streams, derived from a seed and a
// fixed salt, so a change to one workload's draws never shifts another's.
const (
	saltInteractive = 11
	saltLocal       = 23
	saltSharded     = 37
	saltJobs        = 41
	saltLadder      = 53
)

// catalogSeed fixes the shape of the work: which interactive scenarios are
// popular, and each sweep space's model, system size, enumeration caps and
// batch count. The run seed draws the values inside those shapes (link
// bandwidths, accelerators, batch sizes, the request sequence), so every
// seed asks new questions that cost the same to answer.
const catalogSeed = 0

func newRand(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// draws pairs a generator's two streams.
type draws struct{ shape, value *rand.Rand }

func newDraws(seed, salt int64) draws {
	return draws{shape: newRand(catalogSeed, salt), value: newRand(seed, salt)}
}

// Request kinds. Each workload has a main kind and a side kind; the README
// names them per workload.
const (
	kindMain = 0
	kindSide = 1
)

// request is one generated request body plus the reference answer the
// response must match.
type request struct {
	kind  int
	path  string
	body  []byte
	cells int64
	want  *reference
}

// The interactive key space: model preset × node count × accelerator ×
// inter-node bandwidth × roofline on/off. Every preset's head count is a
// multiple of 8, so tensor parallelism fills a node.
var (
	interactivePresets = []string{"gpt3-175b", "megatron-145b", "megatron-530b",
		"llama-7b", "llama-70b", "glam", "gpipe-24", "t5-large"}
	interactiveNodes = []int{16, 32, 64, 128}
	accelerators     = []string{"a100", "h100"}
)

// interactiveBandwidths is how many inter-node bandwidths each scenario
// takes; with it the key space holds 8·4·2·3·2 = 384 scenarios.
const interactiveBandwidths = 3

// scenario is one interactive session: everything the server's session key
// hashes, so distinct scenarios are distinct cache keys.
type scenario struct {
	preset   string
	layers   int
	seqLen   int
	nodes    int
	accel    string
	interBW  float64
	roofline bool
}

func system(accel string, nodes, perNode int, interBW float64) config.System {
	return config.System{
		Accelerator:   config.Accelerator{Preset: accel},
		Nodes:         nodes,
		AccelsPerNode: perNode,
		Intra:         config.Link{Name: "nvlink", LatencyS: 2e-6, Bandwidth: 2.4e12},
		Inter:         config.Link{Name: "ib", LatencyS: 5e-6, Bandwidth: config.Quantity(interBW)},
	}
}

// drawBandwidth returns an inter-node bandwidth in bits/s, a whole number of
// Gb/s between 100 and 800: the seed moves every answer without changing the
// shape of the work.
func drawBandwidth(r *rand.Rand) float64 { return float64(100+r.Intn(701)) * 1e9 }

// interactiveScenarios lays out the seeded key space.
func interactiveScenarios(r *rand.Rand) ([]scenario, error) {
	var out []scenario
	for _, preset := range interactivePresets {
		m, err := config.Model{Preset: preset}.Resolve()
		if err != nil {
			return nil, err
		}
		for _, nodes := range interactiveNodes {
			for _, accel := range accelerators {
				bws := map[float64]bool{}
				for len(bws) < interactiveBandwidths {
					bws[drawBandwidth(r)] = true
				}
				sorted := make([]float64, 0, len(bws))
				for bw := range bws {
					sorted = append(sorted, bw)
				}
				sort.Float64s(sorted)
				for _, bw := range sorted {
					for _, roof := range []bool{false, true} {
						out = append(out, scenario{preset, m.Layers, m.SeqLen, nodes, accel, bw, roof})
					}
				}
			}
		}
	}
	return out, nil
}

// interactiveMix is the share of /v1/evaluate among interactive requests;
// the rest are /v1/infer.
const interactiveMix = 0.8

// zipfS is the popularity skew of the interactive key space.
const zipfS = 1.1

// genInteractive draws n interactive requests: a Zipf-popular scenario, then
// an evaluate (80%) or infer (20%) document on a seeded valid mapping.
// popular returns the scenarios in popularity order for the warm-up.
func genInteractive(seed int64, n int) (reqs []request, popular []scenario, err error) {
	d := newDraws(seed, saltInteractive)
	r := d.value
	scens, err := interactiveScenarios(r)
	if err != nil {
		return nil, nil, err
	}
	perm := d.shape.Perm(len(scens))
	popular = make([]scenario, len(scens))
	for rank, i := range perm {
		popular[rank] = scens[i]
	}
	z := rand.NewZipf(r, zipfS, 1, uint64(len(scens)-1))
	reqs = make([]request, n)
	for i := range reqs {
		sc := popular[z.Uint64()]
		evaluate := r.Float64() < interactiveMix
		if reqs[i], err = interactiveRequest(r, sc, evaluate); err != nil {
			return nil, nil, err
		}
	}
	return reqs, popular, nil
}

// interactiveRequest renders one evaluate or infer document for a scenario:
// TP fills a node, a power-of-two pipeline splits the nodes, data
// parallelism takes the rest.
func interactiveRequest(r *rand.Rand, sc scenario, evaluate bool) (request, error) {
	var pps []int
	for pp := 1; pp <= 16 && pp <= sc.nodes && pp <= sc.layers; pp *= 2 {
		pps = append(pps, pp)
	}
	pp := pps[r.Intn(len(pps))]
	dp := sc.nodes / pp
	doc := config.Document{
		Model:   config.Model{Preset: sc.preset},
		System:  system(sc.accel, sc.nodes, 8, sc.interBW),
		Mapping: config.Mapping{TPIntra: 8, PPInter: pp, DPInter: dp},
	}
	req := request{kind: kindMain, path: "/v1/evaluate", cells: 1}
	if evaluate {
		doc.Training = config.Training{
			GlobalBatch:  dp * pp << r.Intn(4),
			Microbatches: pp,
			Roofline:     sc.roofline,
		}
	} else {
		req.kind, req.path = kindSide, "/v1/infer"
		doc.Workload = "inference"
		doc.Training = config.Training{Roofline: sc.roofline}
		doc.Inference = &config.Inference{
			PromptLen:   sc.seqLen / 4,
			GenTokens:   sc.seqLen / 8,
			GlobalBatch: dp << r.Intn(4),
		}
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return request{}, err
	}
	req.body = body
	return req, nil
}

// family selects the model family of a generated sweep space.
type family int

const (
	dense family = iota
	moe
)

var densePresets = []string{"gpt3-175b", "megatron-145b", "megatron-310b",
	"megatron-530b", "llama-70b", "llama-7b"}

// moeModels are mixture-of-experts models: the GLaM preset and dense presets
// given experts.
var moeModels = []config.Model{
	{Preset: "glam"},
	{Preset: "gpt3-175b", Experts: 16, MoEEvery: 2, TopK: 2},
	{Preset: "megatron-145b", Experts: 32, MoEEvery: 2, TopK: 1},
	{Preset: "llama-7b", Experts: 8, MoEEvery: 1, TopK: 2},
}

// Shapes a sweep space is drawn from. Node counts with a factor of 3 only
// enumerate without the power-of-two restriction.
var (
	spaceNodes   = []int{2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	spacePerNode = []int{4, 8}
	spaceDegrees = []int{1, 2, 4, 8}
)

// spaceTolerance is how far a generated space's cell count may sit from its
// target, as a share of the target.
const spaceTolerance = 0.05

// space is one generated sweep space: a /v1/sweep body and its cell count
// (the size of the canonical cell enumeration, invalid cells included).
type space struct {
	req   serve.SweepRequest
	cells int64
}

func (s space) document() config.Document {
	return config.Document{Model: s.req.Model, System: s.req.System, Training: s.req.Training}
}

func (s space) sweepBody() []byte { return mustJSON(s.req) }

func (s space) planBody() []byte {
	return mustJSON(serve.PlanRequest{
		Model: s.req.Model, System: s.req.System, Training: s.req.Training, Sweep: s.req.Sweep,
	})
}

// options translates the space's sweep parameters into engine options, the
// way a library caller would.
func (s space) options() explore.Options {
	p := s.req.Sweep
	return explore.Options{
		Batches:          p.Batches,
		MicrobatchTarget: p.MicrobatchTarget,
		Enumerate: parallel.EnumerateOptions{
			PowerOfTwo:       p.PowerOfTwo,
			ExpertParallel:   p.ExpertParallel,
			SequenceParallel: p.SequenceParallel,
			MaxTP:            p.MaxTP,
			MaxPP:            p.MaxPP,
			MaxCP:            p.MaxCP,
			MaxVPP:           p.MaxVPP,
		},
		KeepInvalid: p.KeepInvalid,
	}
}

// scenario resolves the space's model, system and recipe for the library.
func (s space) scenario() (explore.Scenario, error) {
	doc := s.document()
	comp, err := doc.Components()
	if err != nil {
		return explore.Scenario{}, err
	}
	return explore.Scenario{Model: &comp.Model, System: &comp.System, Training: comp.Training, Eff: comp.Eff}, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed bench types are marshaled
	}
	return b
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// genSpace draws a space of the family whose cell count lies within
// spaceTolerance of target. The shape stream picks the model, system size,
// enumeration caps, roofline switch and batch count, which set the cell
// count and the cost of a cell; the value stream picks the accelerator,
// the inter-node bandwidth and the batch sizes, which move the answer.
func genSpace(d draws, fam family, target int64) (space, error) {
	r := d.shape
	for try := 0; try < 2000; try++ {
		var m config.Model
		if fam == moe {
			m = pick(r, moeModels)
		} else {
			m = config.Model{Preset: pick(r, densePresets)}
		}
		nodes, perNode := pick(r, spaceNodes), pick(r, spacePerNode)
		s := space{req: serve.SweepRequest{
			Model:  m,
			System: system("a100", nodes, perNode, 100e9),
			Sweep: serve.SweepParams{
				Batches:          []int{1},
				MicrobatchTarget: pick(r, []int{1, 2, 4}),
				PowerOfTwo:       r.Intn(2) == 0,
				ExpertParallel:   fam == moe,
				MaxCP:            pick(r, spaceDegrees),
				MaxVPP:           pick(r, spaceDegrees),
				Top:              20,
			},
			Training: config.Training{GlobalBatch: 512, Roofline: r.Intn(2) == 0},
		}}
		sc, err := s.scenario()
		if err != nil {
			return space{}, err
		}
		mappings, err := explore.Cells(sc, s.options())
		if err != nil {
			continue // no mapping tiles this shape
		}
		nb := int64(math.Round(float64(target) / float64(mappings)))
		if nb < 2 || nb > 48 || math.Abs(float64(nb*mappings-target)) > spaceTolerance*float64(target) {
			continue
		}
		// Every batch is a multiple of the accelerator count, so every data-
		// parallel degree divides it: the seed's batch sizes change the
		// answers but not how many cells are valid.
		base := nodes * perNode
		v := d.value
		s.req.System = system(pick(v, accelerators), nodes, perNode, drawBandwidth(v))
		ks := v.Perm(64)[:nb]
		sort.Ints(ks)
		s.req.Sweep.Batches = make([]int, nb)
		for i, k := range ks {
			s.req.Sweep.Batches[i] = base * (k + 1)
		}
		s.req.Training.GlobalBatch = s.req.Sweep.Batches[0]
		s.cells = nb * mappings
		return s, nil
	}
	return space{}, fmt.Errorf("no %v space within %.0f%% of %d cells", fam, 100*spaceTolerance, target)
}

// genSpaces draws n spaces near target, alternating dense and MoE when mixed.
func genSpaces(d draws, n int, target int64, mixed bool) ([]space, error) {
	out := make([]space, n)
	for i := range out {
		fam := dense
		if mixed && i%2 == 1 {
			fam = moe
		}
		var err error
		if out[i], err = genSpace(d, fam, target); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f family) String() string {
	if f == moe {
		return "moe"
	}
	return "dense"
}
