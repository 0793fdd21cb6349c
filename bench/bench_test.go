package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"amped/internal/config"
	"amped/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current generators and library")

// smokeSizes keeps test pools small enough that every workload prepares in
// well under a second.
var smokeSizes = sizes{
	interactive: 512,
	spaces:      2,
	local:       3_000,
	shardedMain: 6_000,
	shardedSide: 1_500,
	jobs:        5_000,
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed int64) [][]byte {
		reqs, _, err := genInteractive(seed, 256)
		if err != nil {
			t.Fatal(err)
		}
		spaces, err := genSpaces(newDraws(seed, saltLocal), 4, smokeSizes.local, true)
		if err != nil {
			t.Fatal(err)
		}
		out := bodies(reqs)
		for _, s := range spaces {
			out = append(out, s.sweepBody(), s.planBody())
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 body %d differs between runs:\n%s\n%s", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated identical bodies")
	}
}

func TestSpacesLandInTheirBand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		salt   int64
		target int64
	}{
		{"explore-local", saltLocal, fullSizes.local},
		{"sweep-sharded main", saltSharded, fullSizes.shardedMain},
		{"sweep-sharded side", saltSharded, fullSizes.shardedSide},
		{"jobs", saltJobs, fullSizes.jobs},
	} {
		spaces, err := genSpaces(newDraws(3, tc.salt), 4, tc.target, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, s := range spaces {
			sc, err := s.scenario()
			if err != nil {
				t.Fatal(err)
			}
			if dev := math.Abs(float64(s.cells-tc.target)) / float64(tc.target); dev > spaceTolerance {
				t.Errorf("%s space %d: %d cells, %.1f%% from %d", tc.name, i, s.cells, 100*dev, tc.target)
			}
			if sc.Model == nil {
				t.Fatalf("%s space %d has no model", tc.name, i)
			}
		}
	}
}

func TestInteractiveKeySpace(t *testing.T) {
	scens, err := interactiveScenarios(newRand(1, saltInteractive))
	if err != nil {
		t.Fatal(err)
	}
	train, infer := map[string]bool{}, map[string]bool{}
	r := newRand(1, 99)
	for _, sc := range scens {
		for _, evaluate := range []bool{true, false} {
			req, err := interactiveRequest(r, sc, evaluate)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := config.Parse(req.body)
			if err != nil {
				t.Fatal(err)
			}
			if evaluate {
				comp, err := doc.Components()
				if err != nil {
					t.Fatal(err)
				}
				train[comp.Key()] = true
				continue
			}
			comp, inf, _, err := doc.InferenceScenario()
			if err != nil {
				t.Fatal(err)
			}
			infer[comp.InferenceKey(inf)] = true
		}
	}
	if len(train) < 384 || len(infer) < 384 {
		t.Fatalf("interactive key space: %d training and %d serving keys, want at least 384 each", len(train), len(infer))
	}
}

func TestPercentileSampleRule(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(tc.q); got != tc.need {
			t.Errorf("minSamples(%v) = %d, want %d", tc.q, got, tc.need)
		}
		xs := make([]float64, tc.need)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, err := percentile(xs[:tc.need-1], tc.q); err == nil {
			t.Errorf("p%v accepted %d samples", 100*tc.q, tc.need-1)
		}
		v, err := percentile(xs, tc.q)
		if err != nil {
			t.Errorf("p%v refused %d samples: %v", 100*tc.q, tc.need, err)
		}
		if want := math.Ceil(tc.q * float64(tc.need)); v != want {
			t.Errorf("p%v of 1..%d = %v, want %v", 100*tc.q, tc.need, v, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestFitLineRecoversFixedAndPerCell(t *testing.T) {
	xs := []float64{1e3, 1e4, 5e4, 3e5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 + 4e-4*x
	}
	fixed, per, err := fitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fixed-2.5) > 1e-9 || math.Abs(per-4e-4) > 1e-15 {
		t.Fatalf("exact line: fixed %v per %v, want 2.5 4e-4", fixed, per)
	}
	// 2% relative noise on every rung still leaves the fixed part within
	// 5% and the slope within 3%: the weighting lets the small rungs pin
	// the intercept.
	noise := []float64{1.02, 0.98, 1.02, 0.98}
	for i := range ys {
		ys[i] *= noise[i]
	}
	fixed, per, err = fitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fixed-2.5)/2.5 > 0.05 || math.Abs(per-4e-4)/4e-4 > 0.03 {
		t.Fatalf("noisy line: fixed %v per %v, want near 2.5 4e-4", fixed, per)
	}
	if _, _, err := fitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("one point fitted")
	}
}

func TestOracleRejectsPerturbedAnswers(t *testing.T) {
	p, err := prepInteractive(1, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	var eval, infer *request
	for i := range p.reqs {
		switch p.reqs[i].path {
		case "/v1/evaluate":
			eval = &p.reqs[i]
		case "/v1/infer":
			infer = &p.reqs[i]
		}
	}
	next := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	er := serve.EvaluateResponse{PerBatchS: eval.want.perBatchS, TotalS: eval.want.totalS}
	if err := check(eval, 200, mustJSON(er)); err != nil {
		t.Fatalf("exact evaluate answer rejected: %v", err)
	}
	er.PerBatchS = next(er.PerBatchS)
	if check(eval, 200, mustJSON(er)) == nil {
		t.Error("evaluate answer one ulp off accepted")
	}
	ir := serve.InferResponse{TokensPerSecond: next(infer.want.tokensPerS)}
	if check(infer, 200, mustJSON(ir)) == nil {
		t.Error("infer answer one ulp off accepted")
	}

	sp, err := prepSpaces(1, saltLocal, 1, smokeSizes.local, "/v1/sweep", "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	want := sp.reqs[0].want.sweep
	var pts []serve.SweepPoint
	if err := json.Unmarshal(want.points, &pts); err != nil {
		t.Fatal(err)
	}
	sr := serve.SweepResponse{TotalPoints: want.total, Points: pts}
	if err := check(&sp.reqs[0], 200, mustJSON(sr)); err != nil {
		t.Fatalf("exact sweep answer rejected: %v", err)
	}
	pts[len(pts)-1].PerBatchS = next(pts[len(pts)-1].PerBatchS)
	err = check(&sp.reqs[0], 200, mustJSON(sr))
	if err == nil || !strings.Contains(err.Error(), "point "+strconv.Itoa(len(pts)-1)) {
		t.Errorf("perturbed last sweep point: err %v, want a diff naming it", err)
	}
	best := pts[0]
	pr := serve.PlanResponse{Best: &best, RankS: next(want.rankS)}
	if check(&sp.reqs[1], 200, mustJSON(pr)) == nil {
		t.Error("plan rank_s one ulp off accepted")
	}
	if check(&sp.reqs[0], 206, mustJSON(sr)) == nil {
		t.Error("206 partial accepted")
	}
}

// TestSmoke runs every workload for 2 s on small pools: every answer must
// match its reference, and the load must come from at most nproc client
// connections.
func TestSmoke(t *testing.T) {
	var wg sync.WaitGroup
	for _, w := range workloads {
		wg.Add(1)
		go func(w *workload) {
			defer wg.Done()
			p, err := w.prepare(1, smokeSizes)
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				return
			}
			o, err := measure(w, p, 2, t.TempDir())
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				return
			}
			if o.failed != 0 || o.ops == 0 || len(o.raw.lat[kindMain]) == 0 || len(o.scaled.lat[kindSide]) == 0 {
				t.Errorf("%s: %d ops, %d failed (%v), %d main and %d side samples",
					w.name, o.ops, o.failed, o.errs, len(o.raw.lat[kindMain]), len(o.scaled.lat[kindSide]))
			}
			if o.clientConns < 1 || o.clientConns > runtime.NumCPU() {
				t.Errorf("%s: %d client connections, want 1..%d", w.name, o.clientConns, runtime.NumCPU())
			}
			if len(o.scaled.setups) != setupReps {
				t.Errorf("%s: %d setups, want %d", w.name, len(o.scaled.setups), setupReps)
			}
		}(w)
	}
	wg.Wait()
}

func TestGolden(t *testing.T) {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	if *update {
		golden = map[string]map[string]string{}
		for _, w := range workloads {
			golden[w.name] = map[string]string{}
			for _, seed := range goldenSeeds {
				p, err := w.prepare(seed, fullSizes)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				golden[w.name][strconv.FormatInt(seed, 10)] = p.digest()
			}
		}
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are amd64 answers")
	}
	for _, name := range []string{"interactive", "explore-local"} {
		w, _ := findWorkload(name)
		p, err := w.prepare(defaultSeed, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(name, defaultSeed, p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if golden[name][strconv.FormatInt(defaultSeed, 10)] == "" {
			t.Errorf("%s: no golden digest for seed %d", name, defaultSeed)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps the repository's BENCHMARK.json and
// the harness's metric tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestLadderEmitsEveryMetric climbs a two-rung ladder on small inputs.
func TestLadderEmitsEveryMetric(t *testing.T) {
	tmp := t.TempDir()
	m := newMeta("interactive", 1, 0, 1, tmp)
	var log bytes.Buffer
	res, err := runLadder(1, []int64{300, 1_200}, smokeSizes, tmp, tmp+"/spans.json", m, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("ladder failed %d of %d calls: %v", res.Failed, res.Attempted, m.Errors)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("no %s", d.Name)
		}
	}
	spans, err := os.ReadFile(tmp + "/spans.json")
	if err != nil || !bytes.Contains(spans, []byte(`"journal.job"`)) {
		t.Errorf("spans file: %v, %d bytes", err, len(spans))
	}
}
