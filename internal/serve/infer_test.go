package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"amped/internal/config"
)

// inferDoc is a GQA serving scenario: the llama-70b preset (8 KV heads)
// with roofline pricing so KV-cache reads are priced into the decode step.
const inferDoc = `{
  "workload": "inference",
  "model": {"preset": "llama-70b"},
  "system": {
    "name": "serving-pod",
    "accelerator": {"preset": "a100", "mem_bw_bps": "2T"},
    "nodes": 2,
    "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "mapping": {"tp_intra": 8, "dp_inter": 2},
  "training": {"roofline": true},
  "inference": {"prompt_len": 1024, "gen_tokens": 256, "global_batch": 16,
                "occupancy": 0.85}
}`

// TestInferEndpoint prices the GQA preset through /v1/infer and checks the
// serving headline numbers, the session-cache reuse, and the breakdown's
// internal consistency.
func TestInferEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL+"/v1/infer", inferDoc)
	if code != http.StatusOK {
		t.Fatalf("infer = %d %s", code, body)
	}
	var resp InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if resp.TTFTS <= 0 || resp.PerTokenS <= 0 || resp.TokensPerSecond <= 0 {
		t.Fatalf("degenerate serving point: %+v", resp)
	}
	if got, want := resp.TokensPerSecond, float64(resp.Batch)/resp.PerTokenS; got != want {
		t.Errorf("tokens/s %v != batch/per-token %v", got, want)
	}
	if resp.PromptLen != 1024 || resp.GenTokens != 256 || resp.Batch != 16 {
		t.Errorf("workload echo wrong: %+v", resp)
	}
	if resp.KVBytesPerSeq <= 0 {
		t.Error("GQA preset produced no KV-cache footprint")
	}
	if resp.MaxConcurrentSeqs <= 0 {
		t.Error("modeled a100 memory produced no concurrency ceiling")
	}
	if resp.Cache != "miss" {
		t.Errorf("cold start cache = %q, want miss", resp.Cache)
	}
	if len(resp.Breakdown) != 12 {
		t.Errorf("breakdown has %d components, want 12", len(resp.Breakdown))
	}
	var sum float64
	for _, v := range resp.Breakdown {
		sum += v
	}
	if tot := resp.TTFTS + resp.PerTokenS; sum < 0.99*tot || sum > 1.01*tot {
		t.Errorf("breakdown sum %v vs TTFT+per-token %v", sum, tot)
	}

	// The second identical request is a clean session-cache hit.
	code, body = post(t, ts.URL+"/v1/infer", inferDoc)
	if code != http.StatusOK {
		t.Fatalf("second infer = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Errorf("warm cache = %q, want hit", resp.Cache)
	}

	// The inference key is domain-separated from the training key: the same
	// scenario through /v1/evaluate misses rather than colliding.
	training := strings.Replace(inferDoc, `"workload": "inference",`, ``, 1)
	training = strings.Replace(training, `"training": {"roofline": true}`,
		`"training": {"roofline": true, "global_batch": 16}`, 1)
	code, body = post(t, ts.URL+"/v1/evaluate", training)
	if code != http.StatusOK {
		t.Fatalf("evaluate of the same scenario = %d %s", code, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Cache != "miss" {
		t.Errorf("training twin cache = %q, want its own miss", er.Cache)
	}
	if er.ScenarioKey == resp.ScenarioKey {
		t.Error("training and inference sessions collided on one cache key")
	}
}

// TestInferEndpointRejections pins the error taxonomy: non-inference
// documents are 400s, compilable-but-unusable points are 422s.
func TestInferEndpointRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A training document on /v1/infer is a schema error.
	if code, body := post(t, ts.URL+"/v1/infer", evalDoc); code != http.StatusBadRequest {
		t.Errorf("training doc on /v1/infer = %d %s", code, body)
	}
	// A serving batch that does not divide DP compiles but cannot evaluate.
	bad := strings.Replace(inferDoc, `"global_batch": 16`, `"global_batch": 3`, 1)
	if code, body := post(t, ts.URL+"/v1/infer", bad); code != http.StatusUnprocessableEntity {
		t.Errorf("non-dividing batch = %d %s", code, body)
	}
	// GET is not allowed.
	if code, _ := get(t, ts.URL+"/v1/infer"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/infer = %d", code)
	}
}

// TestScenarioKeyEchoesLookupKey: every endpoint echoes as scenario_key
// the key it looked its session up under, and that key is what the
// compiled session's own Key() reports.
func TestScenarioKeyEchoesLookupKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc, err := config.Parse([]byte(evalDoc))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := doc.Components()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := comp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := sess.Key()

	code, body := post(t, ts.URL+"/v1/evaluate", evalDoc)
	var ev EvaluateResponse
	if code != http.StatusOK || json.Unmarshal(body, &ev) != nil {
		t.Fatalf("evaluate = %d %s", code, body)
	}
	if ev.ScenarioKey != want {
		t.Errorf("evaluate scenario_key = %s, want the session's %s", ev.ScenarioKey, want)
	}
	if got := sweepResponse(t, ts.URL, sweepDoc).ScenarioKey; got != want {
		t.Errorf("sweep scenario_key = %s, want the session's %s", got, want)
	}
	if got := planResponse(t, ts.URL, sweepDoc).ScenarioKey; got != want {
		t.Errorf("plan scenario_key = %s, want the session's %s", got, want)
	}

	idoc, err := config.Parse([]byte(inferDoc))
	if err != nil {
		t.Fatal(err)
	}
	icomp, inf, _, err := idoc.InferenceScenario()
	if err != nil {
		t.Fatal(err)
	}
	isess, err := icomp.CompileInference(inf)
	if err != nil {
		t.Fatal(err)
	}
	code, body = post(t, ts.URL+"/v1/infer", inferDoc)
	var ir InferResponse
	if code != http.StatusOK || json.Unmarshal(body, &ir) != nil {
		t.Fatalf("infer = %d %s", code, body)
	}
	if ir.ScenarioKey != isess.Key() {
		t.Errorf("infer scenario_key = %s, want the session's %s", ir.ScenarioKey, isess.Key())
	}
}
