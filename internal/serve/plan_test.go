package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func planResponse(t *testing.T, url, body string) PlanResponse {
	t.Helper()
	code, b := post(t, url+"/v1/plan", body)
	if code != http.StatusOK {
		t.Fatalf("plan = %d %s", code, b)
	}
	var resp PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlanMatchesSweepFront is the serving-layer equivalence check: the
// planner's Best must be byte-identical to the front of an exhaustive
// /v1/sweep ranking of the same request, its statistics must account for
// the space, and the plan reuses the sweep's cached session.
func TestPlanMatchesSweepFront(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := sweepResponse(t, ts.URL, sweepDoc)
	if len(want.Points) == 0 {
		t.Fatal("empty sweep")
	}

	resp := planResponse(t, ts.URL, sweepDoc)
	if resp.Best == nil {
		t.Fatal("plan found no feasible point")
	}
	if *resp.Best != want.Points[0] {
		t.Errorf("plan best diverges from the sweep front:\n got %+v\nwant %+v",
			*resp.Best, want.Points[0])
	}
	if resp.RankS <= 0 {
		t.Errorf("rank_s = %g, want positive", resp.RankS)
	}
	st := resp.Stats
	if st.CellsTotal == 0 || st.CellsExpanded == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
	if st.CellsExpanded > st.CellsTotal {
		t.Errorf("expanded %d of %d cells", st.CellsExpanded, st.CellsTotal)
	}
	if got := st.CellsPrunedMemory + st.CellsInfeasible + st.CellsBounded + st.CellsExpanded; got > st.CellsTotal {
		t.Errorf("stats overcount the space: %+v", st)
	}
	if frac := float64(st.CellsExpanded) / float64(st.CellsTotal); st.ExpandedFraction != frac {
		t.Errorf("expanded_fraction = %g, want %g", st.ExpandedFraction, frac)
	}
	// The sweep above compiled the session; the plan must hit that cache.
	if resp.Cache != "hit" {
		t.Errorf("plan cache = %q, want hit (shared with /v1/sweep)", resp.Cache)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !bytes.Contains(metrics, []byte(`amped_requests_total{handler="plan",code="200"}`)) {
		t.Errorf("plan requests not counted:\n%s", metrics)
	}
}

// TestPlanHeteroPools drives the heterogeneous section: a mixed A100+H100
// fleet must come back with a concrete stage assignment and search stats.
func TestPlanHeteroPools(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := strings.TrimSuffix(strings.TrimSpace(sweepDoc), "}") +
		`, "pools": [{"preset": "a100", "count": 4}, {"preset": "h100", "count": 4}], "schedule": "1f1b"}`
	resp := planResponse(t, ts.URL, doc)
	if resp.Hetero == nil {
		t.Fatal("pools present but no hetero section")
	}
	best := resp.Hetero.Best
	if best == nil {
		t.Fatal("hetero search found no deployment")
	}
	if best.TotalS <= 0 || best.ID == "" {
		t.Errorf("implausible hetero best: %+v", best)
	}
	if len(best.Stages) != 2 {
		t.Fatalf("stage assignment has %d pools, want 2: %+v", len(best.Stages), best)
	}
	if sum := best.Stages[0] + best.Stages[1]; sum != best.PP {
		t.Errorf("stage counts sum to %d, pipeline depth is %d", sum, best.PP)
	}
	hst := resp.Hetero.Stats
	if hst.CellsTotal == 0 || hst.CellsExpanded == 0 || hst.CellsExpanded > hst.CellsTotal {
		t.Errorf("implausible hetero stats: %+v", hst)
	}
	// The homogeneous plan still rides alongside.
	if resp.Best == nil {
		t.Error("homogeneous best missing from a pooled request")
	}
}

// TestPlanTimeout pins the deadline path: a plan whose request timeout has
// already expired answers 504, never a partial plan.
func TestPlanTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	code, body := post(t, ts.URL+"/v1/plan", sweepDoc)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out plan = %d %s, want 504", code, body)
	}
	if !bytes.Contains(body, []byte("timeout")) {
		t.Errorf("timeout not explained: %s", body)
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	noBatches := strings.Replace(sweepDoc, `"batches": [64, 128], `, "", 1)
	cases := []struct{ name, body string }{
		{"malformed json", `{`},
		{"unknown field", `{"modle": {}}`},
		{"missing batches", noBatches},
		{"unknown pool preset", strings.TrimSuffix(strings.TrimSpace(sweepDoc), "}") +
			`, "pools": [{"preset": "tpu9000", "count": 4}]}`},
		{"unknown schedule", strings.TrimSuffix(strings.TrimSpace(sweepDoc), "}") +
			`, "pools": [{"preset": "a100", "count": 4}], "schedule": "interleaved"}`},
	}
	for _, c := range cases {
		code, body := post(t, ts.URL+"/v1/plan", c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, code, body)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/plan"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET plan = %d, want 405", code)
	}
}
