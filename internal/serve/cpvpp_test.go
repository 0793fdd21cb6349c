package serve

import (
	"net/http"
	"strings"
	"testing"
)

// cpvppSweepDoc extends the standard fixture with the new dimensions: CP and
// VPP enumeration, sequence parallelism, roofline pricing (the a100 preset
// carries mem_bw) and gradient-comm overlap.
const cpvppSweepDoc = `{
  "model": {"name": "tiny", "layers": 8, "hidden": 1024, "heads": 16, "seq_len": 1024, "vocab": 50000},
  "system": {
    "name": "2x4 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 2,
    "accels_per_node": 4,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "training": {"global_batch": 64, "roofline": true, "overlap": 0.8},
  "sweep": {"batches": [64], "microbatch_target": 16, "power_of_two": true,
            "max_cp": 2, "max_vpp": 2, "sequence_parallel": true, "top": 500}
}`

// TestSweepNewDimensions checks the wire plumbing of max_cp / max_vpp /
// sequence_parallel: the enumerated space must actually contain engaged CP
// and VPP mappings, every mapping carries the SP flag, and the planner
// reproduces the exhaustive front over the grown space.
func TestSweepNewDimensions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := sweepResponse(t, ts.URL, cpvppSweepDoc)
	if len(resp.Points) == 0 {
		t.Fatal("empty sweep")
	}
	var sawCP, sawVPP bool
	for _, p := range resp.Points {
		if p.Err != "" {
			continue
		}
		if !strings.Contains(p.Mapping, "+SP") {
			t.Fatalf("mapping %q missing the sequence-parallel flag", p.Mapping)
		}
		if strings.Contains(p.Mapping, "CP") {
			sawCP = true
		}
		if strings.Contains(p.Mapping, "VPP") {
			sawVPP = true
		}
	}
	if !sawCP || !sawVPP {
		t.Fatalf("grown dimensions absent from the space: sawCP=%v sawVPP=%v", sawCP, sawVPP)
	}

	plan := planResponse(t, ts.URL, cpvppSweepDoc)
	if plan.Best == nil {
		t.Fatal("plan found no feasible point")
	}
	if *plan.Best != resp.Points[0] {
		t.Errorf("plan best diverges from the sweep front over the grown space:\n got %+v\nwant %+v",
			*plan.Best, resp.Points[0])
	}
}

// TestSweepRefusesMaxVPPAboveLayers checks that every sweep-shaped endpoint
// answers 400 to a max_vpp above the model's layer count before
// enumerating (each VPP value adds one variant of every pipelined mapping,
// so 10⁸ would materialize ~10⁸ mappings), while a cap equal to the layer
// count still sweeps.
func TestSweepRefusesMaxVPPAboveLayers(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	huge := strings.Replace(cpvppSweepDoc, `"max_vpp": 2`, `"max_vpp": 100000000`, 1)
	for _, path := range []string{"/v1/sweep", "/v1/sweep/shard", "/v1/plan", "/v1/sweep/jobs", "/v1/plan/jobs"} {
		code, body := post(t, ts.URL+path, huge)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the model's 8 layers") {
			t.Errorf("%s with max_vpp 1e8 = %d %s, want 400 naming the layer count", path, code, body)
		}
	}
	atLayers := strings.Replace(cpvppSweepDoc, `"max_vpp": 2`, `"max_vpp": 8`, 1)
	if code, body := post(t, ts.URL+"/v1/sweep", atLayers); code != http.StatusOK {
		t.Errorf("/v1/sweep with max_vpp = layers = %d %s, want 200", code, body)
	}
}
