package plan

import (
	"strings"
	"testing"

	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// request returns a solvable planning problem: Megatron 145B, DGX-A100
// nodes, ~300B tokens.
func request(targetDays float64) CapacityRequest {
	m := transformer.Megatron145B()
	template := hardware.CaseStudy1System() // per-node shape; Nodes is overridden
	return CapacityRequest{
		Model:    &m,
		Template: template,
		Training: model.Training{
			Batch:      parallel.Batch{Global: 8192},
			NumBatches: 17880,
		},
		TargetDays: targetDays,
		MaxNodes:   512,
	}
}

func TestMinimumNodesFindsPlan(t *testing.T) {
	plan, err := MinimumNodes(request(40))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Days > 40 {
		t.Errorf("plan misses deadline: %v days", plan.Days)
	}
	if plan.Accelerators != plan.Nodes*8 {
		t.Errorf("accelerators = %d for %d nodes", plan.Accelerators, plan.Nodes)
	}
	if plan.Breakdown == nil {
		t.Fatal("no breakdown")
	}
	// Every rejected size was genuinely slower than the deadline.
	for _, c := range plan.Rejected {
		if c.Days >= 0 && c.Days <= 40 {
			t.Errorf("rejected size %d nodes met the deadline at %v days", c.Nodes, c.Days)
		}
		if c.Nodes >= plan.Nodes {
			t.Errorf("rejected size %d not below the plan's %d", c.Nodes, plan.Nodes)
		}
	}
}

func TestTighterDeadlineNeedsMoreNodes(t *testing.T) {
	loose, err := MinimumNodes(request(80))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := MinimumNodes(request(25))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Nodes <= loose.Nodes {
		t.Errorf("25-day plan (%d nodes) not above 80-day plan (%d nodes)",
			tight.Nodes, loose.Nodes)
	}
}

func TestImpossibleDeadline(t *testing.T) {
	req := request(0.01) // 15 minutes for 300B tokens
	req.MaxNodes = 64
	_, err := MinimumNodes(req)
	if err == nil {
		t.Fatal("impossible deadline produced a plan")
	}
	if !strings.Contains(err.Error(), "no machine") {
		t.Errorf("error = %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	var nilReq *CapacityRequest
	if err := nilReq.Validate(); err == nil {
		t.Error("nil request accepted")
	}
	r := request(10)
	r.TargetDays = 0
	if err := r.Validate(); err == nil {
		t.Error("zero deadline accepted")
	}
	r = request(10)
	r.Template.AccelsPerNode = 0
	if err := r.Validate(); err == nil {
		t.Error("empty template accepted")
	}
	r = request(10)
	r.Training.Batch.Global = 0
	if err := r.Validate(); err == nil {
		t.Error("missing batch accepted")
	}
	r = request(10)
	broken := *r.Model
	broken.Heads = 7
	r.Model = &broken
	if err := r.Validate(); err == nil {
		t.Error("broken model accepted")
	}
}

// regressingRequest builds a problem whose scaling curve goes the wrong
// way: one node is all fast intra-node links, while every larger machine
// pays for an atrocious inter-node fabric, so doubling past the first fit
// regresses the best achievable time.
func regressingRequest(t *testing.T) CapacityRequest {
	t.Helper()
	m := transformer.Model{
		Name:     "regress",
		Layers:   8,
		Heads:    8,
		Hidden:   1024,
		SeqLen:   512,
		Vocab:    32000,
		FFNRatio: 4,
	}
	template := hardware.CaseStudy1System()
	template.Inter = hardware.Link{
		Name:      "awful-fabric",
		Latency:   5, // seconds per hop: any inter-node collective is hopeless
		Bandwidth: 1e6,
	}
	return CapacityRequest{
		Model:    &m,
		Template: template,
		Training: model.Training{
			Batch:      parallel.Batch{Global: 64},
			NumBatches: 100,
		},
		MaxNodes:   8,
		TargetDays: 1, // placeholder; tests pin it from the 1-node optimum
	}
}

func TestNonMonotonicFeasibilityDetected(t *testing.T) {
	req := regressingRequest(t)
	one, err := req.bestAt(1)
	if err != nil || one == nil {
		t.Fatalf("no 1-node baseline: best=%v err=%v", one, err)
	}
	two, err := req.bestAt(2)
	if err != nil || two == nil {
		t.Fatalf("no 2-node probe point: best=%v err=%v", two, err)
	}
	d1 := one.Breakdown.ExpectedTotalTime().Days()
	d2 := two.Breakdown.ExpectedTotalTime().Days()
	if d2 <= d1 {
		t.Fatalf("scenario did not regress: 1 node %v days, 2 nodes %v days", d1, d2)
	}
	// Deadline between the two: 1 node fits, the doubled probe misses.
	req.TargetDays = (d1 + d2) / 2
	_, err = MinimumNodes(req)
	if err == nil {
		t.Fatal("regressing scaling curve produced a plan")
	}
	if !strings.Contains(err.Error(), "non-monotonic feasibility") {
		t.Errorf("error = %v", err)
	}
	if !strings.Contains(err.Error(), "1 nodes") || !strings.Contains(err.Error(), "2 nodes") {
		t.Errorf("error does not name both data points: %v", err)
	}
}

func TestNonMonotonicProbeSkippedAtMaxNodes(t *testing.T) {
	// The same regressing scenario, but the search is capped at the fitting
	// size: there is no doubled size to probe, so the fit stands.
	req := regressingRequest(t)
	one, err := req.bestAt(1)
	if err != nil || one == nil {
		t.Fatalf("no 1-node baseline: best=%v err=%v", one, err)
	}
	two, err := req.bestAt(2)
	if err != nil || two == nil {
		t.Fatalf("no 2-node probe point: best=%v err=%v", two, err)
	}
	req.TargetDays = (one.Breakdown.ExpectedTotalTime().Days() +
		two.Breakdown.ExpectedTotalTime().Days()) / 2
	req.MaxNodes = 1
	plan, err := MinimumNodes(req)
	if err != nil {
		t.Fatalf("capped search should accept the fit: %v", err)
	}
	if plan.Nodes != 1 {
		t.Errorf("plan sized %d nodes, want 1", plan.Nodes)
	}
}

func TestScalingCurveMonotoneEnough(t *testing.T) {
	// The rejected-size curve should broadly improve with machine size
	// (mapping quantization allows small local wobbles, so require each
	// doubling to not be worse than 1.05x the previous best).
	plan, err := MinimumNodes(request(15))
	if err != nil {
		t.Fatal(err)
	}
	best := 1e18
	for _, c := range plan.Rejected {
		if c.Days < 0 {
			continue
		}
		if c.Days > best*1.05 {
			t.Errorf("scaling curve regressed at %d nodes: %v days after best %v",
				c.Nodes, c.Days, best)
		}
		if c.Days < best {
			best = c.Days
		}
	}
}

// solveAt is Solve's optimum for the request's template at one size,
// assembled without the capacity search's own helper.
func solveAt(t *testing.T, req CapacityRequest, nodes int) *Result {
	t.Helper()
	sys := req.Template
	sys.Nodes = nodes
	res, err := Solve(explore.Scenario{Model: req.Model, System: &sys, Training: req.Training, Eff: req.Eff},
		explore.Options{
			Batches:          []int{req.Training.Batch.Global},
			Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
			MicrobatchTarget: 128,
		})
	if err != nil {
		t.Fatalf("Solve at %d nodes: %v", nodes, err)
	}
	return res
}

// TestMinimumNodesMatchesSolve: the capacity search is Solve at each size.
// The chosen size's mapping and days, and every rejected size's days, are
// Solve's optimum there, bit for bit.
func TestMinimumNodesMatchesSolve(t *testing.T) {
	for _, days := range []float64{15, 25, 40, 80} {
		req := request(days)
		plan, err := MinimumNodes(req)
		if err != nil {
			t.Fatalf("%g days: %v", days, err)
		}
		res := solveAt(t, req, plan.Nodes)
		if res.Best == nil || res.Best.Mapping != plan.Mapping ||
			res.Best.Breakdown.ExpectedTotalTime().Days() != plan.Days || *res.Best.Breakdown != *plan.Breakdown {
			t.Errorf("%g days: plan %v at %d nodes (%v days), Solve best %v", days, plan.Mapping, plan.Nodes, plan.Days, res.Best)
		}
		for _, c := range plan.Rejected {
			want := -1.0
			if r := solveAt(t, req, c.Nodes); r.Best != nil {
				want = r.Best.Breakdown.ExpectedTotalTime().Days()
			}
			if c.Days != want {
				t.Errorf("%g days: rejected %d nodes at %v days, Solve says %v", days, c.Nodes, c.Days, want)
			}
		}
	}
}
