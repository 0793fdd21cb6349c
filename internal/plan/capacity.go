package plan

import (
	"errors"
	"fmt"

	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// CapacityRequest describes an inverse capacity-planning problem: how much
// machine does a training deadline need?
type CapacityRequest struct {
	// Model is the transformer to train.
	Model *transformer.Model
	// Template is the machine shape; its Nodes field is the search
	// variable (the per-node composition and links are kept).
	Template hardware.System
	// Training is the recipe; Batch.Global must be set. NumBatches fixes
	// the run length the deadline applies to.
	Training model.Training
	// TargetDays is the deadline.
	TargetDays float64
	// MaxNodes bounds the search (default 4096).
	MaxNodes int
	// Eff is the efficiency model (nil = default).
	Eff efficiency.Model
}

// Capacity is the capacity search's answer: a sized machine.
type Capacity struct {
	// Nodes and Accelerators size the machine.
	Nodes, Accelerators int
	// Mapping is the best parallelism configuration at that size.
	Mapping parallel.Mapping
	// Days is the predicted training time.
	Days float64
	// Breakdown is the full evaluation of the chosen point.
	Breakdown *model.Breakdown
	// Rejected lists the sizes tried that missed the deadline, with their
	// best achievable times — the scaling curve the answer sits on.
	Rejected []Candidate
}

// Candidate is one examined machine size; Days is -1 when no mapping of
// that size is feasible.
type Candidate struct {
	Nodes int
	Days  float64
}

// capacityMicrobatchTarget is the microbatch size each probed machine's
// sweep tunes N_ub towards.
const capacityMicrobatchTarget = 128

// Validate checks the request.
func (r *CapacityRequest) Validate() error {
	if r == nil {
		return errors.New("plan: nil capacity request")
	}
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if r.Template.AccelsPerNode <= 0 {
		return fmt.Errorf("plan: template needs accelerators per node, have %d", r.Template.AccelsPerNode)
	}
	if r.TargetDays <= 0 {
		return fmt.Errorf("plan: target %g days must be positive", r.TargetDays)
	}
	if r.Training.Batch.Global <= 0 {
		return errors.New("plan: training batch must be set")
	}
	return nil
}

// bestAt is Solve's optimum on the template at the given node count, nil
// when no mapping is feasible (e.g. the batch divides no data-parallel
// width).
func (r *CapacityRequest) bestAt(nodes int) (*explore.Point, error) {
	sys := r.Template
	sys.Nodes = nodes
	if sys.Name == "" {
		sys.Name = fmt.Sprintf("%dx%d", nodes, sys.AccelsPerNode)
	}
	res, err := Solve(explore.Scenario{
		Name:     sys.Name,
		Model:    r.Model,
		System:   &sys,
		Training: r.Training,
		Eff:      r.Eff,
	}, explore.Options{
		Batches:          []int{r.Training.Batch.Global},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: capacityMicrobatchTarget,
	})
	if err != nil {
		return nil, err
	}
	return res.Best, nil
}

// MinimumNodes finds the smallest power-of-two node count whose best
// mapping (Solve's optimum) meets the deadline by expected total time: the
// model's time inflated by the reliability spec's goodput overhead when the
// recipe carries one, so the promise holds on a cluster that fails.
//
// Feasibility is not monotone in machine size: mapping quantization,
// communication regimes that degrade with more inter-node traffic, and
// goodput overhead growing with the failure domain can all make a larger
// machine slower. So before accepting a fit MinimumNodes probes the
// doubled size, and if that machine regresses past the deadline it returns
// an error naming both data points instead of a plan: committing capacity
// on a quantization artifact needs a human look. A doubled size with no
// feasible mapping, or one beyond MaxNodes, does not veto the plan. The
// scaling curve of rejected sizes is returned with the plan.
func MinimumNodes(req CapacityRequest) (*Capacity, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	maxNodes := req.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 4096
	}
	var rejected []Candidate
	for nodes := 1; nodes <= maxNodes; nodes *= 2 {
		best, err := req.bestAt(nodes)
		if err != nil {
			return nil, fmt.Errorf("solver: %d nodes: %w", nodes, err)
		}
		if best == nil {
			rejected = append(rejected, Candidate{Nodes: nodes, Days: -1})
			continue
		}
		days := best.Breakdown.ExpectedTotalTime().Days()
		if days > req.TargetDays {
			rejected = append(rejected, Candidate{Nodes: nodes, Days: days})
			continue
		}
		if next := nodes * 2; next <= maxNodes {
			nb, err := req.bestAt(next)
			if err != nil {
				return nil, fmt.Errorf("solver: %d nodes: %w", next, err)
			}
			if nb != nil {
				if nd := nb.Breakdown.ExpectedTotalTime().Days(); nd > req.TargetDays {
					return nil, fmt.Errorf(
						"solver: non-monotonic feasibility: %d nodes meet %g days at %.6g, but %d nodes regress to %.6g — the scaling curve is untrustworthy around this size, inspect the mapping quantization or communication regime before committing capacity",
						nodes, req.TargetDays, days, next, nd)
				}
			}
		}
		return &Capacity{
			Nodes:        nodes,
			Accelerators: nodes * req.Template.AccelsPerNode,
			Mapping:      best.Mapping,
			Days:         days,
			Breakdown:    best.Breakdown,
			Rejected:     rejected,
		}, nil
	}
	return nil, fmt.Errorf("solver: no machine up to %d nodes meets %g days (best tried: %v)",
		maxNodes, req.TargetDays, tail(rejected))
}

// tail returns the last few candidates for error messages.
func tail(cs []Candidate) []Candidate {
	if len(cs) <= 3 {
		return cs
	}
	return cs[len(cs)-3:]
}
