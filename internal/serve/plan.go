package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/obs"
	"amped/internal/pipesim"
	"amped/internal/plan"
)

// PlanRequest is the /v1/plan body: the same scenario sections and sweep
// parameters as /v1/sweep (the planner searches the identical cell space),
// plus an optional heterogeneous fleet description. Sweep.Top and
// Sweep.KeepInvalid are accepted for schema compatibility but ignored — the
// planner returns exactly one optimum.
type PlanRequest struct {
	Model    config.Model    `json:"model"`
	System   config.System   `json:"system"`
	Training config.Training `json:"training"`
	// Reliability enables failure-aware goodput modeling; the planner then
	// optimizes expected (failure-inflated) total time, exactly like the
	// sweep's ranking.
	Reliability *config.Reliability `json:"reliability,omitempty"`
	Sweep       SweepParams         `json:"sweep"`
	// Pools, when present, additionally searches a mixed accelerator fleet:
	// pipeline-stage assignment across the pools jointly with the
	// tensor-parallel width, batch and microbatch schedule. The response
	// then carries a "hetero" section alongside the homogeneous plan.
	Pools []PlanPool `json:"pools,omitempty"`
	// Schedule selects the simulated pipeline schedule for the
	// heterogeneous search: "1f1b" (default) or "gpipe".
	Schedule string `json:"schedule,omitempty"`
}

// PlanPool is one homogeneous accelerator pool of a mixed fleet.
type PlanPool struct {
	// Preset is an accelerator preset name (e.g. "a100", "h100").
	Preset string `json:"preset"`
	// Count is how many accelerators the pool holds.
	Count int `json:"count"`
}

// PlanStats is plan.Stats on the wire: how the planner covered its cell
// space. cells_expanded counts cells priced; cells_bounded counts the
// rankable cells left unpriced by a bound: the compute-floor cut of the
// homogeneous search, the branch-and-bound's stop in the hetero section.
type PlanStats struct {
	CellsTotal        int64   `json:"cells_total"`
	CellsPrunedMemory int64   `json:"cells_pruned_memory"`
	CellsInfeasible   int64   `json:"cells_infeasible"`
	CellsBounded      int64   `json:"cells_bounded"`
	CellsExpanded     int64   `json:"cells_expanded"`
	ExpandedFraction  float64 `json:"expanded_fraction"`
	ComputeFloorS     float64 `json:"compute_floor_s,omitempty"`
}

func toPlanStats(st plan.Stats) PlanStats {
	return PlanStats{
		CellsTotal:        st.CellsTotal,
		CellsPrunedMemory: st.CellsPrunedMemory,
		CellsInfeasible:   st.CellsInfeasible,
		CellsBounded:      st.CellsBounded,
		CellsExpanded:     st.CellsExpanded,
		ExpandedFraction:  st.ExpandedFraction(),
		ComputeFloorS:     st.ComputeFloorSeconds,
	}
}

// HeteroPoint is the heterogeneous planner's chosen deployment.
type HeteroPoint struct {
	// ID is the cell's deterministic identity string.
	ID string `json:"id"`
	// TP is the per-stage tensor-parallel width; PP the pipeline depth.
	TP int `json:"tp"`
	PP int `json:"pp"`
	// Stages is how many pipeline stages each pool serves, in the request's
	// pool order.
	Stages []int `json:"stages"`
	// Batch and Microbatches are the chosen schedule.
	Batch        int `json:"batch"`
	Microbatches int `json:"microbatches"`
	// TotalS is the simulated makespan scaled to the training run.
	TotalS float64 `json:"total_s"`
}

// HeteroPlan is the heterogeneous section of a /v1/plan response.
type HeteroPlan struct {
	Best  *HeteroPoint `json:"best,omitempty"`
	Stats PlanStats    `json:"stats"`
}

// PlanResponse is the /v1/plan reply.
type PlanResponse struct {
	ScenarioKey string `json:"scenario_key"`
	Cache       string `json:"cache"`
	// Best is the optimal design point — identical, including the exact
	// rank key, to the front of an exhaustive /v1/sweep ranking. Absent
	// when no cell is feasible.
	Best *SweepPoint `json:"best,omitempty"`
	// RankS is Best's exact rank key (expected total seconds).
	RankS     float64   `json:"rank_s,omitempty"`
	Stats     PlanStats `json:"stats"`
	DurationS float64   `json:"duration_s"`
	// Hetero is present when the request carried accelerator pools.
	Hetero *HeteroPlan `json:"hetero,omitempty"`
}

// parseSchedule maps the wire schedule name to the simulator's enum.
func parseSchedule(name string) (pipesim.Schedule, error) {
	switch name {
	case "", "1f1b":
		return pipesim.OneFOneB, nil
	case "gpipe":
		return pipesim.GPipe, nil
	}
	return 0, fmt.Errorf("plan request: unknown schedule %q (want \"1f1b\" or \"gpipe\")", name)
}

// heteroSpace assembles the heterogeneous search space from the request's
// pools and the resolved scenario components.
func heteroSpace(req *PlanRequest, comp *config.Components) (plan.HeteroSpace, error) {
	sched, err := parseSchedule(req.Schedule)
	if err != nil {
		return plan.HeteroSpace{}, err
	}
	pools := make([]plan.Pool, len(req.Pools))
	for i, p := range req.Pools {
		accel, err := hardware.AcceleratorPreset(p.Preset)
		if err != nil {
			return plan.HeteroSpace{}, fmt.Errorf("plan request: pools[%d]: %w", i, err)
		}
		pools[i] = plan.Pool{Name: p.Preset, Accel: accel, Count: p.Count}
	}
	return plan.HeteroSpace{
		Model:            &comp.Model,
		Pools:            pools,
		Interconnect:     comp.System.Inter,
		Operands:         comp.Training.Operands,
		Eff:              comp.Eff,
		Batches:          req.Sweep.Batches,
		MicrobatchTarget: req.Sweep.MicrobatchTarget,
		MaxTP:            req.Sweep.MaxTP,
		MaxPP:            req.Sweep.MaxPP,
		NumBatches:       comp.Training.NumBatches,
		Schedule:         sched,
	}, nil
}

// compiledPlan is a plan request decoded, validated and compiled: the
// shared input of the synchronous /v1/plan handler and the plan job runner.
type compiledPlan struct {
	req PlanRequest
	hsp plan.HeteroSpace
	compiledScenario
}

// compilePlan decodes a plan body, runs the scenario half of the sweep
// prologue (compileScenario) and resolves the heterogeneous space, so a bad
// pool preset or schedule name fails before any search runs. Failures are
// classified bad_request.
func (s *Server) compilePlan(ctx context.Context, body []byte) (*compiledPlan, error) {
	cp := &compiledPlan{}
	if err := decodeSweepBody(body, &cp.req); err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	comp, sc, err := s.compileScenario(ctx, "plan request", config.Document{
		Model: cp.req.Model, System: cp.req.System, Training: cp.req.Training,
		Reliability: cp.req.Reliability,
	}, cp.req.Sweep.Batches)
	if err != nil {
		return nil, err
	}
	cp.compiledScenario = sc
	if err := explore.CheckEnumerate(sc.sess.Model(), sweepOptions(cp.req.Sweep).Enumerate); err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	if len(cp.req.Pools) > 0 {
		if cp.hsp, err = heteroSpace(&cp.req, comp); err != nil {
			return nil, &jobError{errClassBadRequest, err.Error()}
		}
	}
	return cp, nil
}

// solvePlan runs the homogeneous (and, with pools, heterogeneous) search
// over a compiled plan and assembles the response. A cancelled or expired
// ctx returns its error rather than a partial plan.
func (s *Server) solvePlan(ctx context.Context, cp *compiledPlan) (PlanResponse, error) {
	start := time.Now()
	res, err := plan.SolveContext(ctx, explore.Scenario{Session: cp.sess}, sweepOptions(cp.req.Sweep))
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return PlanResponse{}, err // classifies as cancelled or timeout
	case err != nil:
		return PlanResponse{}, &jobError{errClassBadRequest, err.Error()}
	}
	// Every rankable cell, priced or cut by its compute floor: the unit
	// the sweep throughput metrics count (a sweep's completed points).
	s.met.sweepPoints.add(uint64(res.Stats.CellsExpanded + res.Stats.CellsBounded))

	resp := PlanResponse{
		ScenarioKey: cp.key,
		Cache:       cp.status,
		Stats:       toPlanStats(res.Stats),
	}
	if res.Best != nil {
		best := toSweepPoint(*res.Best)
		resp.Best = &best
		resp.RankS = res.RankSeconds
	}

	if len(cp.req.Pools) > 0 {
		hres, err := plan.SolveHetero(cp.hsp)
		if err != nil {
			return PlanResponse{}, &jobError{errClassBadRequest, err.Error()}
		}
		hp := &HeteroPlan{Stats: toPlanStats(hres.Stats)}
		if hres.Best != nil {
			hp.Best = &HeteroPoint{
				ID:           hres.Best.ID,
				TP:           hres.Best.TP,
				PP:           hres.Best.PP,
				Stages:       hres.Best.Counts,
				Batch:        hres.Best.Batch,
				Microbatches: hres.Best.Microbatches,
				TotalS:       hres.Best.Value,
			}
		}
		resp.Hetero = hp
	}
	resp.DurationS = time.Since(start).Seconds()
	return resp, nil
}

// handlePlan runs the planner (internal/plan) over the compiled session's
// cell space and returns the optimal design point — the front of the
// ranking an exhaustive /v1/sweep of the same request returns — with the
// search statistics, admitted, cached and traced through the exact same
// machinery. The search runs under the server's request timeout; a
// deadline answers 504, never a partial plan. When the request carries
// accelerator pools the heterogeneous planner runs alongside and its
// optimum rides in the "hetero" section.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.lim.release()
	tr := obs.FromContext(r.Context())

	sp := tr.StartSpan(obs.PhaseDecode)
	body, err := s.readBody(w, r)
	if err != nil {
		sp.End()
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cp, err := s.compilePlan(r.Context(), body)
	sp.End()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, classifyErr(err).msg)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ssp := tr.StartSpan(obs.PhaseSweep)
	resp, err := s.solvePlan(ctx, cp)
	ssp.End()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.error(w, r, http.StatusGatewayTimeout,
			fmt.Sprintf("plan exceeded the %v request timeout", s.cfg.RequestTimeout))
		return
	case errors.Is(err, context.Canceled):
		s.error(w, r, statusForContextErr(err), "plan cancelled: client went away")
		return
	case err != nil:
		s.error(w, r, http.StatusBadRequest, classifyErr(err).msg)
		return
	}

	wsp := tr.StartSpan(obs.PhaseEncode)
	writeJSON(w, http.StatusOK, resp)
	wsp.End()
}
