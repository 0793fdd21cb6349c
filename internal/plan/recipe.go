package plan

import (
	"errors"
	"fmt"

	"amped/internal/efficiency"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// TuneRequest frames the recipe search: which mapping, microbatch count and
// memory levers train a model fastest on a machine.
type TuneRequest struct {
	// Model is the transformer to train.
	Model *transformer.Model
	// System is the machine.
	System *hardware.System
	// GlobalBatch is the training batch (fixed by convergence concerns,
	// so not searched).
	GlobalBatch int
	// NumBatches sizes the run for absolute times (0 = one batch).
	NumBatches int
	// Eff is the efficiency model (nil = default).
	Eff efficiency.Model
}

// Recipe is one complete, feasible training configuration.
type Recipe struct {
	// Mapping is the parallelism assignment.
	Mapping parallel.Mapping
	// Microbatches is the searched N_ub.
	Microbatches int
	// ZeROStage and Checkpointing are the memory levers engaged (the
	// search prefers recipes that need neither).
	ZeROStage     int
	Checkpointing bool
	// Breakdown is the evaluated performance, ZeRO overhead included.
	Breakdown *model.Breakdown
	// Footprint is the per-accelerator memory of the worst pipeline stage.
	Footprint memkit.Footprint
	// Stats describes the search over (mapping, N_ub) cells.
	Stats Stats
}

// String renders the recipe.
func (r Recipe) String() string {
	extras := ""
	if r.ZeROStage > 0 {
		extras += fmt.Sprintf(" ZeRO-%d", r.ZeROStage)
	}
	if r.Checkpointing {
		extras += " +ckpt"
	}
	return fmt.Sprintf("%v N_ub=%d%s -> %v (%v/GPU)",
		r.Mapping, r.Microbatches, extras, r.Breakdown.TotalTime(), r.Footprint.Total())
}

// validate checks the request.
func (r *TuneRequest) validate() error {
	if r == nil {
		return errors.New("plan: nil recipe request")
	}
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if err := r.System.Validate(); err != nil {
		return err
	}
	if r.GlobalBatch <= 0 {
		return fmt.Errorf("plan: global batch %d must be positive", r.GlobalBatch)
	}
	return nil
}

// memoryLadder lists the memory levers from cheapest to most invasive:
// each step trades a little communication or recompute for footprint.
var memoryLadder = [...]struct {
	zero int
	ckpt bool
}{
	{0, false},
	{1, false},
	{0, true},
	{1, true},
	{2, true},
	{3, true},
}

// recipeReserve is the fraction of device memory a recipe leaves for
// framework overhead, the reserve amped-explore -memory filters with.
const recipeReserve = 0.1

// Tune returns the fastest memory-feasible recipe: the exact optimum over
// every mapping the sweep enumerates (powers of two), every N_ub that
// divides the per-replica batch and fills the pipeline (N_ub >= PP, the
// sweep's MicrobatchFeasible rule), and every memory-ladder step. A cell
// is feasible when its worst pipeline stage fits the device memory less
// the reserve; it is priced with its ZeRO stage's Eq. 5 overhead and
// ranked by expected total time. Exact ties go to the earlier ladder step,
// then to the smaller explore.Point identity.
//
// Checkpointing is not priced and ZeRO stages 0–2 add no overhead, so
// ladder steps 0–4 price identically and only ZeRO-3 costs more: the first
// step that fits is each (mapping, N_ub) cell's optimum, and two compiled
// sessions price every cell. The error reports the search size when
// nothing fits.
func Tune(req TuneRequest) (*Recipe, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	batch := req.GlobalBatch
	eff := req.Eff
	if eff == nil {
		eff = efficiency.Default()
	}
	base, err := model.Compile(req.Model, req.System, model.Training{NumBatches: req.NumBatches}, eff)
	if err != nil {
		return nil, err
	}
	mappings := explore.MappingList(req.Model, req.System, nil, parallel.EnumerateOptions{PowerOfTwo: true})
	if len(mappings) == 0 {
		return nil, errors.New("plan: no mappings to tune")
	}
	zero3, err := compileZeRO3(base, batch)
	if err != nil {
		return nil, err
	}
	var (
		st          Stats
		cur, bestBD model.Breakdown
		best        *Recipe
		bestRank    cellRank
	)
	for _, mp := range mappings {
		if batch%mp.DP() != 0 {
			continue
		}
		for _, nub := range parallel.Divisors(batch / mp.DP()) {
			if nub < mp.PP() {
				continue
			}
			st.CellsTotal++
			b := parallel.Batch{Global: batch, Microbatches: nub}
			step, fp, err := firstFit(req.Model, mp, b, req.System.Accel)
			if err != nil {
				st.CellsInfeasible++
				continue
			}
			if step < 0 {
				st.CellsPrunedMemory++
				continue
			}
			sess := base
			if memoryLadder[step].zero == 3 {
				sess = zero3
			}
			if err := sess.EvaluatePoint(mp, batch, nub, &cur); err != nil {
				st.CellsInfeasible++
				continue
			}
			st.CellsExpanded++
			rank := cellRank{key: float64(cur.ExpectedTotalTime()), step: step,
				cell: explore.Point{Mapping: mp, Batch: batch, Microbatches: nub}}
			if best != nil && !rank.before(bestRank) {
				continue
			}
			bestBD, bestRank = cur, rank
			best = &Recipe{
				Mapping:       mp,
				Microbatches:  nub,
				ZeROStage:     memoryLadder[step].zero,
				Checkpointing: memoryLadder[step].ckpt,
				Breakdown:     &bestBD,
				Footprint:     fp,
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no recipe fits %v per accelerator (searched %d cells)",
			req.System.Accel.Memory, st.CellsTotal)
	}
	best.Stats = st
	return best, nil
}

// cellRank is a priced recipe cell's position in the search order.
type cellRank struct {
	key  float64 // expected total time
	step int     // memory-ladder index
	cell explore.Point
}

// before orders cells by expected time, then ladder step, then
// explore.Point identity (rendered only on an exact tie).
func (a cellRank) before(b cellRank) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.step != b.step {
		return a.step < b.step
	}
	return a.cell.String() < b.cell.String()
}

// firstFit climbs the memory ladder for one cell and returns the first step
// whose worst pipeline stage fits the device, with that stage's footprint;
// step -1 means no step fits.
func firstFit(m *transformer.Model, mp parallel.Mapping, b parallel.Batch, accel hardware.Accelerator) (int, memkit.Footprint, error) {
	for step, lever := range memoryLadder {
		fp, err := memkit.WorstStage(m, mp, b, memkit.Config{
			Operands:      precision.Mixed16(),
			Optimizer:     memkit.Adam,
			ZeROStage:     lever.zero,
			Checkpointing: lever.ckpt,
			Schedule:      memkit.OneFOneB,
		})
		if err != nil {
			return -1, memkit.Footprint{}, err
		}
		if memkit.Fits(fp, accel, recipeReserve) {
			return step, fp, nil
		}
	}
	return -1, memkit.Footprint{}, nil
}

// compileZeRO3 compiles base's scenario with ZeRO-3's Eq. 5 overhead.
func compileZeRO3(base *model.Session, batch int) (*model.Session, error) {
	overhead, err := model.ZeROOverheadForStage(3)
	if err != nil {
		return nil, err
	}
	tr := base.Training()
	tr.ZeROOverhead = overhead
	return model.Compile(base.Model(), base.System(), tr, base.Eff())
}
