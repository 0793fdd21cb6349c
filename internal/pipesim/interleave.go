package pipesim

import (
	"errors"
	"fmt"

	"amped/internal/eventsim"
)

// InterleavedConfig describes a virtual-stage (interleaved) pipeline run:
// each physical stage holds Chunks non-contiguous layer chunks, so the
// fill/drain bubble shrinks by roughly the chunk count — the schedule
// behind Megatron-LM's interleaved pipelining and the mechanism the
// paper's R factor (Eq. 8) abstracts.
type InterleavedConfig struct {
	// Stages is the physical pipeline depth p.
	Stages int
	// Chunks is v, the virtual chunks per stage (1 = plain GPipe).
	Chunks int
	// Microbatches is m.
	Microbatches int
	// FwdTime and BwdTime are per *full stage* per microbatch; one chunk
	// task costs FwdTime/Chunks (resp. BwdTime/Chunks).
	FwdTime, BwdTime eventsim.Time
	// CommTime is the per-hop activation transfer time, including the
	// wrap-around hop from the last stage back to the first between chunks
	// (free in a one-stage pipeline, where the data never leaves the stage).
	CommTime eventsim.Time
	// KeepTrace records per-stage busy intervals.
	KeepTrace bool
	// StageScale, when non-nil, multiplies each stage's compute durations:
	// the straggler-injection hook, and the way to model layer counts that
	// do not divide evenly across stages (a stage holding ceil(L/p) layers
	// scales by ceil(L/p)/(L/p)). Length must equal Stages.
	StageScale []float64
}

// Validate checks the configuration.
func (c InterleavedConfig) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("pipesim: stage count %d must be positive", c.Stages)
	case c.Chunks <= 0:
		return fmt.Errorf("pipesim: chunk count %d must be positive", c.Chunks)
	case c.Microbatches <= 0:
		return fmt.Errorf("pipesim: microbatch count %d must be positive", c.Microbatches)
	case !finiteNonNegative(c.FwdTime, c.BwdTime, c.CommTime):
		return errors.New("pipesim: task durations must be finite and non-negative")
	case c.FwdTime == 0 && c.BwdTime == 0:
		return errors.New("pipesim: zero-work pipeline")
	}
	return validateStageScale(c.StageScale, c.Stages)
}

// orderFor returns every stage's interleaved fill-drain order: forward
// chunks ascending, then backward chunks descending with microbatches
// reversed.
func orderFor(chunks, m int) []ctask {
	out := make([]ctask, 0, 2*chunks*m)
	for c := 0; c < chunks; c++ {
		for i := 0; i < m; i++ {
			out = append(out, ctask{fwd, i, c})
		}
	}
	for c := chunks - 1; c >= 0; c-- {
		for i := m - 1; i >= 0; i-- {
			out = append(out, ctask{bwd, i, c})
		}
	}
	return out
}

// RunInterleaved executes one batch of the interleaved fill-drain schedule:
// all chunk-0 forwards, then chunk-1 forwards (each microbatch wrapping
// from the last stage back to the first), ..., then the backward chunks in
// reverse. It shares Run's executor and dependency rule, so with Chunks=1
// it is Run's GPipe schedule.
func RunInterleaved(cfg InterleavedConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tasks := orderFor(cfg.Chunks, cfg.Microbatches)
	orders := make([][]ctask, cfg.Stages)
	for s := range orders {
		orders[s] = tasks
	}
	return execute(cfg, orders, nil)
}

// EstimateR measures the Eq. 8 bubble ratio R of an interleaved schedule:
// the simulated bubble time of the v-chunk schedule divided by the naive
// (v=1) schedule's, for the same total work. This is how the paper's
// "R can be tuned or modeled in more detail" knob is derived from first
// principles instead of fitted.
func EstimateR(stages, microbatches, chunks int, fwd, bwd, comm eventsim.Time) (float64, error) {
	base := InterleavedConfig{
		Stages: stages, Chunks: 1, Microbatches: microbatches,
		FwdTime: fwd, BwdTime: bwd, CommTime: comm,
	}
	naive, err := RunInterleaved(base)
	if err != nil {
		return 0, err
	}
	base.Chunks = chunks
	inter, err := RunInterleaved(base)
	if err != nil {
		return 0, err
	}
	ideal := eventsim.Time(microbatches) * (fwd + bwd)
	naiveBubble := float64(naive.Makespan - ideal)
	interBubble := float64(inter.Makespan - ideal)
	if naiveBubble <= 0 {
		return 0, errors.New("pipesim: no bubbles to compare (single stage?)")
	}
	if interBubble < 0 {
		interBubble = 0
	}
	return interBubble / naiveBubble, nil
}
