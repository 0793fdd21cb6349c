// Package pipesim executes pipeline-parallel training schedules at
// microbatch-task granularity: the schedules the paper's validation
// hardware ran (GPipe-style fill-drain, 1F1B) and the interleaved
// virtual-stage schedule. Each is a static per-stage task order, so one
// executor walks those orders as a longest-path recurrence in which a task
// starts once its stage is free and its input has arrived (the producer's
// finish plus one inter-stage hop). The results are makespans, per-stage
// utilization timelines (the Fig. 1 substitute) and empirical bubble
// fractions that cross-check the closed-form Eq. 8. RunDisagg, the
// disaggregated-serving queue, is a recurrence of the same kind over two
// FIFO replica pools.
package pipesim

import (
	"errors"
	"fmt"
	"math"

	"amped/internal/eventsim"
)

// Schedule selects the pipeline execution order.
type Schedule int

const (
	// GPipe runs all microbatch forwards, then all backwards (fill-drain).
	GPipe Schedule = iota
	// OneFOneB interleaves one forward with one backward after a warmup
	// of pipeline-depth forwards, bounding activation memory.
	OneFOneB
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case GPipe:
		return "gpipe"
	case OneFOneB:
		return "1f1b"
	default:
		return fmt.Sprintf("pipesim.Schedule(%d)", int(s))
	}
}

// Config describes one pipeline run.
type Config struct {
	// Stages is the pipeline depth p.
	Stages int
	// Microbatches is m, the microbatch count per batch.
	Microbatches int
	// FwdTime and BwdTime are the per-stage compute times of one
	// microbatch's forward and backward pass.
	FwdTime, BwdTime eventsim.Time
	// CommTime is the activation/gradient transfer time between adjacent
	// stages (one hop, one microbatch).
	CommTime eventsim.Time
	// Schedule selects the execution order (default GPipe).
	Schedule Schedule
	// KeepTrace records per-stage busy intervals for visualization.
	KeepTrace bool
	// StageScale, when non-nil, multiplies each stage's compute durations —
	// the fault injector's straggler hook, and the natural knob for layer
	// counts that do not divide evenly across stages (a stage holding one
	// extra layer is a proportionally slower stage). Length must equal
	// Stages; 1 is a healthy stage.
	StageScale []float64
	// CommScale, when non-nil, returns a multiplier for the transfer leaving
	// stage `from` at simulated time `at` — the degraded/flapping-link hook.
	// Values must be non-negative; 1 is a healthy link.
	CommScale func(from int, at eventsim.Time) float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("pipesim: stage count %d must be positive", c.Stages)
	case c.Microbatches <= 0:
		return fmt.Errorf("pipesim: microbatch count %d must be positive", c.Microbatches)
	case !finiteNonNegative(c.FwdTime, c.BwdTime, c.CommTime):
		return errors.New("pipesim: task durations must be finite and non-negative")
	case c.FwdTime == 0 && c.BwdTime == 0:
		return errors.New("pipesim: zero-work pipeline")
	case c.Schedule != GPipe && c.Schedule != OneFOneB:
		return fmt.Errorf("pipesim: unknown schedule %d", int(c.Schedule))
	}
	return validateStageScale(c.StageScale, c.Stages)
}

// validateStageScale checks an optional per-stage compute multiplier slice.
func validateStageScale(scale []float64, stages int) error {
	if scale == nil {
		return nil
	}
	if len(scale) != stages {
		return fmt.Errorf("pipesim: stage scale length %d != %d stages", len(scale), stages)
	}
	for s, v := range scale {
		if !finiteNonNegative(eventsim.Time(v)) {
			return fmt.Errorf("pipesim: stage scale %g at stage %d must be finite and non-negative", v, s)
		}
	}
	return nil
}

// finiteNonNegative reports whether every duration or scale is finite and
// non-negative; NaN and +Inf would poison every schedule they touch.
func finiteNonNegative(ds ...eventsim.Time) bool {
	for _, d := range ds {
		if !(d >= 0) || math.IsInf(float64(d), 1) {
			return false
		}
	}
	return true
}

// kind distinguishes forward from backward tasks.
type kind int

const (
	fwd kind = iota
	bwd
)

// ctask is one (kind, microbatch, chunk) unit of work on a stage; the
// non-interleaved schedules run chunk 0 only.
type ctask struct {
	kind  kind
	mb    int
	chunk int
}

// label names the task in traces: "F3" for microbatch 3's forward, and
// "B2.1" for microbatch 2's chunk-1 backward when the run is chunked.
func (t ctask) label(chunked bool) string {
	k := "F"
	if t.kind == bwd {
		k = "B"
	}
	if !chunked {
		return fmt.Sprintf("%s%d", k, t.mb)
	}
	return fmt.Sprintf("%s%d.%d", k, t.mb, t.chunk)
}

// order returns the per-stage execution order for the schedule.
func order(sched Schedule, stage, stages, m int) []ctask {
	out := make([]ctask, 0, 2*m)
	switch sched {
	case GPipe:
		for i := 0; i < m; i++ {
			out = append(out, ctask{fwd, i, 0})
		}
		// Backward drains in reverse microbatch order: the last microbatch
		// reaches the loss first at the last stage's end of fill.
		for i := m - 1; i >= 0; i-- {
			out = append(out, ctask{bwd, i, 0})
		}
	case OneFOneB:
		// Warmup forwards: the further from the last stage, the more.
		warm := stages - stage
		if warm > m {
			warm = m
		}
		for i := 0; i < warm; i++ {
			out = append(out, ctask{fwd, i, 0})
		}
		// Steady state: alternate B(i), F(i+warm).
		b := 0
		f := warm
		for b < m {
			out = append(out, ctask{bwd, b, 0})
			b++
			if f < m {
				out = append(out, ctask{fwd, f, 0})
				f++
			}
		}
	}
	return out
}

// Result is the outcome of one simulated batch.
type Result struct {
	// Makespan is the batch completion time.
	Makespan eventsim.Time
	// StageBusy is each stage's total busy time.
	StageBusy []eventsim.Time
	// Traces holds per-stage busy intervals when requested.
	Traces [][]eventsim.Interval
}

// BubbleFraction is the idle share of the pipeline: 1 - Σbusy/(p·makespan).
// For an ideal zero-bubble pipeline this approaches 0.
func (r *Result) BubbleFraction() float64 {
	if r.Makespan <= 0 || len(r.StageBusy) == 0 {
		return 0
	}
	var busy eventsim.Time
	for _, b := range r.StageBusy {
		busy += b
	}
	f := 1 - float64(busy)/(float64(r.Makespan)*float64(len(r.StageBusy)))
	if f < 0 {
		f = 0
	}
	return f
}

// Utilization returns per-stage busy/makespan fractions.
func (r *Result) Utilization() []float64 {
	out := make([]float64, len(r.StageBusy))
	for i, b := range r.StageBusy {
		if r.Makespan > 0 {
			out[i] = float64(b) / float64(r.Makespan)
		}
	}
	return out
}

// Run executes one batch of the GPipe or 1F1B schedule and returns the
// result. Each task starts at max(its stage's previous finish, its
// producer's finish + one hop); see execute.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	orders := make([][]ctask, cfg.Stages)
	for s := range orders {
		orders[s] = order(cfg.Schedule, s, cfg.Stages, cfg.Microbatches)
	}
	return execute(InterleavedConfig{
		Stages: cfg.Stages, Chunks: 1, Microbatches: cfg.Microbatches,
		FwdTime: cfg.FwdTime, BwdTime: cfg.BwdTime, CommTime: cfg.CommTime,
		KeepTrace: cfg.KeepTrace, StageScale: cfg.StageScale,
	}, orders, cfg.CommScale)
}

// pending marks a task whose finish time is not fixed yet.
const pending eventsim.Time = -1

// execute is the one schedule executor behind Run and RunInterleaved. It
// walks the static per-stage orders as a longest-path recurrence over the
// schedule's dependency graph:
//
//	start = max(stage free, producer finish + hop)
//
// A forward consumes the previous stage's forward of the same chunk (the
// first stage's chunk c > 0 consumes the last stage's chunk c-1: the
// wrap-around hop); a backward consumes the next stage's backward (the
// last stage's chunk c < v-1 consumes the first stage's chunk c+1), and the
// last stage's last-chunk backward consumes its own last forward: the loss.
// The hop is charged whenever the producer ran on another stage, so only
// the loss-side backward (and, in a one-stage pipeline, the wrap-around)
// skips it. The stages are swept in turn, each advancing its head task
// while the task's input is in, until no head can advance; a stage left
// with tasks is a schedule deadlock. Durations carry the stage scale and
// the 1/v chunk share, and commScale (nil: healthy links) scales each hop
// by the link state at the producer's finish, its send time.
func execute(cfg InterleavedConfig, orders [][]ctask, commScale func(from int, at eventsim.Time) float64) (*Result, error) {
	p, v, m := cfg.Stages, cfg.Chunks, cfg.Microbatches
	// finish[((kind·m + mb)·v + chunk)·p + stage] is a task's end time.
	finish := make([]eventsim.Time, 2*m*v*p)
	for i := range finish {
		finish[i] = pending
	}
	at := func(k kind, mb, c, s int) *eventsim.Time { return &finish[((int(k)*m+mb)*v+c)*p+s] }

	// ready returns when t's input is available on stage s, or false while
	// its producer has not run.
	ready := func(t ctask, s int) (eventsim.Time, bool) {
		k, c, from := t.kind, t.chunk, s
		switch {
		case k == fwd && s > 0:
			from = s - 1
		case k == fwd && c > 0:
			c, from = c-1, p-1
		case k == fwd:
			return 0, true
		case s < p-1:
			from = s + 1
		case c < v-1:
			c, from = c+1, 0
		default:
			k, c = fwd, v-1
		}
		f := *at(k, t.mb, c, from)
		if f == pending {
			return 0, false
		}
		if from == s {
			return f, true
		}
		hop := cfg.CommTime
		if commScale != nil {
			hop *= eventsim.Time(commScale(from, f))
		}
		return f + hop, true
	}

	res := &Result{StageBusy: make([]eventsim.Time, p)}
	if cfg.KeepTrace {
		res.Traces = make([][]eventsim.Interval, p)
	}
	free := make([]eventsim.Time, p)
	next := make([]int, p)
	for progress := true; progress; {
		progress = false
		for s, tasks := range orders {
			for ; next[s] < len(tasks); next[s]++ {
				t := tasks[next[s]]
				start, ok := ready(t, s)
				if !ok {
					break
				}
				start = max(start, free[s])
				d := cfg.FwdTime
				if t.kind == bwd {
					d = cfg.BwdTime
				}
				if cfg.StageScale != nil {
					d *= eventsim.Time(cfg.StageScale[s])
				}
				d /= eventsim.Time(v)
				end := start + d
				*at(t.kind, t.mb, t.chunk, s) = end
				free[s] = end
				res.StageBusy[s] += d
				res.Makespan = max(res.Makespan, end)
				if cfg.KeepTrace && d > 0 {
					res.Traces[s] = append(res.Traces[s], eventsim.Interval{Start: start, End: end, Label: t.label(v > 1)})
				}
				progress = true
			}
		}
	}
	for s, tasks := range orders {
		if next[s] != len(tasks) {
			return nil, fmt.Errorf("pipesim: stage %d stalled at task %d/%d (schedule deadlock)",
				s, next[s], len(tasks))
		}
	}
	return res, nil
}

// IdealMakespan is the zero-bubble lower bound m·(f+b) for one stage's
// serial work, the denominator of speedup-per-stage comparisons.
func IdealMakespan(cfg Config) eventsim.Time {
	return eventsim.Time(cfg.Microbatches) * (cfg.FwdTime + cfg.BwdTime)
}

// AnalyticBubbleFraction is the closed-form GPipe bubble share
// (p-1)/(m+p-1), for cross-checking Eq. 8 against the simulation.
func AnalyticBubbleFraction(stages, microbatches int) float64 {
	if stages <= 1 {
		return 0
	}
	return float64(stages-1) / float64(microbatches+stages-1)
}
