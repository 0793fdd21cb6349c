package pipesim

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"amped/internal/eventsim"
)

// taskID names one task of a traced schedule: kind 'F' or 'B', microbatch,
// chunk and the stage it ran on.
type taskID struct {
	kind          byte
	mb, chunk, at int
}

// parseLabel reads a trace label, "F3" or "B2.1", back into a task on
// stage s.
func parseLabel(label string, s int) (taskID, error) {
	if len(label) < 2 || (label[0] != 'F' && label[0] != 'B') {
		return taskID{}, fmt.Errorf("bad label %q", label)
	}
	mb, chunk, chunked := strings.Cut(label[1:], ".")
	id := taskID{kind: label[0], at: s}
	var err error
	if id.mb, err = strconv.Atoi(mb); err != nil {
		return taskID{}, fmt.Errorf("bad label %q", label)
	}
	if chunked {
		if id.chunk, err = strconv.Atoi(chunk); err != nil {
			return taskID{}, fmt.Errorf("bad label %q", label)
		}
	}
	return id, nil
}

// checkSchedule verifies a KeepTrace result against the executor's rule,
// derived here from the schedule's data flow rather than from the
// executor's code: every interval lasts its scaled chunk duration and
// starts exactly at max(the previous interval's end on its stage, its
// producer's end + one hop), with the hop skipped when producer and
// consumer share a stage; every stage runs 2·v·m tasks; StageBusy sums
// the durations; and the makespan is the last end. Durations must be
// positive, since the trace omits zero-length intervals.
func checkSchedule(cfg InterleavedConfig, res *Result) error {
	p, v, m := cfg.Stages, cfg.Chunks, cfg.Microbatches
	if len(res.Traces) != p {
		return fmt.Errorf("%d traces for %d stages", len(res.Traces), p)
	}
	end := map[taskID]eventsim.Time{}
	var last eventsim.Time
	for s, tr := range res.Traces {
		if len(tr) != 2*v*m {
			return fmt.Errorf("stage %d ran %d tasks, want %d", s, len(tr), 2*v*m)
		}
		for _, iv := range tr {
			id, err := parseLabel(iv.Label, s)
			if err != nil {
				return err
			}
			if strings.Contains(iv.Label, ".") != (v > 1) {
				return fmt.Errorf("label %q: chunk suffix iff v > 1", iv.Label)
			}
			end[id] = iv.End
			last = max(last, iv.End)
		}
	}
	if len(end) != 2*v*m*p {
		return fmt.Errorf("%d distinct tasks, want %d", len(end), 2*v*m*p)
	}
	for s, tr := range res.Traces {
		var free, busy eventsim.Time
		for _, iv := range tr {
			id, _ := parseLabel(iv.Label, s)
			want := free
			if src, ok := producer(id, p, v); ok {
				arrive, done := end[src]
				if !done {
					return fmt.Errorf("stage %d %s: producer %+v never ran", s, iv.Label, src)
				}
				if src.at != s {
					arrive += cfg.CommTime
				}
				want = max(want, arrive)
			}
			if iv.Start != want {
				return fmt.Errorf("stage %d %s starts at %v, want %v", s, iv.Label, iv.Start, want)
			}
			d := cfg.FwdTime
			if id.kind == 'B' {
				d = cfg.BwdTime
			}
			if cfg.StageScale != nil {
				d *= eventsim.Time(cfg.StageScale[s])
			}
			d /= eventsim.Time(v)
			if iv.End != iv.Start+d {
				return fmt.Errorf("stage %d %s ends at %v, want %v", s, iv.Label, iv.End, iv.Start+d)
			}
			free, busy = iv.End, busy+d
		}
		if res.StageBusy[s] != busy {
			return fmt.Errorf("stage %d busy %v, want %v", s, res.StageBusy[s], busy)
		}
	}
	if res.Makespan != last {
		return fmt.Errorf("makespan %v, last end %v", res.Makespan, last)
	}
	return nil
}

// producer returns the task whose output id consumes: the forward pass
// flows stage 0 → p-1 through chunk 0, then wraps to stage 0 for chunk 1,
// and so on; the backward pass retraces it in reverse, starting from the
// loss at the last stage's last forward. The very first forward of each
// microbatch consumes nothing.
func producer(id taskID, p, v int) (taskID, bool) {
	pos := id.chunk*p + id.at // position on the data path
	if id.kind == 'B' {
		pos = 2*v*p - 1 - pos
	}
	if pos == 0 {
		return taskID{}, false
	}
	pos--
	if pos < v*p {
		return taskID{kind: 'F', mb: id.mb, chunk: pos / p, at: pos % p}, true
	}
	pos = 2*v*p - 1 - pos
	return taskID{kind: 'B', mb: id.mb, chunk: pos / p, at: pos % p}, true
}

// TestTransferDelaysConsumer pins schedules where the receiving stage
// wakes inside a transfer window (its own completion, or a message from
// its other neighbour): the task must still wait for the hop.
func TestTransferDelaysConsumer(t *testing.T) {
	cases := []struct {
		name string
		cfg  InterleavedConfig
		run  func(InterleavedConfig) (*Result, error)
		want eventsim.Time
	}{
		{
			// Stage 0 sends F1 at 4; stage 1 frees itself at 4 but must wait
			// for the hop until 5.
			name: "gpipe-slow-first-stage",
			cfg: InterleavedConfig{Stages: 2, Chunks: 1, Microbatches: 2,
				FwdTime: 1, BwdTime: 2, CommTime: 1, StageScale: []float64{2, 1}},
			run: func(c InterleavedConfig) (*Result, error) {
				return Run(Config{Stages: c.Stages, Microbatches: c.Microbatches,
					FwdTime: c.FwdTime, BwdTime: c.BwdTime, CommTime: c.CommTime,
					StageScale: c.StageScale, KeepTrace: true})
			},
			want: 17,
		},
		{
			// Uniform stages: every chunk-1 forward and chunk-0 backward
			// waits for its wrap-around hop.
			name: "interleaved-uniform",
			cfg: InterleavedConfig{Stages: 2, Chunks: 2, Microbatches: 4,
				FwdTime: 1, BwdTime: 1, CommTime: 1, KeepTrace: true},
			run:  RunInterleaved,
			want: 13,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan != tc.want {
				t.Errorf("makespan = %v, want %v", res.Makespan, tc.want)
			}
			if err := checkSchedule(tc.cfg, res); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzSchedule drives random pipelines — depth, microbatches, chunks,
// schedule, positive durations, stage scales and hop — through Run or
// RunInterleaved and checks every trace with checkSchedule. The counts
// wrap into range (stages 1..12, microbatches 1..64, chunks 1..4); byte b
// of scales gives a stage the multiplier b/16 (b wrapped into 1..64),
// cycled over the stages, and empty scales mean unscaled stages. sched
// picks GPipe, 1F1B or the interleaved schedule. The seed corpus under
// testdata/fuzz/FuzzSchedule holds both TestTransferDelaysConsumer cases.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, stages, microbatches, chunks, sched uint8,
		fwd, bwd, hop float64, scales []byte) {
		for _, x := range []float64{fwd, bwd} {
			if !(x >= 1e-3 && x <= 1e3) {
				t.Skip("durations must be positive and bounded")
			}
		}
		if !(hop >= 0 && hop <= 1e3) {
			t.Skip("hop must be non-negative and bounded")
		}
		cfg := InterleavedConfig{
			Stages: wrap(stages, 12), Chunks: 1, Microbatches: wrap(microbatches, 64),
			FwdTime: eventsim.Time(fwd), BwdTime: eventsim.Time(bwd), CommTime: eventsim.Time(hop),
			KeepTrace: true,
		}
		if len(scales) > 0 {
			cfg.StageScale = make([]float64, cfg.Stages)
			for s := range cfg.StageScale {
				cfg.StageScale[s] = float64(wrap(scales[s%len(scales)], 64)) / 16
			}
		}
		var res *Result
		var err error
		if sched%3 == 2 {
			cfg.Chunks = wrap(chunks, 4)
			res, err = RunInterleaved(cfg)
		} else {
			res, err = Run(Config{
				Stages: cfg.Stages, Microbatches: cfg.Microbatches,
				FwdTime: cfg.FwdTime, BwdTime: cfg.BwdTime, CommTime: cfg.CommTime,
				Schedule: Schedule(sched % 3), KeepTrace: true, StageScale: cfg.StageScale,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSchedule(cfg, res); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}

// wrap maps 1..n to itself and every other byte into that range.
func wrap(x uint8, n int) int { return 1 + (int(x)+n-1)%n }
