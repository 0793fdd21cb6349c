package pipesim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"amped/internal/eventsim"
)

func TestSingleStage(t *testing.T) {
	r, err := Run(Config{Stages: 1, Microbatches: 4, FwdTime: 1, BwdTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 12 {
		t.Errorf("makespan = %v, want 12", r.Makespan)
	}
	if got := r.BubbleFraction(); got != 0 {
		t.Errorf("single-stage bubble = %v, want 0", got)
	}
}

func TestGPipeMatchesClosedForm(t *testing.T) {
	// With zero comm time, the fill-drain makespan is (m+p-1)(f+b) and the
	// bubble fraction is exactly (p-1)/(m+p-1).
	for _, c := range []struct{ p, m int }{{2, 4}, {4, 8}, {8, 32}, {4, 4}, {16, 16}} {
		cfg := Config{Stages: c.p, Microbatches: c.m, FwdTime: 3, BwdTime: 6}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := eventsim.Time(c.m+c.p-1) * 9
		if math.Abs(float64(r.Makespan-want)) > 1e-9 {
			t.Errorf("p=%d m=%d makespan = %v, want %v", c.p, c.m, r.Makespan, want)
		}
		wantBubble := AnalyticBubbleFraction(c.p, c.m)
		if got := r.BubbleFraction(); math.Abs(got-wantBubble) > 1e-9 {
			t.Errorf("p=%d m=%d bubble = %v, want %v", c.p, c.m, got, wantBubble)
		}
	}
}

func TestCommTimeStretchesPipeline(t *testing.T) {
	base, err := Run(Config{Stages: 4, Microbatches: 8, FwdTime: 2, BwdTime: 4})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := Run(Config{Stages: 4, Microbatches: 8, FwdTime: 2, BwdTime: 4, CommTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if comm.Makespan <= base.Makespan {
		t.Errorf("comm time did not stretch makespan: %v vs %v", comm.Makespan, base.Makespan)
	}
}

func TestOneFOneBSameBubbleAsGPipe(t *testing.T) {
	// 1F1B reduces activation memory, not the bubble; with uniform task
	// times the makespans coincide.
	g, err := Run(Config{Stages: 4, Microbatches: 16, FwdTime: 1, BwdTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(Config{Stages: 4, Microbatches: 16, FwdTime: 1, BwdTime: 2, Schedule: OneFOneB})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(g.Makespan-f.Makespan)) > 1e-9 {
		t.Errorf("GPipe %v vs 1F1B %v makespans differ", g.Makespan, f.Makespan)
	}
}

func TestMoreMicrobatchesShrinkBubble(t *testing.T) {
	prev := 1.0
	for _, m := range []int{4, 8, 16, 32, 64} {
		r, err := Run(Config{Stages: 4, Microbatches: m, FwdTime: 1, BwdTime: 2})
		if err != nil {
			t.Fatal(err)
		}
		b := r.BubbleFraction()
		if b >= prev {
			t.Errorf("bubble did not shrink at m=%d: %v >= %v", m, b, prev)
		}
		prev = b
	}
}

func TestGPipeSpeedupShape(t *testing.T) {
	// Table III shape: with m=32, speedup from 2 to 8 GPUs is sub-linear
	// (published 3.3x, AMPeD predicts 3.19x). The simulated schedule must
	// land in that band rather than the linear 4x.
	mk := func(p int) eventsim.Time {
		// Total work fixed: per-stage time shrinks as stages grow.
		r, err := Run(Config{Stages: p, Microbatches: 32,
			FwdTime: eventsim.Time(8.0 / float64(p)), BwdTime: eventsim.Time(16.0 / float64(p))})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
	t2, t8 := mk(2), mk(8)
	speedup := float64(t2) / float64(t8)
	if speedup < 3.0 || speedup > 3.6 {
		t.Errorf("8-vs-2 stage speedup = %.2f, want ~3.3 (sub-linear)", speedup)
	}
}

func TestUtilizationAndTraces(t *testing.T) {
	r, err := Run(Config{Stages: 3, Microbatches: 6, FwdTime: 1, BwdTime: 2, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	u := r.Utilization()
	if len(u) != 3 {
		t.Fatalf("utilization len = %d", len(u))
	}
	for s, v := range u {
		if v <= 0 || v > 1 {
			t.Errorf("stage %d utilization = %v", s, v)
		}
	}
	if len(r.Traces) != 3 {
		t.Fatalf("traces len = %d", len(r.Traces))
	}
	// Every stage executes 2m tasks.
	for s, tr := range r.Traces {
		if len(tr) != 12 {
			t.Errorf("stage %d trace has %d intervals, want 12", s, len(tr))
		}
	}
	// First stage starts with F0 at t=0.
	if r.Traces[0][0].Label != "F0" || r.Traces[0][0].Start != 0 {
		t.Errorf("first interval = %+v", r.Traces[0][0])
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Config{
		{Stages: 0, Microbatches: 1, FwdTime: 1},
		{Stages: 1, Microbatches: 0, FwdTime: 1},
		{Stages: 1, Microbatches: 1, FwdTime: -1},
		{Stages: 1, Microbatches: 1},
		{Stages: 1, Microbatches: 1, FwdTime: 1, Schedule: Schedule(9)},
		{Stages: 1, Microbatches: 1, FwdTime: eventsim.Time(math.NaN())},
		{Stages: 1, Microbatches: 1, FwdTime: 1, BwdTime: eventsim.Time(math.Inf(1))},
		{Stages: 1, Microbatches: 1, FwdTime: 1, CommTime: eventsim.Time(math.NaN())},
		{Stages: 2, Microbatches: 1, FwdTime: 1, StageScale: []float64{1, -1}},
		{Stages: 2, Microbatches: 1, FwdTime: 1, StageScale: []float64{math.NaN(), 1}},
		{Stages: 2, Microbatches: 1, FwdTime: 1, StageScale: []float64{1, math.Inf(1)}},
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestSchedulesNeverDeadlock(t *testing.T) {
	f := func(ps, ms uint8, sched bool) bool {
		p := int(ps)%12 + 1
		m := int(ms)%24 + 1
		s := GPipe
		if sched {
			s = OneFOneB
		}
		r, err := Run(Config{Stages: p, Microbatches: m, FwdTime: 1, BwdTime: 2, CommTime: 0.5, Schedule: s})
		if err != nil {
			return false
		}
		// Makespan at least the serial per-stage work and at most the
		// fully-serialized upper bound.
		lower := IdealMakespan(Config{Microbatches: m, FwdTime: 1, BwdTime: 2})
		upper := eventsim.Time(float64(p*m)*3 + float64(2*p*m)*0.5 + 1)
		return r.Makespan >= lower && r.Makespan <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLastStageHighestUtilizationInGPipe(t *testing.T) {
	// Fig. 1 shape: during fill-drain the middle of the pipeline idles
	// symmetrically; every stage has equal busy time, so utilization is
	// equal too (makespan shared). This distinguishes the simulator from a
	// naive "stage 0 does everything" bug.
	r, err := Run(Config{Stages: 4, Microbatches: 8, FwdTime: 1, BwdTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := r.Utilization()
	for s := 1; s < len(u); s++ {
		if math.Abs(u[s]-u[0]) > 1e-9 {
			t.Errorf("unequal stage utilizations: %v", u)
		}
	}
}

func TestScheduleString(t *testing.T) {
	if GPipe.String() != "gpipe" || OneFOneB.String() != "1f1b" {
		t.Error("schedule names wrong")
	}
	if Schedule(9).String() == "" {
		t.Error("unknown schedule renders empty")
	}
}

func TestAnalyticBubbleEdge(t *testing.T) {
	if got := AnalyticBubbleFraction(1, 10); got != 0 {
		t.Errorf("p=1 bubble = %v", got)
	}
	if got := AnalyticBubbleFraction(8, 32); math.Abs(got-7.0/39) > 1e-12 {
		t.Errorf("bubble = %v, want 7/39", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r, err := Run(Config{Stages: 2, Microbatches: 3, FwdTime: 1, BwdTime: 2, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// 2 stages x (3 fwd + 3 bwd) tasks.
	if len(events) != 12 {
		t.Fatalf("events = %d, want 12", len(events))
	}
	cats := map[string]int{}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Errorf("phase = %v", e["ph"])
		}
		if e["dur"].(float64) <= 0 {
			t.Errorf("non-positive duration in %v", e)
		}
		cats[e["cat"].(string)]++
	}
	if cats["forward"] != 6 || cats["backward"] != 6 {
		t.Errorf("categories = %v", cats)
	}
	// No traces -> explicit error.
	bare, err := Run(Config{Stages: 2, Microbatches: 3, FwdTime: 1, BwdTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.WriteChromeTrace(&buf); err == nil {
		t.Error("traceless result accepted")
	}
}
