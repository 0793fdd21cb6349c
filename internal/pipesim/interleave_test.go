package pipesim

import (
	"math"
	"testing"
	"testing/quick"

	"amped/internal/eventsim"
)

func TestInterleavedReducesToGPipe(t *testing.T) {
	// Chunks=1 must produce exactly the plain GPipe makespan.
	plain, err := Run(Config{Stages: 4, Microbatches: 8, FwdTime: 2, BwdTime: 4, CommTime: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := RunInterleaved(InterleavedConfig{
		Stages: 4, Chunks: 1, Microbatches: 8, FwdTime: 2, BwdTime: 4, CommTime: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(plain.Makespan-inter.Makespan)) > 1e-9 {
		t.Errorf("chunks=1 makespan %v != GPipe %v", inter.Makespan, plain.Makespan)
	}
}

func TestInterleavingShrinksBubble(t *testing.T) {
	// Megatron's interleaved-schedule result: bubble shrinks ~1/v.
	prev := math.Inf(1)
	for _, v := range []int{1, 2, 4} {
		res, err := RunInterleaved(InterleavedConfig{
			Stages: 4, Chunks: v, Microbatches: 16, FwdTime: 4, BwdTime: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		ideal := eventsim.Time(16 * 12)
		bubble := float64(res.Makespan - ideal)
		if bubble >= prev {
			t.Errorf("v=%d bubble %v not below previous %v", v, bubble, prev)
		}
		prev = bubble
	}
}

func TestInterleavedBubbleClosedForm(t *testing.T) {
	// Zero comm, uniform tasks: makespan = ideal + (p-1)(f+b)/v — the
	// (p-1)/(v·m) bubble of the interleaved fill-drain schedule.
	for _, c := range []struct{ p, v, m int }{{2, 2, 8}, {4, 2, 16}, {4, 4, 16}, {8, 2, 32}} {
		res, err := RunInterleaved(InterleavedConfig{
			Stages: c.p, Chunks: c.v, Microbatches: c.m, FwdTime: 3, BwdTime: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := eventsim.Time(c.m*9) + eventsim.Time(c.p-1)*9/eventsim.Time(c.v)
		if math.Abs(float64(res.Makespan-want)) > 1e-9 {
			t.Errorf("p=%d v=%d m=%d makespan %v, want %v", c.p, c.v, c.m, res.Makespan, want)
		}
	}
}

func TestEstimateR(t *testing.T) {
	// R for a v-chunk schedule is ~1/v with zero comm.
	for _, v := range []int{1, 2, 4} {
		r, err := EstimateR(8, 32, v, 2, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-1/float64(v)) > 0.01 {
			t.Errorf("EstimateR(v=%d) = %v, want ~%v", v, r, 1/float64(v))
		}
	}
	// Comm hops erode but do not erase the benefit.
	r, err := EstimateR(8, 32, 4, 2, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0.25 || r >= 1 {
		t.Errorf("EstimateR with comm = %v, want in (0.25, 1)", r)
	}
}

func TestEstimateRErrors(t *testing.T) {
	if _, err := EstimateR(1, 8, 2, 1, 2, 0); err == nil {
		t.Error("single-stage R estimate accepted")
	}
	if _, err := EstimateR(0, 8, 2, 1, 2, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestInterleavedValidate(t *testing.T) {
	bad := []InterleavedConfig{
		{Stages: 0, Chunks: 1, Microbatches: 1, FwdTime: 1},
		{Stages: 1, Chunks: 0, Microbatches: 1, FwdTime: 1},
		{Stages: 1, Chunks: 1, Microbatches: 0, FwdTime: 1},
		{Stages: 1, Chunks: 1, Microbatches: 1, FwdTime: -1},
		{Stages: 1, Chunks: 1, Microbatches: 1},
		{Stages: 1, Chunks: 1, Microbatches: 1, FwdTime: eventsim.Time(math.Inf(1))},
		{Stages: 1, Chunks: 1, Microbatches: 1, FwdTime: 1, CommTime: eventsim.Time(math.NaN())},
		{Stages: 2, Chunks: 2, Microbatches: 1, FwdTime: 1, StageScale: []float64{math.Inf(1), 1}},
	}
	for i, c := range bad {
		if _, err := RunInterleaved(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestInterleavedConservesWork(t *testing.T) {
	// Total busy time is invariant under chunking.
	f := func(ps, vs, ms uint8) bool {
		p := int(ps)%6 + 1
		v := int(vs)%4 + 1
		m := int(ms)%12 + 1
		res, err := RunInterleaved(InterleavedConfig{
			Stages: p, Chunks: v, Microbatches: m, FwdTime: 3, BwdTime: 6, CommTime: 0.25,
		})
		if err != nil {
			return false
		}
		var busy eventsim.Time
		for _, b := range res.StageBusy {
			busy += b
		}
		want := eventsim.Time(p*m) * 9
		return math.Abs(float64(busy-want)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedTraceLabels(t *testing.T) {
	res, err := RunInterleaved(InterleavedConfig{
		Stages: 2, Chunks: 2, Microbatches: 2, FwdTime: 2, BwdTime: 4, KeepTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	// Every stage executes 2·v·m = 8 tasks; the first is F0.0 on stage 0.
	if got := len(res.Traces[0]); got != 8 {
		t.Errorf("stage 0 executed %d tasks, want 8", got)
	}
	if res.Traces[0][0].Label != "F0.0" {
		t.Errorf("first task = %q", res.Traces[0][0].Label)
	}
}
