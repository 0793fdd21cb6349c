package obs

import (
	"context"
	"regexp"
	"testing"
	"time"
)

func TestTraceRecordsSpansInOrder(t *testing.T) {
	tr := NewTrace()
	s1 := tr.StartSpan(PhaseDecode)
	s1.End()
	s2 := tr.StartSpan(PhaseEvaluate)
	time.Sleep(time.Millisecond)
	s2.End()
	s3 := tr.StartSpan(PhaseEncode)
	s3.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wantPhases := []Phase{PhaseDecode, PhaseEvaluate, PhaseEncode}
	for i, sp := range spans {
		if sp.Phase != wantPhases[i] {
			t.Errorf("span %d phase = %v, want %v", i, sp.Phase, wantPhases[i])
		}
		if sp.Dur < 0 {
			t.Errorf("span %d negative duration %v", i, sp.Dur)
		}
	}
	if spans[1].Dur < time.Millisecond {
		t.Errorf("evaluate span %v, want >= 1ms", spans[1].Dur)
	}
	if spans[0].Start > spans[1].Start || spans[1].Start > spans[2].Start {
		t.Errorf("span starts not monotone: %+v", spans)
	}
	if got := tr.PhaseDur(PhaseEvaluate); got != spans[1].Dur {
		t.Errorf("PhaseDur(evaluate) = %v, want %v", got, spans[1].Dur)
	}
}

func TestTraceNilAndOverflowSafe(t *testing.T) {
	var nilTrace *Trace
	sp := nilTrace.StartSpan(PhaseDecode)
	sp.End() // must not panic
	if nilTrace.ID() != "" || len(nilTrace.Spans()) != 0 || nilTrace.PhaseDur(PhaseDecode) != 0 {
		t.Error("nil trace accessors not zero")
	}

	// Alternate phases so coalescing cannot fold the spans together.
	tr := NewTrace()
	for i := 0; i < MaxSpans; i++ {
		s := tr.StartSpan(Phase(i % 2))
		s.End()
	}
	// The last recorded span is Phase(1); overflow with a different phase so
	// coalescing cannot absorb the attempts — they must be counted dropped.
	for i := 0; i < 5; i++ {
		s := tr.StartSpan(PhaseQueue)
		s.End()
	}
	if len(tr.Spans()) != MaxSpans {
		t.Errorf("overflowed trace holds %d spans, want %d", len(tr.Spans()), MaxSpans)
	}
	if tr.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", tr.Dropped())
	}
}

// TestSpanCoalescing pins the hot-path contract: immediately restarting
// the phase that just ended extends the existing span instead of opening a
// new one, so a loop of evaluations records one span whose Count is the
// iteration total and whose duration covers the loop.
func TestSpanCoalescing(t *testing.T) {
	tr := NewTrace()
	const iters = 3*spanSampleEvery + 7
	for i := 0; i < iters; i++ {
		sp := tr.StartSpan(PhaseEvaluate)
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("coalesced loop recorded %d spans, want 1", len(spans))
	}
	if spans[0].Count != iters {
		t.Errorf("coalesced span count = %d, want %d", spans[0].Count, iters)
	}
	if spans[0].Dur <= 0 {
		t.Errorf("coalesced span duration = %v, want > 0 (sampled every %d ends)",
			spans[0].Dur, spanSampleEvery)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tr.Dropped())
	}

	// A different phase breaks the run; returning to the first phase later
	// starts a fresh span rather than resurrecting the old one.
	tr.StartSpan(PhaseEncode).End()
	tr.StartSpan(PhaseEvaluate).End()
	spans = tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans after phase change, want 3", len(spans))
	}
	if spans[1].Phase != PhaseEncode || spans[2].Phase != PhaseEvaluate {
		t.Errorf("span phases = %v, %v; want encode then evaluate", spans[1].Phase, spans[2].Phase)
	}
	if spans[2].Count != 1 {
		t.Errorf("fresh evaluate span count = %d, want 1", spans[2].Count)
	}
}

// TestSpanNestingDoesNotCoalesce: an inner span (compile inside cache)
// must never be folded into its enclosing span, and the enclosing span's
// End still records a duration spanning the inner work.
func TestSpanNestingDoesNotCoalesce(t *testing.T) {
	tr := NewTrace()
	outer := tr.StartSpan(PhaseCache)
	inner := tr.StartSpan(PhaseCompile)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	// A second cache lookup right after: the outer cache span closed most
	// recently in time, but the compile span is the last one recorded, so
	// the contiguity guard must open a fresh span instead of coalescing.
	second := tr.StartSpan(PhaseCache)
	second.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (cache, compile, cache)", len(spans))
	}
	if spans[0].Phase != PhaseCache || spans[1].Phase != PhaseCompile || spans[2].Phase != PhaseCache {
		t.Fatalf("span phases = %+v", spans)
	}
	if spans[0].Dur < time.Millisecond {
		t.Errorf("outer cache span %v, want >= 1ms (must cover the nested compile)", spans[0].Dur)
	}
	if got := tr.PhaseDur(PhaseCache); got != spans[0].Dur+spans[2].Dur {
		t.Errorf("PhaseDur(cache) = %v, want %v", got, spans[0].Dur+spans[2].Dur)
	}
}

// TestSpanHotPathZeroAlloc pins the tentpole's core constraint: recording a
// span on an existing trace performs no heap allocations — on the cold
// open-a-new-span path and on the coalesced repeat path alike.
func TestSpanHotPathZeroAlloc(t *testing.T) {
	tr := NewTrace()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(PhaseEvaluate) // coalesces after the first run
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("coalesced span record allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(PhaseEvaluate)
		sp.End()
		tr.n, tr.closed = 0, -1 // rewind: every run opens a fresh span
	})
	if allocs != 0 {
		t.Fatalf("fresh span record allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRequestIDsUniqueAndWellFormed(t *testing.T) {
	idRe := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{6,}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTrace().ID()
		if !idRe.MatchString(id) {
			t.Fatalf("malformed request ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestContinueTraceAdoptsWellFormedIDs(t *testing.T) {
	minted := NewTrace().ID()
	if got := ContinueTrace(minted).ID(); got != minted {
		t.Errorf("well-formed ID %q not adopted (got %q)", minted, got)
	}
	if id := "0123abcd-ffffffffffffffff"; ContinueTrace(id).ID() != id {
		t.Errorf("16-digit sequence %q not adopted", id)
	}
	for _, id := range []string{
		"", "0123abcd", "0123abcd-12345", "0123abcd-1ffffffffffffffff",
		"0123ABCD-123456", "0123abcd_123456", "0123abc-1234567", "0123abcd-12345g",
		"0123abcd-123456\n", "../../etc/passwd",
	} {
		got := ContinueTrace(id).ID()
		if got == id || !validRequestID(got) {
			t.Errorf("malformed ID %q: trace ID %q, want a freshly minted one", id, got)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context yields a trace")
	}
	if RequestID(context.Background()) != "" {
		t.Error("empty context yields a request ID")
	}
	tr := NewTrace()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace not recovered from context")
	}
	if RequestID(ctx) != tr.ID() {
		t.Error("request ID not recovered from context")
	}
	// Derived contexts (the request-timeout child the sweep receives)
	// still carry the trace.
	child, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	if FromContext(child) != tr {
		t.Error("trace lost on derived context")
	}
}

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseQueue: "queue", PhaseDecode: "decode", PhaseCache: "cache",
		PhaseCompile: "compile", PhaseEvaluate: "evaluate",
		PhaseSweep: "sweep", PhaseEncode: "encode",
	}
	if len(want) != NumPhases {
		t.Fatalf("phase table has %d entries, enum has %d", len(want), NumPhases)
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Errorf("out-of-range phase renders %q", got)
	}
}
