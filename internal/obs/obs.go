// Package obs is the evaluation pipeline's observability layer: a
// stdlib-only span/trace API sized for the serving hot path, a ring buffer
// of recent request traces (the /debug/trace endpoint), and a fixed-bucket
// Prometheus-text histogram with exact cumulative-bucket semantics.
//
// Design constraints, in order:
//
//   - Zero allocations on the hot path. A Trace owns a fixed-capacity span
//     array; StartSpan/End are two time reads and a few stores. The only
//     allocations are one Trace per request (cold, at admission) and the
//     Snapshot taken after the response is written (cold, bounded by the
//     ring size).
//   - One goroutine per trace. A Trace is owned by its request goroutine;
//     it is NOT safe for concurrent span recording. Cross-goroutine work
//     (a sweep's worker pool) reports through its own counters
//     (explore.Progress), not through spans.
//   - Context propagation, not parameter threading. The request ID and
//     trace ride the request context through every layer that already
//     takes a context (the limiter, explore.SweepContext), so deep layers
//     need no API change to be attributable.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of a request's lifecycle. The set is closed on
// purpose: a fixed enum keeps per-phase metric lookup an array index and
// the span records a single byte.
type Phase uint8

const (
	// PhaseQueue is time spent waiting for a limiter slot before execution.
	PhaseQueue Phase = iota
	// PhaseDecode covers body read, JSON parse and scenario resolution.
	PhaseDecode
	// PhaseCache is the compiled-session cache lookup (including, for
	// requests that join an in-flight compile, the wait for its result).
	PhaseCache
	// PhaseCompile is a model.Compile run. Exactly one concurrent request
	// per scenario records this phase; the others wait in PhaseCache.
	PhaseCompile
	// PhaseEvaluate is a single-point Session.Evaluate.
	PhaseEvaluate
	// PhaseSweep is a design-space sweep (an explore.Space run).
	PhaseSweep
	// PhaseEncode is response serialization and write.
	PhaseEncode

	// NumPhases bounds the enum for array-indexed per-phase metrics.
	NumPhases = int(PhaseEncode) + 1
)

var phaseNames = [NumPhases]string{
	"queue", "decode", "cache", "compile", "evaluate", "sweep", "encode",
}

// String returns the phase's stable wire name (used as the Prometheus
// label value and the /debug/trace field).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Span is one recorded phase: its offset from the trace start and its
// duration. A zero Dur with a nonzero Start marks a span that never ended
// (the request panicked or is still running). Count is the number of
// operations coalesced into the span (see StartSpan); it is at least 1.
type Span struct {
	Phase Phase
	Start time.Duration
	Dur   time.Duration
	Count int
}

// spanSampleEvery is the clock-read sampling period for coalesced spans: a
// reopened span refreshes its duration on every Nth End instead of every
// one, so a tight loop of same-phase spans (a sweep evaluating thousands
// of points) pays one clock read per N operations rather than two per
// operation. The reported duration can lag the true end of the span by at
// most N-1 operations — nanoseconds of error on millisecond spans.
const spanSampleEvery = 16

// MaxSpans bounds the spans one trace can hold. Requests record well under
// ten phases; overflow spans are dropped (counted in Dropped) rather than
// allocated.
const MaxSpans = 16

// Trace records one request's phase timeline. Create with NewTrace; owned
// by a single goroutine.
type Trace struct {
	id      string
	start   time.Time
	n       int
	closed  int // index of the span End closed most recently, -1 if none
	dropped int
	spans   [MaxSpans]Span
}

// traceEpoch is a per-process random prefix so request IDs from different
// processes (or restarts) never collide in aggregated logs.
var traceEpoch = func() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint32(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint32(b[:])
}()

var traceSeq atomic.Uint64

// NewTrace starts a trace with a fresh process-unique request ID.
func NewTrace() *Trace {
	return startTrace(fmt.Sprintf("%08x-%06x", traceEpoch, traceSeq.Add(1)))
}

// ContinueTrace starts a trace that carries on a caller's request: under
// id when it is a well-formed request ID (validRequestID), so a peer's
// trace of a coordinator's shard shares the coordinator's ID, and under a
// fresh one otherwise.
func ContinueTrace(id string) *Trace {
	if !validRequestID(id) {
		return NewTrace()
	}
	return startTrace(id)
}

func startTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now(), closed: -1}
}

// validRequestID reports whether id has the form NewTrace mints: 8
// lowercase hex digits, a dash, and 6 to 16 lowercase hex digits (a
// sequence number is a uint64).
func validRequestID(id string) bool {
	if len(id) < 8+1+6 || len(id) > 8+1+16 || id[8] != '-' {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; i != 8 && (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ID returns the request ID ("ppppppppp-nnnnnn": process prefix, sequence).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// ActiveSpan is a started, not-yet-ended span. The zero value (returned
// for nil or full traces) is a no-op, so call sites never branch.
type ActiveSpan struct {
	t         *Trace
	idx       int32
	coalesced bool
}

// StartSpan opens a span for the phase. Zero-alloc; safe on a nil trace.
//
// Starting the same phase again immediately after ending it does not open
// a new span: it reopens the previous one and bumps its Count, with the
// clock sampled every spanSampleEvery-th End. A loop wrapping each of its
// iterations in a span therefore records one coalesced span covering the
// loop and pays ~1/spanSampleEvery clock reads per iteration — cheap
// enough to leave enabled on the evaluation hot path.
func (t *Trace) StartSpan(p Phase) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	if idx := t.n - 1; idx >= 0 && t.closed == idx && t.spans[idx].Phase == p {
		t.spans[idx].Count++
		t.closed = -1
		return ActiveSpan{t: t, idx: int32(idx), coalesced: true}
	}
	if t.n >= MaxSpans {
		t.dropped++
		return ActiveSpan{}
	}
	idx := t.n
	t.n++
	t.closed = -1
	t.spans[idx] = Span{Phase: p, Start: time.Since(t.start), Count: 1}
	return ActiveSpan{t: t, idx: int32(idx)}
}

// End closes the span, recording its duration. No-op on the zero value.
// Ends of a coalesced span only sample the clock periodically; the span's
// duration may lag the final operation by up to spanSampleEvery-1
// iterations of the coalesced loop.
func (s ActiveSpan) End() {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	s.t.closed = int(s.idx)
	if s.coalesced && sp.Count%spanSampleEvery != 0 {
		return
	}
	sp.Dur = time.Since(s.t.start) - sp.Start
}

// Spans returns the recorded spans in start order. The returned slice
// aliases the trace's storage; callers must not retain it past the trace's
// request.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans[:t.n]
}

// Dropped reports spans discarded because the trace was full.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// PhaseDur sums the recorded durations of one phase (a request can record
// a phase more than once, e.g. decode before and after admission).
func (t *Trace) PhaseDur(p Phase) time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for i := 0; i < t.n; i++ {
		if t.spans[i].Phase == p {
			d += t.spans[i].Dur
		}
	}
	return d
}

// ctxKey is the context key type for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying the trace; the request ID and phase
// timeline then flow through every context-taking layer (the limiter,
// explore.SweepContext) without API changes.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. All Trace methods
// and StartSpan tolerate nil, so callers use the result unconditionally.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string { return FromContext(ctx).ID() }
