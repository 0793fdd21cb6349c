package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amped/internal/config"
	"amped/internal/model"
	"amped/internal/obs"
)

var requestIDRe = regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{6,}$`)

func TestRequestIDOnResponsesAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(evalDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	okID := resp.Header.Get("X-Request-Id")
	if !requestIDRe.MatchString(okID) {
		t.Fatalf("X-Request-Id = %q, want a well-formed ID", okID)
	}

	// Error responses carry the same ID in the JSON envelope, so a client
	// report can be joined against server logs without header scraping.
	resp, err = http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	errID := resp.Header.Get("X-Request-Id")
	if envelope.Error == "" || envelope.RequestID != errID || !requestIDRe.MatchString(errID) {
		t.Fatalf("error envelope = %+v, header ID = %q; want matching IDs", envelope, errID)
	}
	if errID == okID {
		t.Fatal("two requests shared one request ID")
	}
}

// TestShardRequestsCarryCoordinatorRequestID: a coordinator forwards its
// request ID on every shard request, and the peer traces the shard under
// it, so one ID joins the request's records across the fleet.
func TestShardRequestsCarryCoordinatorRequestID(t *testing.T) {
	peers, _, coordURL := newPeerFleet(t, 1)
	resp, err := http.Post(coordURL+"/v1/sweep", "application/json", strings.NewReader(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusOK || !requestIDRe.MatchString(id) {
		t.Fatalf("coordinator sweep = %d with X-Request-Id %q", resp.StatusCode, id)
	}
	// The peer records its trace after its handler returns, which can be
	// after the coordinator has answered.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		shards := 0
		for _, snap := range peers[0].ring.Last(traceRingSize) {
			if snap.Handler != "sweep_shard" {
				continue
			}
			shards++
			if snap.ID != id {
				t.Fatalf("peer traced a shard as %q, want the coordinator's %q", snap.ID, id)
			}
		}
		if shards > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("peer recorded no sweep_shard trace")
		}
	}
}

func TestDebugTraceAndPprof(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	dbg := httptest.NewServer(srv.DebugHandler())
	t.Cleanup(dbg.Close)

	// One evaluate, one sweep: both traced, newest first.
	post(t, ts.URL+"/v1/evaluate", evalDoc)
	post(t, ts.URL+"/v1/sweep", sweepDoc)

	code, body := get(t, dbg.URL+"/debug/trace?last=10")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d %s", code, body)
	}
	var out struct {
		TotalTraced uint64         `json:"total_traced"`
		Traces      []obs.Snapshot `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalTraced != 2 || len(out.Traces) != 2 {
		t.Fatalf("trace ring = %d total, %d returned, want 2/2:\n%s", out.TotalTraced, len(out.Traces), body)
	}
	if out.Traces[0].Handler != "sweep" || out.Traces[1].Handler != "evaluate" {
		t.Fatalf("traces not newest-first: %q then %q", out.Traces[0].Handler, out.Traces[1].Handler)
	}
	phases := map[string]bool{}
	for _, sp := range out.Traces[0].Spans {
		phases[sp.Phase] = true
	}
	for _, want := range []string{"queue", "decode", "cache", "sweep", "encode"} {
		if !phases[want] {
			t.Errorf("sweep trace missing %q span: %+v", want, out.Traces[0].Spans)
		}
	}
	if !requestIDRe.MatchString(out.Traces[0].ID) {
		t.Errorf("trace request ID = %q", out.Traces[0].ID)
	}

	if code, _ := get(t, dbg.URL+"/debug/trace?last=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad last param = %d, want 400", code)
	}
	if code, _ := get(t, dbg.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}
	// The production handler must NOT expose the debug surface.
	if code, _ := get(t, ts.URL+"/debug/trace"); code != http.StatusNotFound {
		t.Errorf("main handler serves /debug/trace; want 404")
	}
}

func TestRetryAfterDerivedFromServiceTime(t *testing.T) {
	srv := New(Config{MaxInFlight: 2})
	// No observed service time yet: conservative 1s.
	if got := srv.retryAfter(); got != "1" {
		t.Errorf("cold retryAfter = %q, want 1", got)
	}
	// 8s EWMA over 2 slots, empty queue: ceil(8 * 1 / 2) = 4.
	srv.ewmaSvcNanos.Store(int64(8 * time.Second))
	if got := srv.retryAfter(); got != "4" {
		t.Errorf("retryAfter = %q, want 4", got)
	}
	// Clamped at 60.
	srv.ewmaSvcNanos.Store(int64(1000 * time.Second))
	if got := srv.retryAfter(); got != "60" {
		t.Errorf("huge retryAfter = %q, want 60", got)
	}
	// Sub-second estimates round up to 1, never 0.
	srv.ewmaSvcNanos.Store(int64(time.Millisecond))
	if got := srv.retryAfter(); got != "1" {
		t.Errorf("tiny retryAfter = %q, want 1", got)
	}
}

func TestRetryAfterHeaderUsesEstimate(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	srv.ewmaSvcNanos.Store(int64(5 * time.Second))
	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.lim.release()
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(evalDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated evaluate = %d, want 429", resp.StatusCode)
	}
	// EWMA 5s, one slot, empty queue: ceil(5 * 1 / 1) = 5 — the observed
	// service time, not the old hardcoded "1".
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want 5 (derived from EWMA)", got)
	}
}

// gateEff lets the first `fast` efficiency evaluations through instantly,
// then makes every later one slow — so a deadline-bound sweep completes a
// prefix of its points and must hand them back as partial content.
type gateEff struct {
	fast  int64
	delay time.Duration
	n     *int64
}

func (g gateEff) Eff(float64) float64 {
	if atomic.AddInt64(g.n, 1) > g.fast {
		time.Sleep(g.delay)
	}
	return 0.5
}

// plantSweepSession compiles the sweepDoc scenario with the given
// efficiency model and plants it under the scenario's canonical key, so
// /v1/sweep for sweepDoc uses it (the poisonCache pattern).
func plantSweepSession(t *testing.T, srv *Server, eff gateEff) {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(sweepDoc), &req); err != nil {
		t.Fatal(err)
	}
	doc := config.Document{Model: req.Model, System: req.System, Training: req.Training}
	comp, err := doc.Components()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := model.Compile(&comp.Model, &comp.System, comp.Training, eff)
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.put(comp.Key(), sess)
}

// TestSweepDeadlinePartialContent is the regression test for the empty-504
// bug: a sweep whose deadline expires after some points completed must
// return those points as 206 Partial Content with partial=true, not
// discard them. (A deadline that fires before anything completes still
// 504s — TestSweepTimeout.)
func TestSweepDeadlinePartialContent(t *testing.T) {
	// Two sweep workers, deterministically: with unbounded cores a small
	// sweep could finish before the deadline no matter how slow the tail.
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	srv, ts := newTestServer(t, Config{RequestTimeout: 40 * time.Millisecond})
	plantSweepSession(t, srv, gateEff{fast: 4, delay: 25 * time.Millisecond, n: new(int64)})

	code, body := post(t, ts.URL+"/v1/sweep", sweepDoc)
	if code != http.StatusPartialContent {
		t.Fatalf("deadline-bound sweep = %d %s, want 206", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatalf("partial flag not set: %+v", resp)
	}
	if resp.TotalPoints == 0 || resp.Returned == 0 || len(resp.Points) != resp.Returned {
		t.Fatalf("partial sweep accounting inconsistent: %+v", resp)
	}
	if resp.Cache != "hit" {
		t.Errorf("planted session not used: cache = %q", resp.Cache)
	}
	for _, p := range resp.Points {
		if p.Err == "" && p.PerBatchS <= 0 {
			t.Errorf("partial sweep returned an unevaluated point: %+v", p)
		}
	}
}

func TestMetricsObservabilitySeries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/evaluate", evalDoc)
	post(t, ts.URL+"/v1/sweep", sweepDoc)

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE amped_queue_wait_seconds histogram",
		"amped_queue_wait_seconds_count 2",
		"# TYPE amped_phase_duration_seconds histogram",
		`amped_phase_duration_seconds_count{phase="queue"} 2`,
		`amped_phase_duration_seconds_count{phase="decode"} 2`,
		`amped_phase_duration_seconds_count{phase="compile"} 1`,
		`amped_phase_duration_seconds_count{phase="evaluate"} 1`,
		`amped_phase_duration_seconds_count{phase="sweep"} 1`,
		`amped_phase_duration_seconds_count{phase="encode"} 2`,
		"# TYPE amped_sweep_points_per_second histogram",
		"amped_sweep_points_per_second_count 1",
		"# TYPE amped_session_compiles_total counter",
		"# TYPE amped_session_cache_joins_total counter",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
