// Package serve exposes the AMPeD analytical model as a hardened HTTP
// service over PR 1's compiled evaluation sessions: POST /v1/evaluate prices
// one design point, POST /v1/sweep runs a bounded design-space exploration,
// POST /v1/plan returns the optimal cell of the same cell space,
// and GET /healthz and /metrics make the process operable unattended.
//
// The service is stdlib-only and built for unattended operation:
//
//   - an LRU cache of compiled model.Sessions keyed by the canonical
//     scenario hash, with singleflight compilation so concurrent misses for
//     one scenario share a single model.Compile;
//   - a FIFO-fair bounded concurrency limiter with a wait queue — excess
//     load is shed with 429 + a Retry-After derived from observed service
//     time instead of unbounded goroutine pileup;
//   - per-request timeouts threaded as context.Context into the
//     explore.Space executor, which cancels cooperatively at worker-chunk
//     boundaries and hands back the completed points' ranking as an
//     explicit 206;
//   - panic-isolating middleware (one poisoned request cannot take the
//     process down) on top of the sweep engine's own per-point recovery;
//   - request tracing: every request gets an ID (X-Request-Id, log lines,
//     error bodies), evaluation requests record per-phase spans feeding the
//     amped_phase_duration_seconds histograms and a ring of recent traces
//     served by the optional debug handler (DebugHandler).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"amped/internal/obs"
)

// traceRingSize bounds the in-memory ring of recent request traces served
// on /debug/trace.
const traceRingSize = 256

// Config tunes the server. The zero value serves with sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing evaluation requests
	// (default 4). Each sweep itself fans out over GOMAXPROCS workers, so
	// this is a request-level bound, not a core-level one.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot before new arrivals are
	// rejected with 429 (default 16).
	MaxQueue int
	// RequestTimeout caps one evaluation or sweep (default 30s). The
	// timeout is threaded into the sweep engine as a context.
	RequestTimeout time.Duration
	// CacheSize bounds the compiled-session LRU (default 64 scenarios).
	CacheSize int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Peers lists replica base URLs (e.g. "http://host:8080"). When
	// non-empty the server runs /v1/sweep as a coordinator: the sweep's
	// canonical cell enumeration is sharded across the peers'
	// /v1/sweep/shard endpoints and the merged top-N comes back in the
	// usual SweepResponse shape. The list is static; dead or draining
	// peers are routed around per request, not removed.
	Peers []string
	// ShardChunkCells sets the cell count per streamed shard chunk
	// (default 32768). Smaller chunks mean finer resume granularity after
	// a peer failure at the cost of more HTTP framing.
	ShardChunkCells int64
	// JournalDir, when set, makes /v1/sweep/jobs and /v1/plan/jobs durable:
	// every job journals its progress to an append-only CRC-framed file in
	// this directory, and a restarted server replays the directory and
	// resumes interrupted jobs where they stopped. Empty disables
	// durability (jobs still run, but do not survive a restart).
	JournalDir string
	// ProbeInterval is how often the peer manager probes open-breaker
	// peers' /healthz for readmission (default 500ms).
	ProbeInterval time.Duration
	// PeerBackoffBase and PeerBackoffMax bound the per-peer jittered
	// exponential backoff shared across busy/drain/dead outcomes
	// (defaults 100ms and 5s).
	PeerBackoffBase time.Duration
	PeerBackoffMax  time.Duration
	// StallBudget is how long a sharded sweep may go without any durable
	// progress — no live peers, or live peers delivering nothing — before
	// it fails with a classified error instead of spinning (default 10s).
	StallBudget time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.PeerBackoffBase <= 0 {
		c.PeerBackoffBase = 100 * time.Millisecond
	}
	if c.PeerBackoffMax <= 0 {
		c.PeerBackoffMax = 5 * time.Second
	}
	if c.StallBudget <= 0 {
		c.StallBudget = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the evaluation service. Create one with New and mount
// Handler() on an http.Server.
type Server struct {
	cfg      Config
	cache    *sessionCache
	lim      *limiter
	met      *metrics
	ring     *obs.Ring
	mux      *http.ServeMux
	log      *log.Logger
	draining atomic.Bool

	// peers is the self-healing view of the replica fleet (nil without
	// configured peers); jobs owns the durable sweep/plan jobs.
	peers *peerManager
	jobs  *jobManager

	// shardClient carries coordinator → peer shard requests. Streaming
	// responses are paced by evaluation, so it deliberately has no overall
	// timeout; cancellation rides the request context.
	shardClient *http.Client

	// ewmaSvcNanos is an exponentially weighted moving average of
	// evaluation-request service time, feeding the Retry-After estimate.
	ewmaSvcNanos atomic.Int64
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newSessionCache(cfg.CacheSize),
		lim:   newLimiter(cfg.MaxInFlight, cfg.MaxQueue),
		met:   newMetrics(),
		ring:  obs.NewRing(traceRingSize),
		mux:   http.NewServeMux(),
		log:   cfg.Logger,

		shardClient: &http.Client{},
	}
	s.cache.evicted = s.met.cacheEvicted.inc
	s.met.gauges = func() (int, int, int) {
		inFlight, queued := s.lim.depth()
		return inFlight, queued, s.cache.len()
	}
	s.mux.HandleFunc("/healthz", s.wrap("healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.wrap("metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/evaluate", s.wrap("evaluate", s.handleEvaluate))
	s.mux.HandleFunc("/v1/infer", s.wrap("infer", s.handleInfer))
	s.mux.HandleFunc("/v1/sweep", s.wrap("sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/sweep/shard", s.wrap("sweep_shard", s.handleSweepShard))
	s.mux.HandleFunc("/v1/plan", s.wrap("plan", s.handlePlan))
	s.mux.HandleFunc("POST /v1/sweep/jobs", s.wrap("sweep_jobs", s.handleSweepJobCreate))
	s.mux.HandleFunc("POST /v1/plan/jobs", s.wrap("plan_jobs", s.handlePlanJobCreate))
	s.mux.HandleFunc("GET /v1/jobs", s.wrap("jobs", s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.wrap("jobs", s.handleJobGet))

	if len(cfg.Peers) > 0 {
		s.peers = newPeerManager(cfg.Peers, cfg.PeerBackoffBase, cfg.PeerBackoffMax,
			cfg.ProbeInterval, s.shardClient, s.log)
		s.met.peerRows = s.peers.stateRows
	}
	s.jobs = newJobManager(s)
	s.jobs.recover()
	return s
}

// Close stops the server's background machinery — the peer prober and every
// running job. Jobs with a journal write a resumable suspend record; the
// call blocks until all runners have stopped. Use after http.Server.Shutdown.
func (s *Server) Close() {
	s.jobs.suspendAll()
	if s.peers != nil {
		s.peers.stop()
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips the server into draining mode: /healthz starts
// failing (so load balancers stop routing here) and new evaluation work is
// refused with 503 while in-flight requests run to completion under
// http.Server.Shutdown. Running jobs are cancelled with the suspend cause;
// each flushes a resumable suspend record to its journal on the way out
// (Close waits for them).
func (s *Server) StartDraining() {
	s.draining.Store(true)
	if s.jobs != nil {
		s.jobs.beginSuspend()
	}
}

// Draining reports whether the server is shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter records the status code and byte count for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// wrap is the middleware stack shared by every route: request tracing
// (ID + per-phase spans), panic isolation, request metrics (counter by
// handler/code, latency and phase histograms) and one structured log line
// per request. The trace rides the request context, so the sweep engine and
// error paths see the same request ID the client got in X-Request-Id.
func (s *Server) wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	evaluation := name == "evaluate" || name == "infer" || name == "sweep" || name == "sweep_shard" || name == "plan"
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace()
		w.Header().Set("X-Request-Id", tr.ID())
		r = r.WithContext(obs.NewContext(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.inc()
				s.log.Printf("level=error handler=%s request_id=%s panic=%q stack=%q",
					name, tr.ID(), fmt.Sprint(rec), debug.Stack())
				if sw.status == 0 {
					s.error(sw, r, http.StatusInternalServerError,
						fmt.Sprintf("internal error: %v", rec))
				}
			}
			dur := time.Since(start)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			s.met.requests.inc(fmt.Sprintf("handler=%q,code=%q", name, fmt.Sprint(sw.status)))
			if evaluation {
				s.met.latency.Observe(dur.Seconds())
				s.met.observeTrace(tr)
				s.observeService(dur)
				s.ring.Add(tr.Snapshot(name, sw.status))
			}
			s.log.Printf("level=info handler=%s method=%s path=%s status=%d dur_ms=%.3f bytes=%d request_id=%s",
				name, r.Method, r.URL.Path, sw.status, float64(dur.Microseconds())/1000, sw.bytes, tr.ID())
		}()
		h(sw, r)
	}
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers drain traffic ahead of shutdown. Like the limiter's 429s, the
// 503 carries a Retry-After hint so pollers back off for a meaningful
// interval instead of hammering a server that is going away.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeTo(w)
}

// admit runs the shared admission control for evaluation endpoints:
// draining check, then the bounded limiter. The wait is recorded as the
// request's queue phase and the amped_queue_wait_seconds histogram. It
// returns false after writing the refusal when the request cannot proceed;
// on true the caller must defer s.lim.release().
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.error(w, r, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.error(w, r, http.StatusServiceUnavailable, "server draining")
		return false
	}
	sp := obs.FromContext(r.Context()).StartSpan(obs.PhaseQueue)
	qStart := time.Now()
	err := s.lim.acquire(r.Context())
	sp.End()
	if err != nil {
		if err == errBusy {
			s.met.rejected.inc()
			w.Header().Set("Retry-After", s.retryAfter())
			s.error(w, r, http.StatusTooManyRequests, "at capacity; retry later")
		} else {
			// The client went away while queued.
			s.error(w, r, statusForContextErr(err), "request abandoned while queued: "+err.Error())
		}
		return false
	}
	s.met.queueWait.Observe(time.Since(qStart).Seconds())
	return true
}

// observeService folds one evaluation request's service time into the EWMA
// (alpha = 0.3) behind the Retry-After estimate.
func (s *Server) observeService(d time.Duration) {
	if d <= 0 {
		d = 1
	}
	for {
		old := s.ewmaSvcNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)*3/10
		}
		if s.ewmaSvcNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates when a shed request is worth retrying: the observed
// EWMA service time times the work ahead of a fresh arrival (the queue plus
// its own slot), spread over the active slots. Before the first completed
// request there is no observation, so fall back to 1s. Clamped to [1, 60]
// whole seconds — Retry-After is a coarse hint, not a schedule.
func (s *Server) retryAfter() string {
	ewma := s.ewmaSvcNanos.Load()
	if ewma <= 0 {
		return "1"
	}
	_, queued := s.lim.depth()
	est := time.Duration(ewma * int64(queued+1) / int64(s.cfg.MaxInFlight))
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

// statusForContextErr maps a context error to a response status: 504 for a
// deadline, 503 for a client cancel (the body rarely reaches anyone, but
// the log line and metric keep the taxonomy honest).
func statusForContextErr(err error) int {
	if err == nil {
		return http.StatusOK
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// error writes the uniform JSON error envelope. The request ID rides along
// so a client-side error report can be joined against the server's logs and
// the /debug/trace ring without scraping headers.
func (s *Server) error(w http.ResponseWriter, r *http.Request, status int, msg string) {
	body := map[string]string{"error": msg}
	if id := obs.RequestID(r.Context()); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, status, body)
}
