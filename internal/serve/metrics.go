package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"amped/internal/obs"
)

// counter is a monotonically increasing metric.
type counter struct{ v atomic.Uint64 }

func (c *counter) inc()          { c.v.Add(1) }
func (c *counter) add(n uint64)  { c.v.Add(n) }
func (c *counter) value() uint64 { return c.v.Load() }

// counterVec is a counter family keyed by one label combination string
// (pre-rendered `name="value",...`). The label space here is tiny (handler ×
// status code), so a mutex-guarded map is simpler than sharding.
type counterVec struct {
	mu sync.Mutex
	m  map[string]*counter
}

func newCounterVec() *counterVec { return &counterVec{m: make(map[string]*counter)} }

func (v *counterVec) inc(labels string) {
	v.mu.Lock()
	c, ok := v.m[labels]
	if !ok {
		c = &counter{}
		v.m[labels] = c
	}
	v.mu.Unlock()
	c.inc()
}

// snapshot returns the label sets in sorted order for stable exposition.
func (v *counterVec) snapshot() ([]string, []uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = v.m[k].value()
	}
	return keys, vals
}

// histVec is a histogram family keyed by one pre-rendered label string.
// Like counterVec, the label space is small (one series per configured
// peer), so a mutex-guarded map suffices.
type histVec struct {
	mu      sync.Mutex
	m       map[string]*obs.Histogram
	buckets []float64
}

func newHistVec(buckets []float64) *histVec {
	return &histVec{m: make(map[string]*obs.Histogram), buckets: buckets}
}

func (v *histVec) observe(labels string, x float64) {
	v.mu.Lock()
	h, ok := v.m[labels]
	if !ok {
		h = obs.NewHistogram(v.buckets...)
		v.m[labels] = h
	}
	v.mu.Unlock()
	h.Observe(x)
}

// writeTo renders every series, sorted by label for stable exposition.
func (v *histVec) writeTo(w io.Writer, name string) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	hists := make([]*obs.Histogram, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		hists[i] = v.m[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		hists[i].Write(w, name, k)
	}
}

// Histogram bucket boundaries. Request latency and the per-phase split
// share one grid so a phase can be read against the whole request; queue
// wait gets a finer low end (an uncontended acquire is sub-microsecond);
// sweep throughput is points/second of analytical evaluation, which spans
// ~1e3 (deep scenarios, cold caches) to ~1e8 (hot O(1) re-evaluation).
var (
	latencyBuckets   = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	phaseBuckets     = []float64{1e-5, 1e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}
	queueBuckets     = []float64{1e-5, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	sweepRateBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
)

// metrics is the server's observability surface, exposed in Prometheus text
// format on /metrics. Gauges that mirror live structures (in-flight, queue
// depth, cache size) are sampled at exposition time via callbacks.
type metrics struct {
	requests     *counterVec // amped_requests_total{handler,code}
	panics       counter     // amped_panics_recovered_total
	rejected     counter     // amped_requests_rejected_total
	cacheHits    counter     // amped_session_cache_hits_total
	cacheMisses  counter     // amped_session_cache_misses_total
	cacheJoins   counter     // amped_session_cache_joins_total
	cacheEvicted counter     // amped_session_cache_evictions_total
	compiles     counter     // amped_session_compiles_total
	sweepPoints  counter     // amped_sweep_points_total

	// Coordinator-side shard fan-out counters: every dispatch by peer and
	// outcome, plus retries (failed/busy/partial dispatches requeued),
	// reroutes (shards moved off a draining peer onto survivors) and
	// duplicate chunks (replayed cursor ranges dropped at the merge).
	shards          *counterVec // amped_shards_total{peer,outcome}
	shardRetries    counter     // amped_shard_retries_total
	shardReroutes   counter     // amped_shard_reroutes_total
	shardDuplicates counter     // amped_shard_duplicate_chunks_total

	// Resilience-layer counters: jobs resumed from their journal after a
	// restart, and bytes durably appended to job journals.
	jobResumes   counter // amped_job_resumes_total
	journalBytes counter // amped_journal_bytes_total

	latency      *obs.Histogram                // amped_request_duration_seconds
	queueWait    *obs.Histogram                // amped_queue_wait_seconds
	sweepRate    *obs.Histogram                // amped_sweep_points_per_second
	shardLatency *histVec                      // amped_shard_latency_seconds{peer}
	phases       [obs.NumPhases]*obs.Histogram // amped_phase_duration_seconds{phase}

	// gauges reads live values: in-flight requests, queue depth, cached
	// sessions. Set once at server construction.
	gauges func() (inFlight, queueDepth, cachedSessions int)

	// peerRows samples every peer's breaker state for amped_peer_state;
	// nil when no peers are configured.
	peerRows func() []peerStateRow
}

func newMetrics() *metrics {
	m := &metrics{
		requests:     newCounterVec(),
		shards:       newCounterVec(),
		latency:      obs.NewHistogram(latencyBuckets...),
		queueWait:    obs.NewHistogram(queueBuckets...),
		sweepRate:    obs.NewHistogram(sweepRateBuckets...),
		shardLatency: newHistVec(latencyBuckets),
		gauges:       func() (int, int, int) { return 0, 0, 0 },
	}
	for p := range m.phases {
		m.phases[p] = obs.NewHistogram(phaseBuckets...)
	}
	return m
}

// observeTrace folds a finished request trace into the per-phase latency
// histograms.
func (m *metrics) observeTrace(tr *obs.Trace) {
	for _, sp := range tr.Spans() {
		if int(sp.Phase) < len(m.phases) {
			m.phases[sp.Phase].Observe(sp.Dur.Seconds())
		}
	}
}

// cacheStatus tallies one session resolution by its getOrCompile status.
func (m *metrics) cacheStatus(status string) {
	switch status {
	case "hit":
		m.cacheHits.inc()
	case "miss":
		m.cacheMisses.inc()
	case "join":
		m.cacheJoins.inc()
	}
}

// writeTo renders the Prometheus text exposition (format version 0.0.4).
func (m *metrics) writeTo(w io.Writer) {
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	inFlight, queueDepth, cached := m.gauges()
	g := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	hist := func(name, help string, h *obs.Histogram) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		h.Write(w, name, "")
	}

	fmt.Fprintf(w, "# HELP amped_requests_total Requests served, by handler and status code.\n")
	fmt.Fprintf(w, "# TYPE amped_requests_total counter\n")
	labels, vals := m.requests.snapshot()
	for i, l := range labels {
		fmt.Fprintf(w, "amped_requests_total{%s} %d\n", l, vals[i])
	}

	c("amped_requests_rejected_total", "Requests rejected with 429 by the backpressure limiter.", m.rejected.value())
	c("amped_panics_recovered_total", "Handler panics recovered by the isolation middleware.", m.panics.value())
	c("amped_session_cache_hits_total", "Compiled-session cache hits.", m.cacheHits.value())
	c("amped_session_cache_misses_total", "Compiled-session cache misses (scenario compiled by this request).", m.cacheMisses.value())
	c("amped_session_cache_joins_total", "Cache misses that joined a concurrent compile instead of duplicating it.", m.cacheJoins.value())
	c("amped_session_cache_evictions_total", "Compiled sessions evicted by the LRU.", m.cacheEvicted.value())
	c("amped_session_compiles_total", "model.Compile executions (misses after singleflight dedup).", m.compiles.value())
	c("amped_sweep_points_total", "Design points evaluated by /v1/sweep.", m.sweepPoints.value())
	c("amped_shard_retries_total", "Shard dispatches requeued after a failure, busy signal or partial stream.", m.shardRetries.value())
	c("amped_shard_reroutes_total", "Shards moved off a draining peer onto surviving peers.", m.shardReroutes.value())
	c("amped_shard_duplicate_chunks_total", "Shard chunks dropped by the coordinator's merge because their cursor range was already collected.", m.shardDuplicates.value())
	c("amped_job_resumes_total", "Jobs resumed from their journal after a coordinator restart.", m.jobResumes.value())
	c("amped_journal_bytes_total", "Bytes durably appended to job journals (frames included).", m.journalBytes.value())

	if labels, vals = m.shards.snapshot(); len(labels) > 0 {
		fmt.Fprintf(w, "# HELP amped_shards_total Coordinator shard dispatches, by peer and outcome.\n")
		fmt.Fprintf(w, "# TYPE amped_shards_total counter\n")
		for i, l := range labels {
			fmt.Fprintf(w, "amped_shards_total{%s} %d\n", l, vals[i])
		}
	}

	if m.peerRows != nil {
		fmt.Fprintf(w, "# HELP amped_peer_state Peer breaker state (one-hot), by peer and state.\n")
		fmt.Fprintf(w, "# TYPE amped_peer_state gauge\n")
		for _, row := range m.peerRows() {
			fmt.Fprintf(w, "amped_peer_state{peer=%q,state=%q} %d\n", row.url, row.state, row.val)
		}
	}

	g("amped_requests_in_flight", "Evaluation requests currently executing.", inFlight)
	g("amped_queue_depth", "Evaluation requests waiting for a limiter slot.", queueDepth)
	g("amped_session_cache_entries", "Compiled sessions currently cached.", cached)

	hist("amped_request_duration_seconds", "Evaluation request latency.", m.latency)
	hist("amped_queue_wait_seconds", "Time admitted requests spent waiting for a limiter slot.", m.queueWait)
	hist("amped_sweep_points_per_second", "Per-sweep evaluation throughput (completed points / sweep wall time).", m.sweepRate)

	fmt.Fprintf(w, "# HELP amped_shard_latency_seconds Coordinator-observed shard dispatch latency, by peer.\n")
	fmt.Fprintf(w, "# TYPE amped_shard_latency_seconds histogram\n")
	m.shardLatency.writeTo(w, "amped_shard_latency_seconds")

	fmt.Fprintf(w, "# HELP amped_phase_duration_seconds Request time by phase (queue, decode, cache, compile, evaluate, sweep, encode).\n")
	fmt.Fprintf(w, "# TYPE amped_phase_duration_seconds histogram\n")
	for p, h := range m.phases {
		h.Write(w, "amped_phase_duration_seconds", fmt.Sprintf("phase=%q", obs.Phase(p).String()))
	}
}
