package serve

import (
	"context"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// The peer manager is the coordinator's self-healing view of its replica
// fleet. PR 6's fan-out removed a peer from rotation forever after three
// hard failures inside one request; here every peer instead runs a standard
// circuit breaker shared across all requests and jobs:
//
//	closed ──3 strikes / drain──▶ open ──/healthz 200──▶ half-open ─┐
//	  ▲                             ▲  └──────probe fails───────────┘│
//	  └──────trial dispatch ok──────┴────────trial dispatch fails────┘
//
// While a breaker is open the periodic prober GETs the peer's /healthz once
// its backoff expires; a 200 moves it to half-open, where exactly one trial
// dispatch is admitted. Backoff is a single jittered, capped exponential
// shared by every bad outcome (busy, drain, dead) — a peer's Retry-After
// hint can only stretch it, never shrink it below the exponential floor.

// peerPhase is a breaker state.
type peerPhase int

const (
	peerClosed   peerPhase = iota // in rotation
	peerOpen                      // out of rotation, awaiting a probe
	peerHalfOpen                  // probe passed; one trial dispatch admitted
)

func (p peerPhase) String() string {
	switch p {
	case peerClosed:
		return "closed"
	case peerOpen:
		return "open"
	case peerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// peerFailLimit opens a peer's breaker after this many consecutive hard
// failures (transport errors, malformed streams, unexpected statuses).
const peerFailLimit = 3

// peer is one replica's breaker state. All fields are guarded by the
// manager's mutex — the state machine is tiny and transitions are rare
// compared to dispatches.
type peer struct {
	url       string
	phase     peerPhase
	strikes   int           // consecutive hard failures while closed
	backoff   time.Duration // current exponential backoff (0 = at base)
	openUntil time.Time     // earliest next probe while open
	trial     bool          // half-open trial dispatch in flight
}

// peerManager owns the fleet's breakers and the readmission prober.
type peerManager struct {
	mu    sync.Mutex
	peers []*peer
	rng   *rand.Rand

	base, max  time.Duration // backoff bounds
	probeEvery time.Duration
	client     *http.Client
	log        *log.Logger

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newPeerManager(urls []string, base, max, probeEvery time.Duration, client *http.Client, logger *log.Logger) *peerManager {
	m := &peerManager{
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		base:       base,
		max:        max,
		probeEvery: probeEvery,
		client:     client,
		log:        logger,
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, u := range urls {
		m.peers = append(m.peers, &peer{url: u})
	}
	go m.probeLoop()
	return m
}

// stop terminates the prober. Safe to call more than once.
func (m *peerManager) stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	<-m.done
}

// available returns the peers a dispatch round may use: every closed peer,
// plus half-open peers that have no trial in flight — each of those is
// claimed as this round's single trial. The caller must report an outcome
// for, or release, every returned half-open peer or its trial slot leaks.
func (m *peerManager) available() []*peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*peer
	for _, p := range m.peers {
		switch p.phase {
		case peerClosed:
			out = append(out, p)
		case peerHalfOpen:
			if !p.trial {
				p.trial = true
				out = append(out, p)
			}
		}
	}
	return out
}

// release returns a peer without an outcome: the dispatch never happened
// (wave cancelled, or no range left to deal it). It only clears a claimed
// half-open trial so the peer is not wedged out of rotation waiting for a
// report.
func (m *peerManager) release(p *peer) {
	m.mu.Lock()
	p.trial = false
	m.mu.Unlock()
}

// nextBackoffLocked advances a peer's capped exponential backoff with equal
// jitter (half deterministic, half uniform) so a fleet of breakers does not
// retry in lockstep. A peer-supplied hint (Retry-After) can stretch the
// result but never shrink it below the exponential floor.
func (m *peerManager) nextBackoffLocked(cur, hint time.Duration) time.Duration {
	next := m.base
	if cur > 0 {
		next = cur * 2
	}
	if next > m.max {
		next = m.max
	}
	if hint > next {
		next = hint
		if next > m.max {
			next = m.max
		}
	}
	half := next / 2
	return half + time.Duration(m.rng.Int63n(int64(half)+1))
}

// report folds one dispatch outcome into the peer's breaker and returns how
// long the dispatching worker should back off before using this peer again
// (only meaningful for shardBusy; zero otherwise).
func (m *peerManager) report(p *peer, outcome shardOutcome, hint time.Duration) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.trial = false
	switch outcome {
	case shardDone, shardPartial:
		// The peer served real work (a partial stream is its own deadline
		// backpressure, not a fault): fully readmit.
		if p.phase != peerClosed {
			m.log.Printf("level=info peer=%s breaker=closed (recovered)", p.url)
		}
		p.phase, p.strikes, p.backoff = peerClosed, 0, 0
		return 0
	case shardBusy:
		// Alive but loaded. Back off without opening the breaker.
		p.backoff = m.nextBackoffLocked(p.backoff, hint)
		return p.backoff
	case shardDrain:
		// The peer announced it is going away: open immediately and let the
		// prober readmit it when /healthz recovers.
		p.backoff = m.nextBackoffLocked(p.backoff, hint)
		m.openLocked(p)
		return 0
	default: // shardFailed
		p.strikes++
		p.backoff = m.nextBackoffLocked(p.backoff, hint)
		if p.phase == peerHalfOpen || p.strikes >= peerFailLimit {
			m.openLocked(p)
		}
		return 0
	}
}

func (m *peerManager) openLocked(p *peer) {
	if p.phase != peerOpen {
		m.log.Printf("level=warn peer=%s breaker=open backoff=%s", p.url, p.backoff)
	}
	p.phase = peerOpen
	p.strikes = 0
	p.openUntil = time.Now().Add(p.backoff)
}

// probeLoop periodically probes open peers whose backoff has expired and
// readmits (to half-open) the ones whose /healthz answers 200 again.
func (m *peerManager) probeLoop() {
	defer close(m.done)
	if len(m.peers) == 0 {
		<-m.stopCh
		return
	}
	t := time.NewTicker(m.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			m.probeOnce()
		}
	}
}

func (m *peerManager) probeOnce() {
	m.mu.Lock()
	now := time.Now()
	var due []*peer
	for _, p := range m.peers {
		if p.phase == peerOpen && !now.Before(p.openUntil) {
			due = append(due, p)
		}
	}
	m.mu.Unlock()
	for _, p := range due {
		ok := m.probe(p.url)
		m.mu.Lock()
		if p.phase == peerOpen { // a concurrent report may have moved it
			if ok {
				p.phase = peerHalfOpen
				p.trial = false
				m.log.Printf("level=info peer=%s breaker=half-open (healthz ok)", p.url)
			} else {
				p.backoff = m.nextBackoffLocked(p.backoff, 0)
				p.openUntil = time.Now().Add(p.backoff)
			}
		}
		m.mu.Unlock()
	}
}

// probe GETs one peer's /healthz with a bounded timeout. Only a 200 counts:
// a draining peer answers 503 and stays out of rotation.
func (m *peerManager) probe(url string) bool {
	timeout := m.probeEvery
	if timeout > time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// peerStateRow is one (peer, state) gauge sample for /metrics.
type peerStateRow struct {
	url   string
	state string
	val   int
}

// stateRows renders every peer's breaker as one-hot gauge rows, in peer
// order then state order, for stable exposition.
func (m *peerManager) stateRows() []peerStateRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]peerStateRow, 0, len(m.peers)*3)
	for _, p := range m.peers {
		for _, ph := range []peerPhase{peerClosed, peerOpen, peerHalfOpen} {
			v := 0
			if p.phase == ph {
				v = 1
			}
			rows = append(rows, peerStateRow{url: p.url, state: ph.String(), val: v})
		}
	}
	return rows
}
