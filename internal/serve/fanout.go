package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
	"amped/internal/obs"
)

// The fan-out engine runs one sharded sweep over the peer fleet. It is the
// shared core under both the synchronous coordinator (/v1/sweep with peers
// configured) and the durable job runner (/v1/sweep/jobs): rounds of
// cell-range dispatches across the breaker-admitted peers, durable progress
// tracked as a coalescing interval set, a wall-clock stall budget instead of
// PR 6's two-empty-rounds heuristic, and a hedged dispatch of the final
// straggler range when idle peers are available.

// Classified failure classes for sweep/plan jobs and coordinator errors.
// The chaos property suite asserts every failed job lands in exactly one of
// these — "failed for an unclassified reason" is itself a bug.
const (
	errClassBadRequest = "bad_request"   // request no longer parses/compiles
	errClassNoPeers    = "no_live_peers" // every breaker open past the stall budget
	errClassStalled    = "stalled"       // live peers but no durable progress within the budget
	errClassTimeout    = "timeout"       // context deadline expired
	errClassCancelled  = "cancelled"     // context cancelled (client gone / drain)
	errClassJournal    = "journal"       // journal append/fsync failed
	errClassInternal   = "internal"      // runner panic or other invariant break
)

// jobError is a classified sweep failure.
type jobError struct {
	class string
	msg   string
}

func (e *jobError) Error() string { return e.msg }

// classifyErr wraps an arbitrary failure into its class, mapping context
// errors onto the timeout/cancelled classes.
func classifyErr(err error) *jobError {
	var je *jobError
	if errors.As(err, &je) {
		return je
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &jobError{errClassTimeout, err.Error()}
	case errors.Is(err, context.Canceled):
		return &jobError{errClassCancelled, err.Error()}
	}
	return &jobError{errClassInternal, err.Error()}
}

// sweepState is the resumable merge state of one sharded sweep: the union
// of durably collected cursor ranges, the candidate points they produced,
// and an optional journal hook invoked before a fresh chunk is folded in —
// so the journal is never behind the in-memory merge it reconstructs.
type sweepState struct {
	mu             sync.Mutex
	collected      intervalSet
	candidates     []ShardPoint
	totalCompleted int64
	onChunk        func(ShardChunk) error // durable-write hook (may be nil)
	err            error                  // first onChunk failure; freezes the merge
	dups           *counter               // replayed-chunk metric (may be nil)
}

// collect folds one streamed chunk into the merge. Replayed ranges (a peer
// resumed behind its durable progress, or a hedged loser double-streaming)
// are dropped whole; fresh chunks hit the journal hook first and are only
// merged once the hook has made them durable.
func (st *sweepState) collect(c ShardChunk) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return
	}
	if st.collected.add(c.CursorLo, c.CursorHi) {
		if st.dups != nil {
			st.dups.inc()
		}
		return
	}
	if st.onChunk != nil {
		if err := st.onChunk(c); err != nil {
			st.err = &jobError{errClassJournal, err.Error()}
			return
		}
	}
	st.totalCompleted += int64(c.Completed)
	st.candidates = append(st.candidates, c.Points...)
}

// seed replays one already-durable chunk (from a journal) into the merge
// without re-journaling it.
func (st *sweepState) seed(c ShardChunk) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.collected.add(c.CursorLo, c.CursorHi) {
		return
	}
	st.totalCompleted += int64(c.Completed)
	st.candidates = append(st.candidates, c.Points...)
}

func (st *sweepState) failed() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

func (st *sweepState) coveredCells() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int64
	for _, r := range st.collected.rs {
		n += r.cells()
	}
	return n
}

// uncovered returns the cell ranges of [0, total) not yet durably merged.
func (st *sweepState) uncovered(total int64) []shardRange {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.collected.uncovered(0, total)
}

// finalize renders the merge into the single-node SweepResponse shape:
// exactly the ranking an uninterrupted, unsharded sweep would have returned.
// It keeps only the returned head of the candidates: a finished job stays
// listed for the life of the process, and its state must not hold every
// chunk's top-N.
func (st *sweepState) finalize(top int) (points []SweepPoint, totalCompleted int64, truncated bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sortShardPoints(st.candidates)
	truncated = int64(len(st.candidates)) > int64(top) || st.totalCompleted > int64(len(st.candidates))
	cands := st.candidates
	if len(cands) > top {
		cands = slices.Clone(cands[:top])
		st.candidates = cands
	}
	points = make([]SweepPoint, len(cands))
	for i := range cands {
		points[i] = cands[i].SweepPoint
	}
	return points, st.totalCompleted, truncated
}

// availabilityWait is how long the engine sleeps between fleet checks when
// every breaker is open, and after a round that made no durable progress.
const availabilityWait = 15 * time.Millisecond

// fanout drives the round loop until every cell in [0, total) is durably
// merged or the run fails with a classified error. st may arrive pre-seeded
// from a journal replay; only the uncovered remainder is dispatched.
func (s *Server) fanout(ctx context.Context, req SweepRequest, total int64, st *sweepState) error {
	lastCovered := st.coveredCells()
	lastProgress := time.Now()
	for {
		pending := st.uncovered(total)
		if len(pending) == 0 {
			return nil
		}
		if err := st.failed(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return classifyErr(err)
		}
		if covered := st.coveredCells(); covered > lastCovered {
			lastCovered = covered
			lastProgress = time.Now()
		} else if time.Since(lastProgress) > s.cfg.StallBudget {
			return &jobError{errClassStalled, fmt.Sprintf(
				"sharded sweep stalled: no durable progress in %v with %d ranges pending",
				s.cfg.StallBudget, len(pending))}
		}

		live := s.peers.available()
		if len(live) == 0 {
			// Every breaker is open (or every half-open trial is claimed).
			// The prober readmits recovered peers in the background; wait a
			// beat, bounded by the stall budget above.
			if time.Since(lastProgress) > s.cfg.StallBudget {
				return &jobError{errClassNoPeers, fmt.Sprintf(
					"no live peers for %d pending ranges after %v", len(pending), s.cfg.StallBudget)}
			}
			if !sleepCtx(ctx, availabilityWait) {
				return classifyErr(ctx.Err())
			}
			continue
		}

		chunk := s.cfg.ShardChunkCells
		if chunk <= 0 {
			chunk = defaultShardChunkCells
		}
		if len(pending) == 1 && pending[0].cells() <= chunk && len(live) >= 2 {
			// The final straggler: at most one chunk of work left and an idle
			// peer to spare. Hedge it instead of waiting on a single peer.
			s.hedgedRound(ctx, req, pending[0], live, st)
		} else {
			s.round(ctx, req, pending, live, st)
		}
		if st.coveredCells() == lastCovered {
			// Nothing landed this round (peers shedding, failing fast, or
			// streams all broke). Don't spin hot against them.
			if !sleepCtx(ctx, availabilityWait) {
				return classifyErr(ctx.Err())
			}
		}
	}
}

// round deals the pending ranges across the live peers and runs one
// dispatch wave. Whatever a peer fails to deliver durably simply stays
// uncovered and returns to the next round's pending set.
func (s *Server) round(ctx context.Context, req SweepRequest,
	pending []shardRange, live []*peer, st *sweepState) {
	groups := splitRanges(pending, len(live))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(p *peer, ranges []shardRange) {
			defer wg.Done()
			reported := false
			for _, rg := range ranges {
				if ctx.Err() != nil || st.failed() != nil {
					break
				}
				res := s.dispatch(ctx, p, req, rg, st)
				reported = true
				switch res.outcome {
				case shardDone, shardPartial:
					// Done: next range. Partial: the peer stopped cleanly at
					// its own deadline; the remainder is uncovered and will
					// be re-dealt — keep going on this peer.
					if res.outcome == shardPartial {
						s.met.shardRetries.inc()
					}
				case shardBusy:
					s.met.shardRetries.inc()
					backoff := res.backoff
					if backoff > maxCoordinatorBackoff {
						backoff = maxCoordinatorBackoff
					}
					if !sleepCtx(ctx, backoff) {
						return
					}
				case shardDrain:
					s.met.shardReroutes.inc()
					return // breaker is open; survivors pick up the rest
				case shardFailed:
					s.met.shardRetries.inc()
					return
				}
			}
			if !reported {
				// The wave ended before this peer dispatched anything (ctx
				// cancelled, merge frozen): release a claimed half-open
				// trial so the peer is not wedged out of rotation.
				s.peers.release(p)
			}
		}(live[gi], groups[gi])
	}
	wg.Wait()
}

// dispatch POSTs one range to one peer, folds the outcome into the breaker,
// and returns the result with its post-report backoff.
func (s *Server) dispatch(ctx context.Context, p *peer,
	req SweepRequest, rg shardRange, st *sweepState) shardResult {
	sreq := ShardRequest{
		SweepRequest: req,
		CursorLo:     rg.lo, CursorHi: rg.hi,
		ChunkCells: s.cfg.ShardChunkCells,
	}
	res := s.runShard(ctx, p.url, sreq, st.collect)
	s.met.shards.inc(fmt.Sprintf("peer=%q,outcome=%q", p.url, res.outcome))
	if res.outcome == shardFailed && res.err != nil && ctx.Err() == nil {
		s.log.Printf("level=warn handler=sweep shard peer=%s err=%q", p.url, res.err)
	}
	res.backoff = s.peers.report(p, res.outcome, res.backoff)
	return res
}

// hedgedRound cuts straggler tail latency on the final pending range: the
// range goes to two peers at once, the first to durably complete it wins,
// and the loser's stream is cancelled. The interval set dedupes any chunks
// both manage to deliver, so a hedge can never double-count a cell.
func (s *Server) hedgedRound(ctx context.Context, req SweepRequest,
	rg shardRange, live []*peer, st *sweepState) {
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	type hedgeRes struct {
		p   *peer
		res shardResult
	}
	results := make(chan hedgeRes, 2)
	sreq := ShardRequest{
		SweepRequest: req,
		CursorLo:     rg.lo, CursorHi: rg.hi,
		ChunkCells: s.cfg.ShardChunkCells,
	}
	for _, p := range live[:2] {
		go func(p *peer) {
			results <- hedgeRes{p, s.runShard(hctx, p.url, sreq, st.collect)}
		}(p)
	}
	var winner *peer
	for i := 0; i < 2; i++ {
		hr := <-results
		if winner != nil {
			// The loser: its stream was cancelled mid-flight (or it lost the
			// race outright). Not a peer fault — no breaker report beyond
			// releasing a claimed half-open trial.
			s.peers.release(hr.p)
			s.met.hedges.inc(`outcome="cancelled"`)
			continue
		}
		s.met.shards.inc(fmt.Sprintf("peer=%q,outcome=%q", hr.p.url, hr.res.outcome))
		if hr.res.outcome == shardDone {
			winner = hr.p
			s.peers.report(hr.p, shardDone, 0)
			which := "hedge"
			if hr.p == live[0] {
				which = "primary"
			}
			s.met.hedges.inc(fmt.Sprintf("outcome=%q", which))
			hcancel()
			continue
		}
		// A real failure before anyone won: normal breaker accounting.
		if hr.res.outcome == shardFailed && hr.res.err != nil && ctx.Err() == nil {
			s.log.Printf("level=warn handler=sweep hedged shard peer=%s err=%q", hr.p.url, hr.res.err)
		}
		s.peers.report(hr.p, hr.res.outcome, hr.res.backoff)
		if hr.res.outcome == shardDrain {
			s.met.shardReroutes.inc()
		} else {
			s.met.shardRetries.inc()
		}
	}
	if winner == nil {
		s.met.hedges.inc(`outcome="failed"`)
	}
}

// sleepCtx sleeps d or until the context ends; it reports false on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// compiledSweep is a sweep request decoded, compiled and sized: everything
// the fan-out engine and the job runner need beyond the raw body.
type compiledSweep struct {
	req    SweepRequest
	sess   *model.Session
	status string
	// space is the resolved cell enumeration: the fan-out sizes its ranges
	// from it, and a local job prices every chunk against it.
	space *explore.Space
	top   int
}

// compileSweep decodes a sweep body, compiles (or fetches) the session and
// resolves the cell enumeration once. Failures are classified bad_request.
func (s *Server) compileSweep(ctx context.Context, body []byte) (*compiledSweep, error) {
	var req SweepRequest
	if err := decodeSweepBody(body, &req); err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	if len(req.Sweep.Batches) == 0 {
		return nil, &jobError{errClassBadRequest, "sweep request: sweep.batches is required"}
	}
	doc := config.Document{
		Model: req.Model, System: req.System, Training: req.Training,
		Reliability: req.Reliability,
	}
	comp, err := doc.Components()
	if err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	sess, status, err := s.session(ctx, comp)
	if err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	space, err := explore.NewSpace(explore.Scenario{Session: sess}, sweepOptions(req.Sweep))
	if err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	top := req.Sweep.Top
	if top <= 0 {
		top = 20
	}
	return &compiledSweep{req: req, sess: sess, status: status, space: space, top: top}, nil
}

// handleSweepCoordinator fans one sweep out over the configured peers'
// /v1/sweep/shard endpoints and merges their top-N streams into the same
// SweepResponse a single-node sweep returns. It deliberately does not take
// a limiter slot: the coordinator does no model evaluation itself, and
// every unit of real work is admitted by a peer's own limiter (a peers list
// containing this server's address would otherwise deadlock a
// MaxInFlight=1 deployment against itself). Drain semantics still apply.
func (s *Server) handleSweepCoordinator(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.error(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.error(w, r, http.StatusServiceUnavailable, "server draining")
		return
	}
	tr := obs.FromContext(r.Context())

	sp := tr.StartSpan(obs.PhaseDecode)
	body, err := s.readBody(w, r)
	if err != nil {
		sp.End()
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cs, err := s.compileSweep(r.Context(), body)
	sp.End()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, classifyErr(err).msg)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	st := &sweepState{dups: &s.met.shardDuplicates}
	start := time.Now()
	ssp := tr.StartSpan(obs.PhaseSweep)
	ferr := s.fanout(ctx, cs.req, cs.space.Cells(), st)
	ssp.End()
	elapsed := time.Since(start)

	if ferr != nil {
		je := classifyErr(ferr)
		pending := len(st.uncovered(cs.space.Cells()))
		switch je.class {
		case errClassTimeout, errClassCancelled:
			s.error(w, r, statusForContextErr(ctx.Err()),
				fmt.Sprintf("sharded sweep incomplete: %s with %d ranges pending", je.msg, pending))
		default:
			s.error(w, r, http.StatusBadGateway,
				fmt.Sprintf("sharded sweep incomplete: %s", je.msg))
		}
		return
	}

	points, totalCompleted, truncated := st.finalize(cs.top)
	rate := 0.0
	if totalCompleted > 0 && elapsed > 0 {
		rate = float64(totalCompleted) / elapsed.Seconds()
		s.met.sweepRate.Observe(rate)
	}
	s.met.sweepPoints.add(uint64(totalCompleted))

	wsp := tr.StartSpan(obs.PhaseEncode)
	writeJSON(w, http.StatusOK, SweepResponse{
		ScenarioKey:     cs.sess.Key(),
		Cache:           cs.status,
		TotalPoints:     int(totalCompleted),
		Returned:        len(points),
		Truncated:       truncated,
		DurationS:       elapsed.Seconds(),
		Points:          points,
		Sharded:         true,
		Peers:           len(s.cfg.Peers),
		PointsPerSecond: rate,
	})
	wsp.End()
}
