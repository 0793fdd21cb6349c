package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// The fan-out engine is the sweep runner's peer chunk source (runSweep),
// under both synchronous /v1/sweep and sweep jobs on a coordinator: rounds of
// cell-range dispatches across the breaker-admitted peers, durable progress
// tracked as a coalescing interval set, and a wall-clock stall budget.
// Every round deals the pending ranges across the live peers, so each cell
// goes to one peer at a time.

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

		s.round(ctx, req, pending, live, st)
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
	for _, p := range live[len(groups):] {
		// Fewer pending cells than peers leave some peers without a group:
		// release their claimed half-open trials, or they stay wedged out
		// of rotation.
		s.peers.release(p)
	}
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
