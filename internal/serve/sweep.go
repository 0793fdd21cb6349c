package serve

import (
	"context"
	"net/http"
	"slices"
	"sync"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
)

// One sweep runner serves every sweep endpoint. A request compiles once
// (compileSweep) and runs into a sweepState through runSweep, whose chunks
// come from one of two sources: the peer fan-out when Config.Peers is set,
// local Space.Top chunks otherwise. One builder (sweepResponse) renders the
// merge. Synchronous /v1/sweep runs into a fresh, unjournaled state; a sweep
// job runs the same function with the journal hook attached and the job
// registered. Sync, sharded, job and resumed rankings therefore agree by
// construction.

// sweepState is the resumable merge state of one sweep: the union of
// durably collected cursor ranges, the candidate points they produced, and
// an optional journal hook invoked before a fresh chunk is folded in — so
// the journal is never behind the in-memory merge it reconstructs.
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
// resumed behind its durable progress) are dropped whole; fresh chunks hit
// the journal hook first and are only merged once the hook has made them
// durable. Journal recovery collects the durable chunks before the hook is
// attached, so they are not journaled twice.
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

// collectPartial folds in the finished points of a chunk that a deadline
// interrupted. They reach the response but neither the journal nor the
// covered cells: the chunk, not the point, is the unit of resumable
// progress.
func (st *sweepState) collectPartial(points []ShardPoint, completed int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.totalCompleted += int64(completed)
	st.candidates = append(st.candidates, points...)
}

func (st *sweepState) failed() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// completed counts the points merged so far.
func (st *sweepState) completed() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.totalCompleted
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

// finalize ranks the merge with explore.CompareRank — the comparator every
// explore ranking uses — so the head is exactly the ranking an
// uninterrupted, unsharded sweep returns. The candidate position is the
// last tie-break, which keeps equal identities in arrival order. It keeps
// only the returned head: a finished job stays listed for the life of the
// process, and its state must not hold every chunk's top-N.
func (st *sweepState) finalize(top int) (points []SweepPoint, totalCompleted int64, truncated bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cands := st.candidates
	order := make([]explore.Rank, len(cands))
	for i := range cands {
		order[i] = cands[i].rank(int64(i))
	}
	id := func(dst []byte, i int64) []byte { return cands[i].appendID(dst) }
	slices.SortFunc(order, func(a, b explore.Rank) int { return explore.CompareRank(a, b, id) })
	truncated = int64(len(cands)) > int64(top) || st.totalCompleted > int64(len(cands))
	head := make([]ShardPoint, min(top, len(cands)))
	points = make([]SweepPoint, len(head))
	for i := range head {
		head[i] = cands[order[i].Index]
		points[i] = head[i].SweepPoint
	}
	st.candidates = head
	return points, st.totalCompleted, truncated
}

// compiledSweep is a sweep request decoded, compiled and sized: everything
// the runner needs beyond the raw body.
type compiledSweep struct {
	req SweepRequest
	compiledScenario
	// space is the resolved cell enumeration: the fan-out sizes its ranges
	// from it, and the local source prices every chunk against it.
	space *explore.Space
	top   int
}

// sweepBody is a decoded sweep-shaped body: *SweepRequest, or
// *ShardRequest through its embedded SweepRequest.
type sweepBody interface{ sweepRequest() *SweepRequest }

func (r *SweepRequest) sweepRequest() *SweepRequest { return r }

// compileSweep is compileSweepAs for a plain sweep body: /v1/sweep, sweep
// jobs and their journal recovery.
func (s *Server) compileSweep(ctx context.Context, body []byte) (*compiledSweep, error) {
	return s.compileSweepAs(ctx, body, new(SweepRequest))
}

// compileSweepAs is the one sweep prologue. It decodes body into dst with
// unknown fields rejected (the shard handler passes its *ShardRequest and
// reads the cursor fields back), runs compileScenario, resolves the cell
// enumeration once and applies the top default. Failures are classified
// bad_request.
func (s *Server) compileSweepAs(ctx context.Context, body []byte, dst sweepBody) (*compiledSweep, error) {
	if err := decodeSweepBody(body, dst); err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	req := dst.sweepRequest()
	_, sc, err := s.compileScenario(ctx, "sweep request", config.Document{
		Model: req.Model, System: req.System, Training: req.Training,
		Reliability: req.Reliability,
	}, req.Sweep.Batches)
	if err != nil {
		return nil, err
	}
	space, err := explore.NewSpace(explore.Scenario{Session: sc.sess}, sweepOptions(req.Sweep))
	if err != nil {
		return nil, &jobError{errClassBadRequest, err.Error()}
	}
	top := req.Sweep.Top
	if top <= 0 {
		top = 20
	}
	return &compiledSweep{req: *req, compiledScenario: sc, space: space, top: top}, nil
}

// compiledScenario is a scenario resolved through the session cache: the
// session, the key it was looked up under (echoed as scenario_key) and the
// cache status.
type compiledScenario struct {
	sess        *model.Session
	key, status string
}

// compileScenario is the scenario half of every sweep-shaped request
// (sweeps, shards, plans and their jobs): it requires sweep.batches (what
// names the request in that error), resolves the scenario sections and
// compiles (or fetches) the session. Failures are classified bad_request.
func (s *Server) compileScenario(ctx context.Context, what string, doc config.Document, batches []int) (*config.Components, compiledScenario, error) {
	if len(batches) == 0 {
		return nil, compiledScenario{}, &jobError{errClassBadRequest, what + ": sweep.batches is required"}
	}
	comp, err := doc.Components()
	if err != nil {
		return nil, compiledScenario{}, &jobError{errClassBadRequest, err.Error()}
	}
	sess, key, status, err := cachedSession(ctx, s, comp.Key, comp.Compile)
	if err != nil {
		return nil, compiledScenario{}, &jobError{errClassBadRequest, err.Error()}
	}
	return comp, compiledScenario{sess, key, status}, nil
}

// readSweep reads a request body and compiles it into dst
// (compileSweepAs); any error is the client's.
func (s *Server) readSweep(w http.ResponseWriter, r *http.Request, dst sweepBody) (*compiledSweep, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	return s.compileSweepAs(r.Context(), body, dst)
}

// runSweep is the one sweep runner: it drives a compiled sweep into st
// until every cell is merged or the run fails with a classified error. The
// chunks come from the peer fan-out when peers are configured, otherwise
// from localSweep. st may arrive holding a journal's durable chunks; only
// the uncovered remainder runs, and only the points this run merges count
// into amped_sweep_points_total.
func (s *Server) runSweep(ctx context.Context, cs *compiledSweep, st *sweepState) error {
	before := st.completed()
	defer func() { s.met.sweepPoints.add(uint64(st.completed() - before)) }()
	if s.peers != nil {
		return s.fanout(ctx, cs.req, cs.space.Cells(), st)
	}
	return s.localSweep(ctx, cs, st)
}

// localSweep is the in-process chunk source: the uncovered cells in
// chunks of ShardChunkCells, each one Space.Top call with the chunk
// semantics of a /v1/sweep/shard peer, so a local job journals and resumes
// like a sharded one. Every chunk prices against the sweep's one compiled
// Space, so the mappings are enumerated once however many chunks run.
func (s *Server) localSweep(ctx context.Context, cs *compiledSweep, st *sweepState) error {
	chunk := s.cfg.ShardChunkCells
	for _, rg := range st.uncovered(cs.space.Cells()) {
		for lo := rg.lo; lo < rg.hi; lo += chunk {
			hi := min(lo+chunk, rg.hi)
			points, n, err := cs.space.Top(ctx, lo, hi, cs.top)
			if err != nil {
				// Space.Top hands back the points that finished before the
				// deadline; they are worth answering with.
				st.collectPartial(toShardPoints(points), n)
				return classifyErr(err)
			}
			st.collect(ShardChunk{CursorLo: lo, CursorHi: hi, Completed: n, Points: toShardPoints(points)})
			if err := st.failed(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepResponse is the one SweepResponse builder: it renders st's merge
// for every sweep, synchronous or job, local or sharded, whole or cut
// short by a deadline (partial). elapsed is the run's wall time; a job's
// spans its life since creation.
func (s *Server) sweepResponse(cs *compiledSweep, st *sweepState, elapsed time.Duration, partial bool) SweepResponse {
	points, total, truncated := st.finalize(cs.top)
	resp := SweepResponse{
		ScenarioKey: cs.key,
		Cache:       cs.status,
		TotalPoints: int(total),
		Returned:    len(points),
		Truncated:   truncated,
		Partial:     partial,
		DurationS:   elapsed.Seconds(),
		Points:      points,
		Sharded:     s.peers != nil,
		Peers:       len(s.cfg.Peers),
	}
	if total > 0 && elapsed > 0 {
		resp.PointsPerSecond = float64(total) / elapsed.Seconds()
	}
	return resp
}
