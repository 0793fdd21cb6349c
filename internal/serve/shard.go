package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"amped/internal/explore"
	"amped/internal/obs"
	"amped/internal/parallel"
)

// defaultShardChunkCells is Config.ShardChunkCells' default: the cells of
// one sweep chunk (one streamed NDJSON line of a shard, one local Space.Top
// call) and so the resume granularity after a failure. The request's
// explore.Space enumerates the mappings once, and each chunk streams
// through its top-N executor, so memory stays O(workers × worker chunk +
// top) at any chunk size. A chunk's fixed cost is one worker-pool start
// plus the line's JSON encoding and flush; its per-cell cost is the
// evaluation plus a bounded top-N selection, O(cells·log top).
const defaultShardChunkCells = 32768

// ShardRequest is the /v1/sweep/shard body: a full sweep request plus the
// half-open [CursorLo, CursorHi) slice of the canonical cell enumeration
// this replica should evaluate (both zero = the whole space, matching
// explore.Options). ChunkCells overrides the streaming chunk size (default:
// the serving replica's Config.ShardChunkCells).
type ShardRequest struct {
	SweepRequest
	CursorLo   int64 `json:"cursor_lo,omitempty"`
	CursorHi   int64 `json:"cursor_hi,omitempty"`
	ChunkCells int64 `json:"chunk_cells,omitempty"`
}

// ShardPoint is one ranked design point on the shard wire: the public
// SweepPoint plus the exact ranking key, so the coordinator's merge
// reproduces the single-node ordering bit for bit instead of re-deriving it
// from rounded display fields.
type ShardPoint struct {
	SweepPoint
	// RankS is explore.SortByTime's rank key — the expected total time in
	// seconds — for successfully evaluated points.
	RankS float64 `json:"rank_s,omitempty"`
}

// ShardChunk is one NDJSON line of a shard response stream: the chunk's
// cursor range, how many points it completed (after invalid-point
// filtering), and the chunk's top-N candidates. A chunk is the atomic unit
// of progress — the coordinator resumes a broken stream from the last
// fully received chunk's CursorHi. The final line carries Done (clean
// completion) or Error (the shard stopped early; rerun from the last
// cursor).
type ShardChunk struct {
	CursorLo  int64        `json:"cursor_lo"`
	CursorHi  int64        `json:"cursor_hi"`
	Completed int          `json:"completed"`
	Points    []ShardPoint `json:"points,omitempty"`
	Done      bool         `json:"done,omitempty"`
	Error     string       `json:"error,omitempty"`
}

// rank is the point's explore.Rank at candidate position i. The bucket
// derives from Err alone: SweepRequest has no memory section, so no memory
// model reaches the server and every evaluated point fits (bucket 0);
// failures are bucket 2.
func (p *ShardPoint) rank(i int64) explore.Rank {
	if p.Err != "" {
		return explore.Rank{Index: i, Bucket: 2}
	}
	return explore.Rank{Key: p.RankS, Index: i}
}

// appendID appends the point's explore.Point.String identity from its wire
// fields, as Point.appendID does: Mapping is Normalized().String(), the
// bytes Mapping.AppendTo writes.
func (p *ShardPoint) appendID(b []byte) []byte {
	b = append(b, p.Mapping...)
	b = append(b, " B="...)
	b = strconv.AppendInt(b, int64(p.Batch), 10)
	b = append(b, " m="...)
	return strconv.AppendInt(b, int64(p.Microbatches), 10)
}

// toShardPoints renders ranked points for the shard stream.
func toShardPoints(points []explore.Point) []ShardPoint {
	out := make([]ShardPoint, len(points))
	for i, p := range points {
		out[i] = ShardPoint{SweepPoint: toSweepPoint(p)}
		if p.Err == nil && p.Breakdown != nil {
			out[i].RankS = float64(p.Breakdown.ExpectedTotalTime())
		}
	}
	return out
}

// decodeSweepBody parses a sweep-shaped request body into dst (either
// *SweepRequest or *ShardRequest) with unknown fields rejected.
func decodeSweepBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("sweep request: %w", err)
	}
	return nil
}

// sweepOptions translates wire sweep parameters into engine options.
func sweepOptions(p SweepParams) explore.Options {
	return explore.Options{
		Batches:          p.Batches,
		MicrobatchTarget: p.MicrobatchTarget,
		Enumerate: parallel.EnumerateOptions{
			PowerOfTwo:       p.PowerOfTwo,
			ExpertParallel:   p.ExpertParallel,
			SequenceParallel: p.SequenceParallel,
			MaxTP:            p.MaxTP,
			MaxPP:            p.MaxPP,
			MaxCP:            p.MaxCP,
			MaxVPP:           p.MaxVPP,
		},
		KeepInvalid: p.KeepInvalid,
	}
}

// handleSweepShard evaluates one [CursorLo, CursorHi) slice of the
// canonical cell enumeration and streams per-chunk top-N results as NDJSON.
// The endpoint goes through the same admission control as every evaluation
// route (drain check, FIFO-fair limiter), so a coordinator's fan-out is
// subject to exactly the backpressure a direct client would see.
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.lim.release()
	tr := obs.FromContext(r.Context())

	sp := tr.StartSpan(obs.PhaseDecode)
	var req ShardRequest
	cs, err := s.readSweep(w, r, &req)
	sp.End()
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	total := cs.space.Cells()
	lo, hi := req.CursorLo, req.CursorHi
	if lo == 0 && hi == 0 {
		hi = total
	}
	if lo < 0 || hi < lo || hi > total {
		s.error(w, r, http.StatusBadRequest,
			fmt.Sprintf("shard range [%d, %d) outside cell enumeration of size %d", lo, hi, total))
		return
	}
	chunk := req.ChunkCells
	if chunk <= 0 {
		chunk = s.cfg.ShardChunkCells
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// From here the stream owns the response: status and content type are
	// committed before the first chunk, so late errors ride in the final
	// NDJSON line rather than an HTTP status.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	var completed int64
	start := time.Now()
	ssp := tr.StartSpan(obs.PhaseSweep)
	defer func() {
		ssp.End()
		if elapsed := time.Since(start); completed > 0 && elapsed > 0 {
			s.met.sweepRate.Observe(float64(completed) / elapsed.Seconds())
		}
	}()
	for cur := lo; cur < hi; cur += chunk {
		cHi := min(cur+chunk, hi)
		points, n, err := cs.space.Top(ctx, cur, cHi, cs.top)
		if err != nil {
			// Deadline or cancel mid-chunk: the chunk is the atomic unit, so
			// its partial points are discarded and the stream ends with a
			// resumable cursor. The coordinator re-dispatches [cur, hi).
			_ = enc.Encode(ShardChunk{CursorLo: cur, CursorHi: hi, Error: err.Error()})
			return
		}
		completed += int64(n)
		s.met.sweepPoints.add(uint64(n))
		if err := enc.Encode(ShardChunk{
			CursorLo: cur, CursorHi: cHi, Completed: n, Points: toShardPoints(points),
		}); err != nil {
			return // client went away; nothing useful left to send
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(ShardChunk{CursorLo: hi, CursorHi: hi, Done: true})
}

// shardRange is a pending slice of the cell enumeration awaiting a peer.
type shardRange struct{ lo, hi int64 }

func (r shardRange) cells() int64 { return r.hi - r.lo }

// intervalSet tracks the union of collected [lo, hi) cursor ranges as a
// sorted, coalesced list of disjoint intervals. The coordinator uses it to
// detect chunk replays: a peer that dies mid-stream can, on a later
// dispatch, re-stream cells the coordinator already folded in (e.g. a
// resume cursor that rewinds to a chunk boundary it had durably sent), and
// without this check every replayed point would be double-counted in the
// merge's totals and candidates.
type intervalSet struct{ rs []shardRange }

// add merges [lo, hi) into the set and reports whether the range was
// already fully covered — a duplicate the caller must drop. A partially
// fresh range is accepted whole: chunks are the atomic progress unit, so a
// partial overlap only occurs when a replay straddles a chunk boundary, and
// losing the fresh cells would be worse than repeating the stale ones.
func (s *intervalSet) add(lo, hi int64) (dup bool) {
	if hi <= lo {
		return true
	}
	// First interval that ends at or after lo — the only candidates that
	// can overlap or touch [lo, hi) start here.
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].hi >= lo })
	if i < len(s.rs) && s.rs[i].lo <= lo && hi <= s.rs[i].hi {
		return true
	}
	j := i
	for j < len(s.rs) && s.rs[j].lo <= hi {
		if s.rs[j].lo < lo {
			lo = s.rs[j].lo
		}
		if s.rs[j].hi > hi {
			hi = s.rs[j].hi
		}
		j++
	}
	s.rs = append(s.rs[:i], append([]shardRange{{lo, hi}}, s.rs[j:]...)...)
	return false
}

// uncovered returns the gaps of [lo, hi) not covered by the set, in order.
// It is the fan-out engine's pending computation: whatever the interval set
// has not durably absorbed is exactly what still needs dispatching.
func (s *intervalSet) uncovered(lo, hi int64) []shardRange {
	var out []shardRange
	cur := lo
	for _, r := range s.rs {
		if r.hi <= cur {
			continue
		}
		if r.lo >= hi {
			break
		}
		if r.lo > cur {
			out = append(out, shardRange{cur, r.lo})
		}
		if r.hi > cur {
			cur = r.hi
		}
		if cur >= hi {
			return out
		}
	}
	if cur < hi {
		out = append(out, shardRange{cur, hi})
	}
	return out
}

// shardOutcome classifies one shard dispatch for the retry loop.
type shardOutcome int

const (
	shardDone    shardOutcome = iota // range fully evaluated and streamed
	shardPartial                     // clean stop mid-range (peer deadline); resume
	shardBusy                        // 429: peer at capacity, back off and reroute
	shardDrain                       // 503: peer draining, remove and reroute
	shardFailed                      // transport/protocol failure
)

func (o shardOutcome) String() string {
	switch o {
	case shardDone:
		return "ok"
	case shardPartial:
		return "partial"
	case shardBusy:
		return "busy"
	case shardDrain:
		return "drain"
	case shardFailed:
		return "error"
	}
	return "unknown"
}

// shardResult is one dispatch's aftermath: how far the stream durably got
// and how the peer behaved.
type shardResult struct {
	outcome shardOutcome
	resume  int64         // first cell NOT durably collected
	backoff time.Duration // peer's Retry-After hint (busy/drain)
	err     error
}

// runShard POSTs one shard range to a peer and consumes its NDJSON stream,
// folding fully received chunks into the collector. Progress survives any
// failure mode: resume always points at the first cell whose results were
// not durably received, so the remainder can be re-dispatched elsewhere
// without double-counting a cell.
func (s *Server) runShard(ctx context.Context, peer string, req ShardRequest,
	collect func(ShardChunk)) shardResult {
	res := shardResult{resume: req.CursorLo}
	body, err := json.Marshal(req)
	if err != nil {
		res.outcome, res.err = shardFailed, err
		return res
	}
	start := time.Now()
	defer func() {
		s.met.shardLatency.observe(fmt.Sprintf("peer=%q", peer), time.Since(start).Seconds())
	}()

	// Idle watchdog: a dispatch that delivers no chunk for a full stall
	// budget is cut off. A peer trickling bytes one at a time (slow-loris)
	// keeps the TCP stream technically alive forever; only durable chunk
	// progress counts as liveness, exactly like the engine's stall budget.
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()
	idle := time.AfterFunc(s.cfg.StallBudget, icancel)
	defer idle.Stop()
	watched := func(c ShardChunk) {
		idle.Reset(s.cfg.StallBudget)
		collect(c)
	}

	hreq, err := http.NewRequestWithContext(ictx, http.MethodPost,
		peer+"/v1/sweep/shard", bytes.NewReader(body))
	if err != nil {
		res.outcome, res.err = shardFailed, err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.RequestID(ctx); id != "" {
		hreq.Header.Set(requestIDHeader, id)
	}
	resp, err := s.shardClient.Do(hreq)
	if err != nil {
		res.outcome, res.err = shardFailed, err
		return res
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		res.outcome = shardBusy
		res.backoff = retryAfterHint(resp, time.Now())
		return res
	case http.StatusServiceUnavailable:
		res.outcome = shardDrain
		res.backoff = retryAfterHint(resp, time.Now())
		return res
	default:
		res.outcome = shardFailed
		res.err = fmt.Errorf("peer %s: unexpected status %d", peer, resp.StatusCode)
		return res
	}

	res = consumeShardStream(resp.Body, req.CursorLo, req.CursorHi, watched)
	if res.err != nil {
		res.err = fmt.Errorf("peer %s: %w", peer, res.err)
	}
	return res
}

// maxShardLineBytes bounds one NDJSON stream line. A chunk line carries at
// most the chunk's top-N points; anything larger is a corrupt or hostile
// stream, and the decoder fails it rather than buffering without bound.
const maxShardLineBytes = 4 << 20

// consumeShardStream decodes one peer's NDJSON chunk stream, folding valid
// chunks into the collector. It enforces the resume invariant the journal
// depends on: resume is monotone, never moving backwards past a durably
// collected cell, even when a peer re-streams cells it already delivered (a
// resume cursor rewound to a chunk boundary). Replayed chunks still reach
// the collector — the coordinator's interval set is the authority on what
// is a duplicate — but they can never rewind this stream's progress.
func consumeShardStream(r io.Reader, lo, hi int64, collect func(ShardChunk)) shardResult {
	res := shardResult{resume: lo}
	sc := bufio.NewScanner(r)
	// Start small; the scanner grows toward maxShardLineBytes only when a
	// peer actually streams an oversized line.
	sc.Buffer(make([]byte, 4096), maxShardLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var chunk ShardChunk
		if err := json.Unmarshal(line, &chunk); err != nil {
			// Stream broke mid-line (peer died, connection reset, garbage).
			// Every chunk decoded so far is safe; resume covers the rest.
			res.outcome, res.err = shardFailed, fmt.Errorf("stream: %w", err)
			return res
		}
		if chunk.Done {
			res.outcome = shardDone
			res.resume = hi
			return res
		}
		if chunk.Error != "" {
			// The peer stopped cleanly (its request deadline); this is
			// progress-preserving backpressure, not a peer failure.
			res.outcome = shardPartial
			return res
		}
		if chunk.CursorLo > chunk.CursorHi {
			res.outcome = shardFailed
			res.err = fmt.Errorf("stream: inverted chunk range [%d,%d)", chunk.CursorLo, chunk.CursorHi)
			return res
		}
		if chunk.Completed < 0 || int64(chunk.Completed) > chunk.CursorHi-chunk.CursorLo ||
			len(chunk.Points) > chunk.Completed {
			res.outcome = shardFailed
			res.err = fmt.Errorf("stream: chunk [%d,%d) claims %d completed with %d points",
				chunk.CursorLo, chunk.CursorHi, chunk.Completed, len(chunk.Points))
			return res
		}
		collect(chunk)
		if chunk.CursorHi > res.resume {
			res.resume = chunk.CursorHi
		}
	}
	if err := sc.Err(); err != nil {
		res.outcome, res.err = shardFailed, fmt.Errorf("stream: %w", err)
		return res
	}
	res.outcome, res.err = shardFailed, errors.New("stream: ended without done marker")
	return res
}

// retryAfterHint parses a Retry-After header in either RFC 9110 form — delta
// seconds or an HTTP-date — clamped to [0, maxCoordinatorBackoff]. A missing
// or unparseable header defaults to 1s: back off a beat rather than hammer a
// peer that just shed load.
func retryAfterHint(resp *http.Response, now time.Time) time.Duration {
	h := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return clampBackoff(time.Duration(secs) * time.Second)
	}
	if t, err := http.ParseTime(h); err == nil {
		return clampBackoff(t.Sub(now))
	}
	return time.Second
}

// clampBackoff bounds a Retry-After hint: never negative (a date in the
// past means "now"), never past the coordinator's reroute cap.
func clampBackoff(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if d > maxCoordinatorBackoff {
		return maxCoordinatorBackoff
	}
	return d
}

// maxCoordinatorBackoff caps how long a worker sleeps on a peer's
// Retry-After before the range is rerouted; the hint is a coarse estimate
// and surviving peers can usually absorb the work sooner.
const maxCoordinatorBackoff = 2 * time.Second

// splitRanges deals pending ranges into n contiguous, cell-balanced groups
// (one per live peer). Group k may span several disjoint ranges.
func splitRanges(pending []shardRange, n int) [][]shardRange {
	var total int64
	for _, r := range pending {
		total += r.cells()
	}
	groups := make([][]shardRange, 0, n)
	share := (total + int64(n) - 1) / int64(n)
	cur := []shardRange{}
	var got int64
	for _, r := range pending {
		for r.cells() > 0 {
			take := r.cells()
			if len(groups) < n-1 && got+take > share {
				take = share - got
			}
			cur = append(cur, shardRange{r.lo, r.lo + take})
			r.lo += take
			got += take
			if got >= share && len(groups) < n-1 {
				groups = append(groups, cur)
				cur, got = []shardRange{}, 0
			}
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}
