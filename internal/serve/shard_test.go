package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newPeerFleet starts n standalone replicas and one coordinator whose
// /v1/sweep fans out over them. Small chunk cells force multi-chunk
// streams so the per-chunk top-N merge is actually exercised.
func newPeerFleet(t *testing.T, n int) (peers []*Server, coord *Server, coordURL string) {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		p, ts := newTestServer(t, Config{})
		peers = append(peers, p)
		urls[i] = ts.URL
	}
	coord, cts := newTestServer(t, Config{Peers: urls, ShardChunkCells: 7})
	return peers, coord, cts.URL
}

func sweepResponse(t *testing.T, url, body string) SweepResponse {
	t.Helper()
	code, b := post(t, url+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d %s", code, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShardEndpointStreams drives /v1/sweep/shard directly: the NDJSON
// stream must cover exactly the requested cursor range in chunk-sized
// steps, end with a Done line, and complete the same number of points the
// plain sweep reports for the whole space.
func TestShardEndpointStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	single := sweepResponse(t, ts.URL, sweepDoc)

	shardDoc := strings.TrimSuffix(strings.TrimSpace(sweepDoc), "}") + `, "chunk_cells": 7}`
	resp, err := http.Post(ts.URL+"/v1/sweep/shard", "application/json", strings.NewReader(shardDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	var chunks []ShardChunk
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var c ShardChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		chunks = append(chunks, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 3 {
		t.Fatalf("want a multi-chunk stream plus the Done line, got %d chunks", len(chunks))
	}
	last := chunks[len(chunks)-1]
	if !last.Done || last.Error != "" {
		t.Fatalf("stream should end Done: %+v", last)
	}
	completed := 0
	var cursor int64
	for _, c := range chunks[:len(chunks)-1] {
		if c.CursorLo != cursor {
			t.Fatalf("chunk starts at %d, want contiguous from %d", c.CursorLo, cursor)
		}
		if c.CursorHi-c.CursorLo > 7 {
			t.Errorf("chunk [%d,%d) exceeds chunk_cells=7", c.CursorLo, c.CursorHi)
		}
		if len(c.Points) > c.Completed {
			t.Errorf("chunk returned %d points but completed %d", len(c.Points), c.Completed)
		}
		cursor = c.CursorHi
		completed += c.Completed
	}
	if completed != single.TotalPoints {
		t.Errorf("shard completed %d points, whole sweep completed %d", completed, single.TotalPoints)
	}
}

func TestShardRangeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ name, extra string }{
		{"negative lo", `"cursor_lo": -1, "cursor_hi": 5`},
		{"inverted", `"cursor_lo": 9, "cursor_hi": 3`},
		{"past end", `"cursor_lo": 0, "cursor_hi": 1000000`},
	} {
		doc := strings.TrimSuffix(strings.TrimSpace(sweepDoc), "}") + ", " + c.extra + "}"
		code, body := post(t, ts.URL+"/v1/sweep/shard", doc)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, code, body)
		}
	}
}

// TestShardCoordinatorMatchesSingleNode is the tentpole acceptance check: a
// 3-replica sharded sweep must return the exact merged top-N and total a
// single node computes, and the coordinator must account the fan-out in
// its metrics.
func TestShardCoordinatorMatchesSingleNode(t *testing.T) {
	_, single := newTestServer(t, Config{})
	want := sweepResponse(t, single.URL, sweepDoc)

	_, _, coordURL := newPeerFleet(t, 3)
	got := sweepResponse(t, coordURL, sweepDoc)

	if !got.Sharded || got.Peers != 3 {
		t.Errorf("response not marked sharded over 3 peers: %+v", got)
	}
	if got.TotalPoints != want.TotalPoints {
		t.Errorf("sharded TotalPoints = %d, single-node = %d", got.TotalPoints, want.TotalPoints)
	}
	if got.Truncated != want.Truncated || got.Returned != want.Returned {
		t.Errorf("sharded truncation (%v, %d) != single-node (%v, %d)",
			got.Truncated, got.Returned, want.Truncated, want.Returned)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("sharded top-N diverges from single node:\n got %+v\nwant %+v", got.Points, want.Points)
	}
	if want.TotalPoints > 0 && got.PointsPerSecond <= 0 {
		t.Errorf("aggregate points/s not reported: %+v", got)
	}

	code, metrics := get(t, coordURL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, sub := range []string{
		"amped_shard_latency_seconds_count{peer=",
		`outcome="ok"`,
		"amped_sweep_points_per_second_count 1",
		fmt.Sprintf("amped_sweep_points_total %d", want.TotalPoints),
	} {
		if !bytes.Contains(metrics, []byte(sub)) {
			t.Errorf("coordinator metrics missing %q", sub)
		}
	}
}

// TestShardCoordinatorReroutesDrainingPeer covers satellite 6: a peer that is
// mid-drain sheds its shard with 503 + Retry-After; the coordinator must
// reroute that work onto the survivors, still produce the single-node
// result, and count the reroute.
func TestShardCoordinatorReroutesDrainingPeer(t *testing.T) {
	_, single := newTestServer(t, Config{})
	want := sweepResponse(t, single.URL, sweepDoc)

	peers, _, coordURL := newPeerFleet(t, 3)
	peers[1].StartDraining()

	got := sweepResponse(t, coordURL, sweepDoc)
	if got.TotalPoints != want.TotalPoints || !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("sweep with a draining peer diverges:\n got %+v\nwant %+v", got, want)
	}

	_, metrics := get(t, coordURL+"/metrics")
	for _, sub := range []string{
		"amped_shard_reroutes_total 1",
		`outcome="drain"`,
	} {
		if !bytes.Contains(metrics, []byte(sub)) {
			t.Errorf("coordinator metrics missing %q after drain reroute:\n%s", sub, metrics)
		}
	}
}

// TestShardCoordinatorRetriesDeadPeer: a peer that refuses connections is
// retried up to the fail limit and routed around; the sweep still matches
// the single-node result and the retries are counted.
func TestShardCoordinatorRetriesDeadPeer(t *testing.T) {
	_, single := newTestServer(t, Config{})
	want := sweepResponse(t, single.URL, sweepDoc)

	_, live1 := newTestServer(t, Config{})
	_, live2 := newTestServer(t, Config{})
	// A listener that closes immediately leaves a port that refuses.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	_, cts := newTestServer(t, Config{
		Peers:           []string{live1.URL, deadURL, live2.URL},
		ShardChunkCells: 7,
	})
	got := sweepResponse(t, cts.URL, sweepDoc)
	if got.TotalPoints != want.TotalPoints || !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("sweep with a dead peer diverges:\n got %+v\nwant %+v", got, want)
	}

	_, metrics := get(t, cts.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("amped_shard_retries_total")) ||
		bytes.Contains(metrics, []byte("amped_shard_retries_total 0")) {
		t.Errorf("dead-peer retries not counted:\n%s", metrics)
	}
}

// TestShardCoordinatorDedupesReplayedChunks kills a peer mid-stream and
// makes its replacement dispatch replay an already-collected chunk: the
// proxy in front of a healthy replica relays two NDJSON chunks and dies,
// then rewinds every later dispatch's cursor one chunk behind the
// coordinator's durable progress. The merge must drop the replayed chunk —
// totals and top-N byte-identical to a single node instead of
// double-counted — and account it in amped_shard_duplicate_chunks_total.
func TestShardCoordinatorDedupesReplayedChunks(t *testing.T) {
	_, single := newTestServer(t, Config{})
	want := sweepResponse(t, single.URL, sweepDoc)

	_, peer := newTestServer(t, Config{})
	var dispatches atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := dispatches.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		if n >= 2 {
			// Replay: this dispatch re-streams one chunk the coordinator
			// already folded in from the broken first stream.
			var req map[string]any
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("proxy: bad shard request: %v", err)
				panic(http.ErrAbortHandler)
			}
			lo, _ := req["cursor_lo"].(float64)
			if lo -= 7; lo < 0 {
				lo = 0
			}
			req["cursor_lo"] = lo
			if body, err = json.Marshal(req); err != nil {
				t.Errorf("proxy: re-marshal: %v", err)
				panic(http.ErrAbortHandler)
			}
		}
		resp, err := http.Post(peer.URL+"/v1/sweep/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(resp.StatusCode)
		fl, _ := w.(http.Flusher)
		sc := bufio.NewScanner(resp.Body)
		for lines := 0; sc.Scan(); {
			w.Write(sc.Bytes())
			w.Write([]byte("\n"))
			if fl != nil {
				fl.Flush()
			}
			if lines++; n == 1 && lines == 2 {
				// Die mid-stream: two chunks are durably delivered, the
				// rest of the range goes back to the pending pool.
				panic(http.ErrAbortHandler)
			}
		}
	}))
	t.Cleanup(proxy.Close)

	_, cts := newTestServer(t, Config{Peers: []string{proxy.URL}, ShardChunkCells: 7})
	got := sweepResponse(t, cts.URL, sweepDoc)
	if got.TotalPoints != want.TotalPoints {
		t.Errorf("replayed chunk double-counted: TotalPoints %d, single-node %d",
			got.TotalPoints, want.TotalPoints)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("merge with a replayed chunk diverges:\n got %+v\nwant %+v", got.Points, want.Points)
	}
	if dispatches.Load() < 2 {
		t.Fatalf("peer was dispatched %d times; the kill/replay path never ran", dispatches.Load())
	}
	_, metrics := get(t, cts.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("amped_shard_duplicate_chunks_total 1")) {
		t.Errorf("replayed chunk not counted as a duplicate:\n%s", metrics)
	}
}

// TestIntervalSetAdd pins the merge-dedupe primitive: containment detection
// over a coalescing union of half-open ranges.
func TestIntervalSetAdd(t *testing.T) {
	var s intervalSet
	steps := []struct {
		lo, hi int64
		dup    bool
	}{
		{0, 7, false},
		{7, 14, false},  // adjacent: coalesces to [0, 14)
		{7, 14, true},   // exact replay
		{2, 9, true},    // contained straddling the old seam
		{21, 28, false}, // disjoint
		{12, 23, false}, // partial overlap bridging both: accepted whole
		{0, 28, true},   // now fully covered
		{28, 28, true},  // empty range adds nothing
		{30, 35, false}, // new disjoint tail
		{29, 30, false}, // fills up to the tail
		{-3, 2, false},  // extends the front
	}
	for i, st := range steps {
		if got := s.add(st.lo, st.hi); got != st.dup {
			t.Fatalf("step %d: add(%d, %d) dup = %v, want %v (set %v)",
				i, st.lo, st.hi, got, st.dup, s.rs)
		}
	}
	want := []shardRange{{-3, 28}, {29, 35}}
	if !reflect.DeepEqual(s.rs, want) {
		t.Errorf("final set %v, want %v", s.rs, want)
	}
}

// TestShardCoordinatorAllPeersDown: with no reachable peer the coordinator must
// fail loudly (502), not silently return an empty ranking.
func TestShardCoordinatorAllPeersDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	_, cts := newTestServer(t, Config{Peers: []string{deadURL}})
	code, body := post(t, cts.URL+"/v1/sweep", sweepDoc)
	if code != http.StatusBadGateway {
		t.Fatalf("all-peers-down sweep = %d %s, want 502", code, body)
	}
}

// TestShardCoordinatorDeadlinePartialContent: a peer that streams one chunk
// and then stalls past the coordinator's request timeout leaves that chunk
// merged. The coordinator answers the deadline the way a single node does:
// a 206 carrying the merged chunk's points, marked partial and sharded.
func TestShardCoordinatorDeadlinePartialContent(t *testing.T) {
	_, real := newTestServer(t, Config{})
	firstChunk := make(chan ShardChunk, 1)
	stalling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post(real.URL+"/v1/sweep/shard", "application/json", r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		var c ShardChunk
		if err == nil {
			err = json.Unmarshal(line, &c)
		}
		if err != nil || c.Done || c.Error != "" {
			t.Errorf("first shard line %q: %v", line, err)
			return
		}
		select {
		case firstChunk <- c:
		default:
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(line)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer stalling.Close()

	_, cts := newTestServer(t, Config{
		Peers: []string{stalling.URL}, ShardChunkCells: 7, RequestTimeout: 300 * time.Millisecond,
	})
	code, body := post(t, cts.URL+"/v1/sweep", sweepDoc)
	if code != http.StatusPartialContent {
		t.Fatalf("stalled sharded sweep = %d %s, want 206", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || !resp.Sharded {
		t.Fatalf("partial=%v sharded=%v, want both", resp.Partial, resp.Sharded)
	}
	c := <-firstChunk
	want := make([]SweepPoint, len(c.Points))
	for i, p := range c.Points {
		want[i] = p.SweepPoint
	}
	if resp.TotalPoints != c.Completed || !reflect.DeepEqual(resp.Points, want) {
		t.Fatalf("partial response %d points %+v, want the streamed chunk's %d points %+v",
			resp.TotalPoints, resp.Points, c.Completed, want)
	}
}

// TestShardRoundReleasesUndealtTrials: available() claims the single trial
// of every half-open peer it returns, so a round that deals a peer no range
// must release it. Otherwise the peer stays half-open with its trial
// claimed, which available() skips and the prober never visits. The chunk
// size is the default, so each sweep is a single pending range.
func TestShardRoundReleasesUndealtTrials(t *testing.T) {
	oneCellDoc := strings.NewReplacer(
		`"nodes": 2`, `"nodes": 1`,
		`"accels_per_node": 4`, `"accels_per_node": 1`,
		`"batches": [64, 128]`, `"batches": [64]`,
	).Replace(sweepDoc)
	for _, c := range []struct {
		name  string
		peers int
		doc   string
	}{
		{"three peers", 3, sweepDoc},
		{"one cell two peers", 2, oneCellDoc},
	} {
		t.Run(c.name, func(t *testing.T) {
			urls := make([]string, c.peers)
			for i := range urls {
				_, ts := newTestServer(t, Config{})
				urls[i] = ts.URL
			}
			coord, cts := newTestServer(t, Config{Peers: urls})
			last := coord.peers.peers[c.peers-1]
			coord.peers.mu.Lock()
			last.phase = peerHalfOpen
			coord.peers.mu.Unlock()

			sweepResponse(t, cts.URL, c.doc)
			if !slices.Contains(coord.peers.available(), last) {
				coord.peers.mu.Lock()
				defer coord.peers.mu.Unlock()
				t.Fatalf("peer left out of rotation after the sweep: phase=%v trial=%v",
					last.phase, last.trial)
			}
		})
	}
}

// TestShardCoordinatorPricesEachCellOnce: on a healthy two-peer fleet, a
// sweep no larger than one chunk reaches each peer as exactly one shard,
// the two shards split the cell range, and the points the peers price sum
// to the response's total.
func TestShardCoordinatorPricesEachCellOnce(t *testing.T) {
	var mu sync.Mutex
	shards := make([][]shardRange, 2)
	peers := make([]*Server, 2)
	urls := make([]string, 2)
	for i := range peers {
		peers[i] = New(Config{})
		t.Cleanup(peers[i].Close)
		handler := peers[i].Handler()
		rec := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep/shard" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					panic(http.ErrAbortHandler)
				}
				var req ShardRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Errorf("bad shard request: %v", err)
				}
				mu.Lock()
				shards[i] = append(shards[i], shardRange{req.CursorLo, req.CursorHi})
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			handler.ServeHTTP(w, r)
		}))
		t.Cleanup(rec.Close)
		urls[i] = rec.URL
	}
	_, cts := newTestServer(t, Config{Peers: urls})
	got := sweepResponse(t, cts.URL, sweepDoc)

	mu.Lock()
	defer mu.Unlock()
	if len(shards[0]) != 1 || len(shards[1]) != 1 {
		t.Fatalf("peer shards %v, want exactly one per peer", shards)
	}
	a, b := shards[0][0], shards[1][0]
	if a.lo > b.lo {
		a, b = b, a
	}
	if a.lo != 0 || a.hi != b.lo || a.cells() == 0 || b.cells() == 0 {
		t.Errorf("shard ranges %v and %v, want two that split [0, n)", a, b)
	}
	var priced uint64
	for _, p := range peers {
		priced += p.met.sweepPoints.value()
	}
	if priced != uint64(got.TotalPoints) {
		t.Errorf("peers priced %d points, response total %d", priced, got.TotalPoints)
	}
}
