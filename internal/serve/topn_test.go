package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
)

// topnSweepDoc is sweepDoc with a duplicated batch size (equal point
// identities) and a batch of 4, which DP=8 mappings cannot divide and deep
// pipelines cannot fill, so keep_invalid puts failed cells in the ranking.
const topnSweepDoc = `{
  "model": {"name": "tiny", "layers": 8, "hidden": 1024, "heads": 16, "seq_len": 1024, "vocab": 50000},
  "system": {
    "name": "2x4 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 2,
    "accels_per_node": 4,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "training": {"global_batch": 64},
  "sweep": {"batches": [4, 64, 64], "microbatch_target": 16, "power_of_two": true, "keep_invalid": true, "top": TOP}
}`

// referenceRanking computes a sweep request's whole ranking in-process:
// explore.Sweep, then the full SortByTime, rendered for the wire.
func referenceRanking(t *testing.T, body string) []SweepPoint {
	t.Helper()
	var req SweepRequest
	if err := decodeSweepBody([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	doc := config.Document{Model: req.Model, System: req.System, Training: req.Training}
	comp, err := doc.Components()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := comp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := explore.Sweep(explore.Scenario{Session: sess}, sweepOptions(req.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	explore.SortByTime(pts)
	out := make([]SweepPoint, len(pts))
	for i, p := range pts {
		out[i] = toSweepPoint(p)
	}
	return out
}

// TestSweepTopNMatchesFullSort checks the bounded top-N selection on the
// serving paths against a full SortByTime of the same space, on a space
// with duplicate identities and failed cells: /v1/sweep with top both
// above and below the space size, and a one-chunk /v1/sweep/shard stream.
// The counts (total_points, truncated, a chunk's completed) must still
// describe the whole space, not the selection.
func TestSweepTopNMatchesFullSort(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	all := referenceRanking(t, strings.Replace(topnSweepDoc, "TOP", "1", 1))
	failed := 0
	for _, p := range all {
		if p.Err != "" {
			failed++
		}
	}
	if failed == 0 || failed == len(all) {
		t.Fatalf("space has %d failed of %d points; want both kinds", failed, len(all))
	}

	for _, top := range []int{3, len(all) + 10} {
		doc := strings.Replace(topnSweepDoc, "TOP", strconv.Itoa(top), 1)
		got := sweepResponse(t, ts.URL, doc)
		want := all[:min(top, len(all))]
		if got.TotalPoints != len(all) || got.Truncated != (top < len(all)) || got.Returned != len(want) {
			t.Errorf("top=%d: total %d truncated %v returned %d, want %d %v %d",
				top, got.TotalPoints, got.Truncated, got.Returned, len(all), top < len(all), len(want))
		}
		if !reflect.DeepEqual(got.Points, want) {
			t.Errorf("top=%d: ranking diverges from the full sort:\n got %+v\nwant %+v", top, got.Points, want)
		}
	}

	shardDoc := strings.TrimSuffix(strings.TrimSpace(strings.Replace(topnSweepDoc, "TOP", "3", 1)), "}") +
		`, "chunk_cells": 100000}`
	resp, err := http.Post(ts.URL+"/v1/sweep/shard", "application/json", strings.NewReader(shardDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("empty shard stream: %v", sc.Err())
	}
	var chunk ShardChunk
	if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
		t.Fatal(err)
	}
	if chunk.Completed != len(all) || len(chunk.Points) != 3 {
		t.Fatalf("chunk completed %d with %d points, want %d with 3", chunk.Completed, len(chunk.Points), len(all))
	}
	for i, p := range chunk.Points {
		if p.SweepPoint != all[i] {
			t.Errorf("chunk point %d = %+v, want %+v", i, p.SweepPoint, all[i])
		}
	}
}

// chunkSweepDoc is topnSweepDoc's scenario on 12x8 accelerators with nine
// batch sizes (one duplicated): 4617 cells, more than one 4096-cell chunk,
// with failed and pipeline-unfillable cells kept in the ranking.
const chunkSweepDoc = `{
  "model": {"name": "tiny", "layers": 8, "hidden": 1024, "heads": 16, "seq_len": 1024, "vocab": 50000},
  "system": {
    "name": "12x8 a100",
    "accelerator": {"preset": "a100"},
    "nodes": 12,
    "accels_per_node": 8,
    "intra": {"name": "nvlink", "latency_s": 2e-6, "bandwidth_bps": "2.4T"},
    "inter": {"name": "hdr", "latency_s": 5e-6, "bandwidth_bps": "200G"}
  },
  "training": {"global_batch": 64},
  "sweep": {"batches": [8, 48, 96, 96, 192, 384, 768, 1536, 3072], "microbatch_target": 4,
            "max_cp": 2, "max_vpp": 2, "keep_invalid": true, "top": 20}
}`

// TestShardStreamChunkInvariance checks that a /v1/sweep/shard stream's
// chunking changes nothing but its framing: at 1, 7, 4096 and whole-space
// chunk sizes, the chunks tile the space and their top-N lines merge to the
// full sort's head with the full space's completed total. The 4096-cell and
// whole-space chunks each span many worker chunks, so a kept point that
// aliased a reused output column would be overwritten before it is encoded.
func TestShardStreamChunkInvariance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	all := referenceRanking(t, chunkSweepDoc)
	if len(all) <= 4096 {
		t.Fatalf("space has %d cells; want more than one 4096-cell chunk", len(all))
	}
	for _, chunk := range []int{1, 7, 4096, len(all)} {
		body := strings.TrimSuffix(chunkSweepDoc, "}") + `, "chunk_cells": ` + strconv.Itoa(chunk) + "}"
		resp, err := http.Post(ts.URL+"/v1/sweep/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		st := &sweepState{}
		res := consumeShardStream(resp.Body, 0, int64(len(all)), func(c ShardChunk) {
			if c.CursorHi-c.CursorLo > int64(chunk) {
				t.Errorf("chunk_cells=%d: chunk [%d,%d) is larger", chunk, c.CursorLo, c.CursorHi)
			}
			st.collect(c)
		})
		resp.Body.Close()
		if res.outcome != shardDone || res.err != nil {
			t.Fatalf("chunk_cells=%d: stream ended %v: %v", chunk, res.outcome, res.err)
		}
		if got := st.coveredCells(); got != int64(len(all)) {
			t.Fatalf("chunk_cells=%d: chunks cover %d cells, want %d", chunk, got, len(all))
		}
		points, completed, _ := st.finalize(20)
		if completed != int64(len(all)) {
			t.Errorf("chunk_cells=%d: completed %d, want %d", chunk, completed, len(all))
		}
		if !reflect.DeepEqual(points, all[:20]) {
			t.Errorf("chunk_cells=%d: merged ranking diverges from the full sort:\n got %+v\nwant %+v",
				chunk, points, all[:20])
		}
	}
}

// TestMergeMatchesSortByTime pins the merge to explore's comparator on the
// orders that exercise every tie-break: evaluated points sharing one rank
// key, arriving in reverse identity order, plus keep_invalid failures and
// duplicated identities, spread over several chunks. The merged order must
// be SortByTime's on the same points.
func TestMergeMatchesSortByTime(t *testing.T) {
	var req SweepRequest
	if err := decodeSweepBody([]byte(strings.Replace(topnSweepDoc, "TOP", "5", 1)), &req); err != nil {
		t.Fatal(err)
	}
	doc := config.Document{Model: req.Model, System: req.System, Training: req.Training}
	comp, err := doc.Components()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := comp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := explore.Sweep(explore.Scenario{Session: sess}, sweepOptions(req.Sweep))
	if err != nil {
		t.Fatal(err)
	}
	// Give every other evaluated point the first one's breakdown, so they
	// tie on the rank key and only identity separates them.
	var shared *model.Breakdown
	ties, failed := 0, 0
	for i := range pts {
		switch {
		case pts[i].Err != nil:
			failed++
		case shared == nil:
			shared = pts[i].Breakdown
		case i%2 == 0:
			pts[i].Breakdown = shared
			ties++
		}
	}
	if ties < 3 || failed == 0 {
		t.Fatalf("space has %d tied and %d failed points; want both", ties, failed)
	}
	slices.SortStableFunc(pts, func(a, b explore.Point) int { return strings.Compare(b.String(), a.String()) })

	want := slices.Clone(pts)
	explore.SortByTime(want)
	st := &sweepState{}
	for lo := 0; lo < len(pts); lo += 5 {
		hi := min(lo+5, len(pts))
		st.collect(ShardChunk{
			CursorLo: int64(lo), CursorHi: int64(hi), Completed: hi - lo,
			Points: toShardPoints(pts[lo:hi]),
		})
	}
	got, completed, truncated := st.finalize(len(pts))
	if completed != int64(len(pts)) || truncated {
		t.Fatalf("merge counted %d points (truncated %v), want %d whole", completed, truncated, len(pts))
	}
	for i := range want {
		if w := toSweepPoint(want[i]); got[i] != w {
			t.Fatalf("merged rank %d = %+v, SortByTime has %+v", i, got[i], w)
		}
	}
}
