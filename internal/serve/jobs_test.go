package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// bigSweepDoc is sweepDoc with a much larger batch axis (216 cells), so a
// journaling job runs long enough to be drained mid-flight.
const bigSweepDoc = `{
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
  "sweep": {"batches": [8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512], "microbatch_target": 256, "top": 5}
}`

// createJob posts a job and returns its ID.
func createJob(t *testing.T, url, path, body string) string {
	t.Helper()
	code, b := post(t, url+path, body)
	if code != http.StatusAccepted {
		t.Fatalf("%s = %d %s", path, code, b)
	}
	var created struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
		URL   string `json:"url"`
	}
	if err := json.Unmarshal(b, &created); err != nil {
		t.Fatal(err)
	}
	if created.JobID == "" || created.State != jobRunning || created.URL != "/v1/jobs/"+created.JobID {
		t.Fatalf("implausible job create reply: %s", b)
	}
	return created.JobID
}

// waitJob polls a job until it leaves the running state.
func waitJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, b := get(t, url+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job get = %d %s", code, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != jobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after deadline: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pointsJSON extracts the "points" ranking from a marshaled response in
// canonical compact encoding, the byte-exact ranking the resilience layer
// must preserve. (float64 survives a JSON round-trip exactly, so compact
// re-encoding only strips the HTTP handler's indentation.)
func pointsJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var fields struct {
		Points []SweepPoint `json:"points"`
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if fields.Points == nil {
		t.Fatalf("response has no points array: %s", raw)
	}
	b, err := json.Marshal(fields.Points)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSweepJobLocalMatchesSyncSweep(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})

	_, syncBody := post(t, ts.URL+"/v1/sweep", sweepDoc)
	id := createJob(t, ts.URL, "/v1/sweep/jobs", sweepDoc)
	st := waitJob(t, ts.URL, id)
	if st.State != jobDone {
		t.Fatalf("job state = %q (%s), want done", st.State, st.Error)
	}
	if st.TotalCells == 0 || st.CoveredCells != st.TotalCells {
		t.Fatalf("covered %d of %d cells, want full coverage", st.CoveredCells, st.TotalCells)
	}

	// The background job's ranking must be byte-identical to the synchronous
	// endpoint's, and so must a sync sweep run in 7-cell local chunks.
	want := pointsJSON(t, syncBody)
	if got := pointsJSON(t, st.Result); !bytes.Equal(got, want) {
		t.Fatalf("job points diverge from sync sweep:\n got %s\nwant %s", got, want)
	}
	_, chunked := newTestServer(t, Config{ShardChunkCells: 7})
	if _, body := post(t, chunked.URL+"/v1/sweep", sweepDoc); !bytes.Equal(pointsJSON(t, body), want) {
		t.Fatalf("7-cell-chunk sync sweep diverges:\n got %s\nwant %s", pointsJSON(t, body), want)
	}
	var resp SweepResponse
	if err := json.Unmarshal(st.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sharded {
		t.Fatal("local job reported sharded")
	}

	// The journal is durable on disk and counted in /metrics.
	if _, err := os.Stat(journalPath(dir, id)); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}
	_, metBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metBody), "amped_journal_bytes_total") {
		t.Fatal("metrics missing amped_journal_bytes_total")
	}
}

func TestSweepJobShardedMatchesSingleNode(t *testing.T) {
	_, single := newTestServer(t, Config{})
	want := sweepResponse(t, single.URL, sweepDoc)

	dir := t.TempDir()
	urls := make([]string, 2)
	for i := range urls {
		_, pts := newTestServer(t, Config{})
		urls[i] = pts.URL
	}
	_, cts := newTestServer(t, Config{Peers: urls, ShardChunkCells: 7, JournalDir: dir})

	id := createJob(t, cts.URL, "/v1/sweep/jobs", sweepDoc)
	st := waitJob(t, cts.URL, id)
	if st.State != jobDone {
		t.Fatalf("job state = %q (%s), want done", st.State, st.Error)
	}
	var resp SweepResponse
	if err := json.Unmarshal(st.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Sharded || resp.Peers != 2 {
		t.Fatalf("sharded=%v peers=%d, want sharded over 2 peers", resp.Sharded, resp.Peers)
	}
	wantRaw, _ := json.Marshal(want.Points)
	gotRaw, _ := json.Marshal(resp.Points)
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatalf("sharded job points diverge from single node:\n got %s\nwant %s", gotRaw, wantRaw)
	}
}

func TestPlanJobMatchesSyncPlan(t *testing.T) {
	planDoc := strings.Replace(sweepDoc, `"top": 5`, `"top": 1`, 1)
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})

	code, syncBody := post(t, ts.URL+"/v1/plan", planDoc)
	if code != http.StatusOK {
		t.Fatalf("sync plan = %d %s", code, syncBody)
	}
	var want PlanResponse
	if err := json.Unmarshal(syncBody, &want); err != nil {
		t.Fatal(err)
	}

	id := createJob(t, ts.URL, "/v1/plan/jobs", planDoc)
	st := waitJob(t, ts.URL, id)
	if st.State != jobDone {
		t.Fatalf("plan job state = %q (%s), want done", st.State, st.Error)
	}
	var got PlanResponse
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Best == nil || want.Best == nil {
		t.Fatalf("missing best point: job=%+v sync=%+v", got.Best, want.Best)
	}
	if got.Best.Mapping != want.Best.Mapping || got.Best.Batch != want.Best.Batch || got.RankS != want.RankS {
		t.Fatalf("plan job optimum %s B=%d (%v) != sync optimum %s B=%d (%v)",
			got.Best.Mapping, got.Best.Batch, got.RankS, want.Best.Mapping, want.Best.Batch, want.RankS)
	}
}

func TestJobEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Config{JournalDir: t.TempDir()})

	if code, _ := get(t, ts.URL+"/v1/jobs/jb_nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}

	id := createJob(t, ts.URL, "/v1/sweep/jobs", sweepDoc)
	waitJob(t, ts.URL, id)

	code, b := get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("job list = %d", code)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("job list = %s, want exactly %s", b, id)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("job list leaked full results")
	}

	// Bad requests fail synchronously, not in the background.
	if code, _ := post(t, ts.URL+"/v1/sweep/jobs", `{"sweep":{}}`); code != http.StatusBadRequest {
		t.Fatalf("empty sweep job = %d, want 400", code)
	}

	// A draining server refuses new jobs but still reports existing ones.
	srv.StartDraining()
	if code, _ := post(t, ts.URL+"/v1/sweep/jobs", sweepDoc); code != http.StatusServiceUnavailable {
		t.Fatalf("draining job create = %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK {
		t.Fatalf("draining job get = %d, want 200", code)
	}
}

// TestSweepJobSuspendsOnDrainAndResumes is the mid-sweep SIGTERM regression:
// a drain arriving while a journaling sweep job is mid-flight must flush the
// journal and record a resumable suspended state before shutdown completes —
// and a new server over the same journal directory must finish the job with
// a ranking byte-identical to an uninterrupted run.
func TestSweepJobSuspendsOnDrainAndResumes(t *testing.T) {
	_, cleanTS := newTestServer(t, Config{})
	_, cleanBody := post(t, cleanTS.URL+"/v1/sweep", bigSweepDoc)
	wantPoints := pointsJSON(t, cleanBody)

	dir := t.TempDir()
	// Chunk size 1 maximizes chunk boundaries (one fsync per cell), so the
	// drain lands mid-sweep with certainty.
	srv, ts := newTestServer(t, Config{JournalDir: dir, ShardChunkCells: 1})
	id := createJob(t, ts.URL, "/v1/sweep/jobs", bigSweepDoc)

	// Wait for at least one durable chunk, then drain exactly as the SIGTERM
	// path does: StartDraining (cancels runners) then Close (waits for their
	// suspend records).
	deadline := time.Now().Add(5 * time.Second)
	for srv.jobs.get(id).st.coveredCells() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(100 * time.Microsecond)
	}
	srv.StartDraining()
	srv.Close()

	j := srv.jobs.get(id)
	st := j.status()
	if st.State != jobSuspended {
		t.Fatalf("after drain state = %q, want suspended", st.State)
	}
	if st.CoveredCells == 0 || st.CoveredCells >= st.TotalCells {
		t.Fatalf("suspended with %d/%d cells covered, want strictly partial progress",
			st.CoveredCells, st.TotalCells)
	}

	// Restart: a new server over the same journal directory resumes the job
	// from its durable chunks and finishes it.
	_, ts2 := newTestServer(t, Config{JournalDir: dir, ShardChunkCells: 1})
	fin := waitJob(t, ts2.URL, id)
	if fin.State != jobDone {
		t.Fatalf("resumed job state = %q (%s), want done", fin.State, fin.Error)
	}
	if fin.Resumes < 2 {
		t.Fatalf("resumed job resumes = %d, want >= 2 (initial resume + suspend record)", fin.Resumes)
	}
	if got := pointsJSON(t, fin.Result); !bytes.Equal(got, wantPoints) {
		t.Fatalf("resumed ranking diverges from uninterrupted run:\n got %s\nwant %s", got, wantPoints)
	}
	_, metBody := get(t, ts2.URL+"/metrics")
	if !strings.Contains(string(metBody), "amped_job_resumes_total 1") {
		t.Fatalf("metrics missing resume count:\n%s", metBody)
	}
}

// TestSweepJobCrashRecovery simulates a hard kill: a journal with a valid
// header, a prefix of durable chunks and a torn trailing record — no suspend
// marker, no terminal record. Recovery must truncate the tear, seed the
// merge from the durable chunks, re-run only the remainder and converge on
// the byte-identical ranking.
func TestSweepJobCrashRecovery(t *testing.T) {
	_, cleanTS := newTestServer(t, Config{})
	_, cleanBody := post(t, cleanTS.URL+"/v1/sweep", sweepDoc)
	wantPoints := pointsJSON(t, cleanBody)

	// Capture the first chunks a real run would journal, via a scratch
	// server whose chunk hook aborts the sweep after three chunks.
	scratch, _ := newTestServer(t, Config{ShardChunkCells: 7})
	cs, err := scratch.compileSweep(context.Background(), []byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	var chunks []ShardChunk
	stop := &jobError{errClassJournal, "capture done"}
	st := &sweepState{dups: &scratch.met.shardDuplicates, onChunk: func(c ShardChunk) error {
		if len(chunks) >= 3 {
			return stop
		}
		chunks = append(chunks, c)
		return nil
	}}
	if err := scratch.localSweep(context.Background(), cs, st); err == nil {
		t.Fatal("capture sweep unexpectedly ran to completion")
	}

	// Hand-write the crashed journal: header, three chunks, torn tail.
	dir := t.TempDir()
	const id = "jb_deadbeef01020304"
	var jb counter
	w, err := createJournal(dir, id, &jb)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(journalRecord{T: "job", ID: id, Kind: "sweep", Body: []byte(sweepDoc), Created: 1754600000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.append(journalRecord{T: "chunk", Lo: c.CursorLo, Hi: c.CursorHi, Completed: c.Completed, Points: c.Points}); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	f, err := os.OpenFile(journalPath(dir, id), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Boot over the crashed journal: recovery resumes and finishes the job.
	_, ts := newTestServer(t, Config{JournalDir: dir, ShardChunkCells: 7})
	fin := waitJob(t, ts.URL, id)
	if fin.State != jobDone {
		t.Fatalf("recovered job state = %q (%s), want done", fin.State, fin.Error)
	}
	if fin.Resumes != 1 {
		t.Fatalf("recovered job resumes = %d, want 1", fin.Resumes)
	}
	if got := pointsJSON(t, fin.Result); !bytes.Equal(got, wantPoints) {
		t.Fatalf("recovered ranking diverges:\n got %s\nwant %s", got, wantPoints)
	}
}

// TestJobRecoveryServesTerminalResultVerbatim: a finished job's journal
// answers byte-identically after a restart without re-running anything.
func TestJobRecoveryServesTerminalResultVerbatim(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{JournalDir: dir})
	id := createJob(t, ts.URL, "/v1/sweep/jobs", sweepDoc)
	done := waitJob(t, ts.URL, id)
	if done.State != jobDone {
		t.Fatalf("job state = %q, want done", done.State)
	}
	srv.Close()

	_, ts2 := newTestServer(t, Config{JournalDir: dir})
	code, b := get(t, ts2.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("recovered job get = %d", code)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != jobDone {
		t.Fatalf("recovered state = %q, want done", st.State)
	}
	if !bytes.Equal(st.Result, done.Result) {
		t.Fatalf("recovered result not byte-identical:\n got %s\nwant %s", st.Result, done.Result)
	}
	// Nothing was re-run: the journal was not reopened for writing.
	files, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
	if len(files) != 1 {
		t.Fatalf("journal dir has %d files, want 1", len(files))
	}
}
