package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// The job manager turns sweeps and plans into durable background work: a
// POST to /v1/sweep/jobs or /v1/plan/jobs validates and compiles the request
// synchronously, then returns a job ID immediately while a runner drives the
// existing shard fan-out (or a local chunked sweep) in the background.
// Progress goes to the crash-safe journal chunk by chunk, GET /v1/jobs/{id}
// reports state and the final result, and a restarted server replays its
// journal directory, readmits finished jobs verbatim and resumes
// interrupted ones exactly where their last durable chunk left them.

// Job lifecycle states.
const (
	jobRunning   = "running"
	jobSuspended = "suspended" // clean drain stop; resumable from the journal
	jobDone      = "done"
	jobFailed    = "failed"
)

// errSuspend is the cancel cause a draining server injects into running
// jobs: the runner writes a resumable suspend record instead of a failure.
var errSuspend = errors.New("server draining; job suspended")

// job is one durable sweep or plan run.
type job struct {
	id      string
	kind    string // "sweep" or "plan"
	created time.Time
	cancel  context.CancelCauseFunc

	mu      sync.Mutex
	state   string
	class   string // classified failure class when failed
	errMsg  string
	result  json.RawMessage // final response JSON when done
	resumes int

	total int64       // sweep cell-space size
	st    *sweepState // sweep merge state (nil for plan jobs)
	w     *journalWriter
}

// JobStatus is the GET /v1/jobs/{id} reply. Result carries the final
// SweepResponse or PlanResponse verbatim once the job is done — including
// after a restart, when it is served straight from the journal's terminal
// record, byte-identical to what an uninterrupted run returned.
type JobStatus struct {
	ID           string          `json:"id"`
	Kind         string          `json:"kind"`
	State        string          `json:"state"`
	Class        string          `json:"class,omitempty"`
	Error        string          `json:"error,omitempty"`
	TotalCells   int64           `json:"total_cells,omitempty"`
	CoveredCells int64           `json:"covered_cells,omitempty"`
	Resumes      int             `json:"resumes,omitempty"`
	Result       json.RawMessage `json:"result,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state,
		Class: j.class, Error: j.errMsg, Resumes: j.resumes, Result: j.result,
	}
	if j.st != nil {
		st.TotalCells = j.total
		st.CoveredCells = j.st.coveredCells()
	}
	return st
}

// finishDone records terminal success: the terminal record makes the result
// durable, so a restarted server answers this job from the journal without
// re-running anything.
func (j *job) finishDone(log func(string, ...any), result json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		if err := j.w.append(journalRecord{T: "done", Result: result}); err != nil {
			log("level=warn job=%s journal done record failed: %v", j.id, err)
		}
		j.w.close()
		j.w = nil
	}
	j.state, j.result = jobDone, result
}

func (j *job) finishFail(log func(string, ...any), je *jobError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		if err := j.w.append(journalRecord{T: "fail", Class: je.class, Error: je.msg}); err != nil {
			log("level=warn job=%s journal fail record failed: %v", j.id, err)
		}
		j.w.close()
		j.w = nil
	}
	j.state, j.class, j.errMsg = jobFailed, je.class, je.msg
}

// finishSuspend records a clean drain stop. The suspend record is advisory
// (any non-terminal journal resumes on restart); what matters is that every
// durable chunk is already fsynced and the file closes on a whole record.
func (j *job) finishSuspend(log func(string, ...any)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		if err := j.w.append(journalRecord{T: "suspend"}); err != nil {
			log("level=warn job=%s journal suspend record failed: %v", j.id, err)
		}
		j.w.close()
		j.w = nil
	}
	j.state = jobSuspended
}

// jobManager owns every job in the process plus the restart recovery path.
type jobManager struct {
	s *Server

	mu         sync.Mutex
	jobs       map[string]*job
	suspending bool

	wg sync.WaitGroup
}

func newJobManager(s *Server) *jobManager {
	return &jobManager{s: s, jobs: make(map[string]*job)}
}

// newJobID mints a collision-resistant job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the process is unusable
	}
	return "jb_" + hex.EncodeToString(b[:])
}

func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// register adds a job unless the manager is already suspending (a drain
// raced the create); the caller then refuses the request.
func (m *jobManager) register(j *job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.suspending {
		return errSuspend
	}
	m.jobs[j.id] = j
	return nil
}

// beginSuspend cancels every running job with the suspend cause. It does
// not wait; runners observe the cancellation at their next chunk boundary
// and write their suspend records on the way out.
func (m *jobManager) beginSuspend() {
	m.mu.Lock()
	m.suspending = true
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		if j.cancel != nil {
			j.cancel(errSuspend)
		}
	}
}

// suspendAll cancels running jobs and blocks until every runner has
// recorded its terminal or suspend state and closed its journal.
func (m *jobManager) suspendAll() {
	m.beginSuspend()
	m.wg.Wait()
}

// startSweep creates a sweep job from an already-compiled request: journal
// header first (a job that cannot journal is refused, not silently
// volatile), then the background runner.
func (m *jobManager) startSweep(body []byte, cs *compiledSweep) (string, error) {
	id := newJobID()
	j := &job{
		id: id, kind: "sweep", created: time.Now(),
		state: jobRunning, total: cs.space.Cells(),
		st: &sweepState{dups: &m.s.met.shardDuplicates},
	}
	if m.s.cfg.JournalDir != "" {
		w, err := createJournal(m.s.cfg.JournalDir, id, &m.s.met.journalBytes)
		if err != nil {
			return "", err
		}
		if err := w.append(journalRecord{
			T: "job", ID: id, Kind: "sweep", Body: body, Created: j.created.Unix(),
		}); err != nil {
			w.close()
			return "", err
		}
		j.w = w
		j.st.onChunk = func(c ShardChunk) error {
			return w.append(journalRecord{
				T: "chunk", Lo: c.CursorLo, Hi: c.CursorHi,
				Completed: c.Completed, Points: c.Points,
			})
		}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	if err := m.register(j); err != nil {
		cancel(nil)
		if j.w != nil {
			j.w.close()
		}
		return "", err
	}
	m.wg.Add(1)
	go m.runSweep(ctx, j, cs)
	return id, nil
}

// runSweep drives one sweep job to a terminal state. With peers configured
// the work goes through the shared fan-out engine; otherwise a local
// chunked sweep with identical chunk/merge semantics runs in-process.
func (m *jobManager) runSweep(ctx context.Context, j *job, cs *compiledSweep) {
	defer m.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			m.s.met.panics.inc()
			j.finishFail(m.s.log.Printf, &jobError{errClassInternal, fmt.Sprintf("job runner panic: %v", rec)})
		}
	}()
	var err error
	if m.s.peers != nil {
		err = m.s.fanout(ctx, cs.req, cs.space.Cells(), j.st)
	} else {
		err = m.s.localSweep(ctx, cs, j.st)
	}
	if err != nil {
		if context.Cause(ctx) == errSuspend {
			j.finishSuspend(m.s.log.Printf)
			m.s.log.Printf("level=info job=%s suspended covered=%d/%d", j.id, j.st.coveredCells(), j.total)
			return
		}
		je := classifyErr(err)
		j.finishFail(m.s.log.Printf, je)
		m.s.log.Printf("level=warn job=%s failed class=%s err=%q", j.id, je.class, je.msg)
		return
	}
	points, totalCompleted, truncated := j.st.finalize(cs.top)
	if m.s.peers != nil {
		m.s.met.sweepPoints.add(uint64(totalCompleted))
	}
	resp := SweepResponse{
		ScenarioKey: cs.sess.Key(),
		Cache:       cs.status,
		TotalPoints: int(totalCompleted),
		Returned:    len(points),
		Truncated:   truncated,
		DurationS:   time.Since(j.created).Seconds(),
		Points:      points,
		Sharded:     m.s.peers != nil,
		Peers:       len(m.s.cfg.Peers),
	}
	raw, merr := json.Marshal(resp)
	if merr != nil {
		j.finishFail(m.s.log.Printf, &jobError{errClassInternal, merr.Error()})
		return
	}
	j.finishDone(m.s.log.Printf, raw)
	m.s.log.Printf("level=info job=%s done points=%d", j.id, totalCompleted)
}

// localSweep runs a sweep in-process with the exact chunk semantics of a
// /v1/sweep/shard peer — per-chunk top-N into the shared merge — so a local
// job journals and resumes identically to a sharded one, and its final
// ranking matches a plain /v1/sweep byte for byte. Every chunk prices
// against the job's one compiled Space, so a job enumerates its mappings
// once however many chunks it runs or resumes.
func (s *Server) localSweep(ctx context.Context, cs *compiledSweep, st *sweepState) error {
	chunk := s.cfg.ShardChunkCells
	if chunk <= 0 {
		chunk = defaultShardChunkCells
	}
	for _, rg := range st.uncovered(cs.space.Cells()) {
		for cur := rg.lo; cur < rg.hi; cur += chunk {
			if err := ctx.Err(); err != nil {
				return classifyErr(err)
			}
			cHi := cur + chunk
			if cHi > rg.hi {
				cHi = rg.hi
			}
			points, n, err := cs.space.Top(ctx, cur, cHi, cs.top)
			if err != nil {
				return classifyErr(err)
			}
			st.collect(ShardChunk{CursorLo: cur, CursorHi: cHi, Completed: n, Points: toShardPoints(points)})
			if err := st.failed(); err != nil {
				return err
			}
			s.met.sweepPoints.add(uint64(n))
		}
	}
	return nil
}

// startPlan creates a plan job. Plans have no incremental progress to
// journal — the journal carries the header and the terminal record; an
// interrupted plan simply re-solves from scratch on restart.
func (m *jobManager) startPlan(body []byte, cp *compiledPlan) (string, error) {
	id := newJobID()
	j := &job{id: id, kind: "plan", created: time.Now(), state: jobRunning}
	if m.s.cfg.JournalDir != "" {
		w, err := createJournal(m.s.cfg.JournalDir, id, &m.s.met.journalBytes)
		if err != nil {
			return "", err
		}
		if err := w.append(journalRecord{
			T: "job", ID: id, Kind: "plan", Body: body, Created: j.created.Unix(),
		}); err != nil {
			w.close()
			return "", err
		}
		j.w = w
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	if err := m.register(j); err != nil {
		cancel(nil)
		if j.w != nil {
			j.w.close()
		}
		return "", err
	}
	m.wg.Add(1)
	go m.runPlan(ctx, j, cp)
	return id, nil
}

func (m *jobManager) runPlan(ctx context.Context, j *job, cp *compiledPlan) {
	defer m.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			m.s.met.panics.inc()
			j.finishFail(m.s.log.Printf, &jobError{errClassInternal, fmt.Sprintf("job runner panic: %v", rec)})
		}
	}()
	resp, err := m.s.solvePlan(ctx, cp)
	if err != nil {
		if context.Cause(ctx) == errSuspend {
			j.finishSuspend(m.s.log.Printf)
			return
		}
		j.finishFail(m.s.log.Printf, classifyErr(err))
		return
	}
	raw, merr := json.Marshal(resp)
	if merr != nil {
		j.finishFail(m.s.log.Printf, &jobError{errClassInternal, merr.Error()})
		return
	}
	j.finishDone(m.s.log.Printf, raw)
}

// recover replays the journal directory on startup: terminal journals
// re-register as finished jobs served verbatim, and interrupted ones —
// crash or clean suspend alike — resume from their last durable chunk.
func (m *jobManager) recover() {
	dir := m.s.cfg.JournalDir
	if dir == "" {
		return
	}
	ids, err := listJournals(dir)
	if err != nil {
		m.s.log.Printf("level=warn journal dir scan failed: %v", err)
		return
	}
	for _, id := range ids {
		if err := m.recoverOne(dir, id); err != nil {
			m.s.log.Printf("level=warn job=%s journal recovery failed: %v", id, err)
		}
	}
}

func (m *jobManager) recoverOne(dir, id string) error {
	path := journalPath(dir, id)
	recs, valid, err := replayJournal(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 || recs[0].T != "job" || recs[0].ID != id {
		return fmt.Errorf("journal has no valid header")
	}
	header := recs[0]
	j := &job{
		id: id, kind: header.Kind, created: time.Unix(header.Created, 0),
		state: jobRunning,
	}

	// A terminal record finishes recovery immediately: the stored result is
	// the job's answer, byte-identical to what the pre-restart process held.
	for _, rec := range recs[1:] {
		switch rec.T {
		case "done":
			j.state, j.result = jobDone, rec.Result
			return m.register(j)
		case "fail":
			j.state, j.class, j.errMsg = jobFailed, rec.Class, rec.Error
			return m.register(j)
		}
	}

	// Interrupted (crash) or suspended (drain): resume. Recompile the
	// request from the journaled body, seed the merge from the durable
	// chunks, and hand the remainder to a fresh runner.
	w, err := resumeJournal(path, valid, &m.s.met.journalBytes)
	if err != nil {
		return err
	}
	switch header.Kind {
	case "sweep":
		cs, cerr := m.s.compileSweep(context.Background(), header.Body)
		if cerr != nil {
			j.w = w
			j.finishFail(m.s.log.Printf, classifyErr(cerr))
			return m.register(j)
		}
		j.total = cs.space.Cells()
		j.st = &sweepState{dups: &m.s.met.shardDuplicates}
		for _, rec := range recs[1:] {
			if rec.T == "chunk" {
				j.st.seed(ShardChunk{
					CursorLo: rec.Lo, CursorHi: rec.Hi,
					Completed: rec.Completed, Points: rec.Points,
				})
			}
		}
		j.w = w
		j.st.onChunk = func(c ShardChunk) error {
			return w.append(journalRecord{
				T: "chunk", Lo: c.CursorLo, Hi: c.CursorHi,
				Completed: c.Completed, Points: c.Points,
			})
		}
		j.resumes = 1
		for _, rec := range recs[1:] {
			if rec.T == "suspend" {
				j.resumes++
			}
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		j.cancel = cancel
		if err := m.register(j); err != nil {
			cancel(nil)
			w.close()
			return err
		}
		m.s.met.jobResumes.inc()
		m.s.log.Printf("level=info job=%s resumed covered=%d/%d", id, j.st.coveredCells(), j.total)
		m.wg.Add(1)
		go m.runSweep(ctx, j, cs)
	case "plan":
		cp, cerr := m.s.compilePlan(context.Background(), header.Body)
		if cerr != nil {
			j.w = w
			j.finishFail(m.s.log.Printf, classifyErr(cerr))
			return m.register(j)
		}
		j.w = w
		j.resumes = 1
		ctx, cancel := context.WithCancelCause(context.Background())
		j.cancel = cancel
		if err := m.register(j); err != nil {
			cancel(nil)
			w.close()
			return err
		}
		m.s.met.jobResumes.inc()
		m.wg.Add(1)
		go m.runPlan(ctx, j, cp)
	default:
		w.close()
		return fmt.Errorf("journal header has unknown kind %q", header.Kind)
	}
	return nil
}

// handleSweepJobCreate accepts a sweep job: the request is validated and
// compiled synchronously (a bad request fails here, not in the background),
// the journal header is made durable, and the job ID comes back in a 202.
func (s *Server) handleSweepJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.error(w, r, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cs, err := s.compileSweep(r.Context(), body)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, classifyErr(err).msg)
		return
	}
	id, err := s.jobs.startSweep(body, cs)
	if err != nil {
		if errors.Is(err, errSuspend) {
			s.error(w, r, http.StatusServiceUnavailable, "server draining")
			return
		}
		s.error(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"job_id": id, "state": jobRunning, "url": "/v1/jobs/" + id,
	})
}

// handlePlanJobCreate accepts a plan job; same contract as sweep jobs.
func (s *Server) handlePlanJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.error(w, r, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	cp, err := s.compilePlan(r.Context(), body)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, classifyErr(err).msg)
		return
	}
	id, err := s.jobs.startPlan(body, cp)
	if err != nil {
		if errors.Is(err, errSuspend) {
			s.error(w, r, http.StatusServiceUnavailable, "server draining")
			return
		}
		s.error(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"job_id": id, "state": jobRunning, "url": "/v1/jobs/" + id,
	})
}

// handleJobGet reports one job. Deliberately available while draining: a
// drain is exactly when an operator wants to see suspended-job state.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.error(w, r, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobList summarizes every job in the process (results elided).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobs.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs.jobs))
	for _, j := range s.jobs.jobs {
		jobs = append(jobs, j)
	}
	s.jobs.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		st.Result = nil
		out = append(out, st)
	}
	sortJobStatuses(out)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func sortJobStatuses(out []JobStatus) {
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
}
