package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
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

// finish writes the job's last journal record, closes the journal and
// moves the job to the state the record names. A done record makes the
// result durable, so a restarted server answers the job from the journal
// without re-running anything. A suspend record is advisory (any
// non-terminal journal resumes on restart); what matters is that every
// durable chunk is already fsynced and the file closes on a whole record.
func (j *job) finish(log func(string, ...any), rec journalRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		if err := j.w.append(rec); err != nil {
			log("level=warn job=%s journal %s record failed: %v", j.id, rec.T, err)
		}
		j.w.close()
		j.w = nil
	}
	j.settle(rec)
}

func (j *job) finishFail(log func(string, ...any), je *jobError) {
	j.finish(log, journalRecord{T: "fail", Class: je.class, Error: je.msg})
}

// settle moves the job to the state a done, fail or suspend record names.
func (j *job) settle(rec journalRecord) {
	switch rec.T {
	case "done":
		j.state, j.result = jobDone, rec.Result
	case "fail":
		j.state, j.class, j.errMsg = jobFailed, rec.Class, rec.Error
	case "suspend":
		j.state = jobSuspended
	}
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

// startSweep compiles a sweep body and starts it as a job.
func (m *jobManager) startSweep(ctx context.Context, body []byte) (string, error) {
	cs, err := m.s.compileSweep(ctx, body)
	if err != nil {
		return "", err
	}
	j := &job{kind: "sweep", total: cs.space.Cells(), st: &sweepState{dups: &m.s.met.shardDuplicates}}
	return m.start(j, body, m.sweepWork(j, cs))
}

// startPlan compiles a plan body and starts it as a job. Plans have no
// incremental progress to journal — the journal carries the header and the
// terminal record; an interrupted plan simply re-solves from scratch on
// restart.
func (m *jobManager) startPlan(ctx context.Context, body []byte) (string, error) {
	cp, err := m.s.compilePlan(ctx, body)
	if err != nil {
		return "", err
	}
	return m.start(&job{kind: "plan"}, body, m.planWork(cp))
}

// sweepWork is a sweep job's work: the one sweep runner into the job's
// merge, rendered by the one response builder.
func (m *jobManager) sweepWork(j *job, cs *compiledSweep) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		if err := m.s.runSweep(ctx, cs, j.st); err != nil {
			return nil, err
		}
		return m.s.sweepResponse(cs, j.st, time.Since(j.created), false), nil
	}
}

func (m *jobManager) planWork(cp *compiledPlan) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) { return m.s.solvePlan(ctx, cp) }
}

// start creates a job from an already-compiled request: journal header
// first (a job that cannot journal is refused, not silently volatile),
// then launch.
func (m *jobManager) start(j *job, body []byte, work func(context.Context) (any, error)) (string, error) {
	j.id, j.created, j.state = newJobID(), time.Now(), jobRunning
	if dir := m.s.cfg.JournalDir; dir != "" {
		w, err := createJournal(dir, j.id, &m.s.met.journalBytes)
		if err != nil {
			return "", err
		}
		if err := w.append(journalRecord{
			T: "job", ID: j.id, Kind: j.kind, Body: body, Created: j.created.Unix(),
		}); err != nil {
			w.close()
			return "", err
		}
		j.w = w
	}
	if err := m.launch(j, work); err != nil {
		return "", err
	}
	return j.id, nil
}

// journalChunks is a sweep merge's durable-write hook: every fresh chunk
// becomes one fsynced journal record before it is merged.
func journalChunks(w *journalWriter) func(ShardChunk) error {
	return func(c ShardChunk) error {
		return w.append(journalRecord{
			T: "chunk", Lo: c.CursorLo, Hi: c.CursorHi,
			Completed: c.Completed, Points: c.Points,
		})
	}
}

// launch registers j and starts its runner. A journaled sweep's merge gets
// its journal hook here, after recovery has collected the durable chunks.
// A refused job (a drain raced the create) releases its journal.
func (m *jobManager) launch(j *job, work func(context.Context) (any, error)) error {
	if j.st != nil && j.w != nil {
		j.st.onChunk = journalChunks(j.w)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	if err := m.register(j); err != nil {
		cancel(nil)
		if j.w != nil {
			j.w.close()
		}
		return err
	}
	m.wg.Add(1)
	go m.run(ctx, j, work)
	return nil
}

// run drives one job to a terminal state: done with work's result, failed
// with a classified error, or suspended when a drain cancelled it.
func (m *jobManager) run(ctx context.Context, j *job, work func(context.Context) (any, error)) {
	defer m.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			m.s.met.panics.inc()
			j.finishFail(m.s.log.Printf, &jobError{errClassInternal, fmt.Sprintf("job runner panic: %v", rec)})
		}
	}()
	result, err := work(ctx)
	if err != nil {
		if context.Cause(ctx) == errSuspend {
			j.finish(m.s.log.Printf, journalRecord{T: "suspend"})
			st := j.status()
			m.s.log.Printf("level=info job=%s suspended covered=%d/%d", j.id, st.CoveredCells, st.TotalCells)
			return
		}
		je := classifyErr(err)
		j.finishFail(m.s.log.Printf, je)
		m.s.log.Printf("level=warn job=%s failed class=%s err=%q", j.id, je.class, je.msg)
		return
	}
	raw, err := json.Marshal(result)
	if err != nil {
		j.finishFail(m.s.log.Printf, &jobError{errClassInternal, err.Error()})
		return
	}
	j.finish(m.s.log.Printf, journalRecord{T: "done", Result: raw})
	m.s.log.Printf("level=info job=%s done", j.id)
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
		if rec.T == "done" || rec.T == "fail" {
			j.settle(rec)
			return m.register(j)
		}
	}

	// Interrupted (crash) or suspended (drain): resume. Recompile the
	// request from the journaled body, collect the durable chunks into a
	// sweep's merge, and hand the remainder to a fresh runner.
	w, err := resumeJournal(path, valid, &m.s.met.journalBytes)
	if err != nil {
		return err
	}
	j.w = w
	var work func(context.Context) (any, error)
	switch header.Kind {
	case "sweep":
		cs, cerr := m.s.compileSweep(context.Background(), header.Body)
		if cerr != nil {
			j.finishFail(m.s.log.Printf, classifyErr(cerr))
			return m.register(j)
		}
		j.total, j.st = cs.space.Cells(), &sweepState{dups: &m.s.met.shardDuplicates}
		for _, rec := range recs[1:] {
			if rec.T == "chunk" {
				j.st.collect(ShardChunk{
					CursorLo: rec.Lo, CursorHi: rec.Hi,
					Completed: rec.Completed, Points: rec.Points,
				})
			}
		}
		work = m.sweepWork(j, cs)
	case "plan":
		cp, cerr := m.s.compilePlan(context.Background(), header.Body)
		if cerr != nil {
			j.finishFail(m.s.log.Printf, classifyErr(cerr))
			return m.register(j)
		}
		work = m.planWork(cp)
	default:
		w.close()
		return fmt.Errorf("journal header has unknown kind %q", header.Kind)
	}
	j.resumes = 1
	for _, rec := range recs[1:] {
		if rec.T == "suspend" {
			j.resumes++
		}
	}
	if err := m.launch(j, work); err != nil {
		return err
	}
	m.s.met.jobResumes.inc()
	m.s.log.Printf("level=info job=%s resumed covered=%d/%d", id, j.status().CoveredCells, j.total)
	return nil
}

// handleSweepJobCreate accepts a sweep job (createJob).
func (s *Server) handleSweepJobCreate(w http.ResponseWriter, r *http.Request) {
	s.createJob(w, r, s.jobs.startSweep)
}

// handlePlanJobCreate accepts a plan job (createJob).
func (s *Server) handlePlanJobCreate(w http.ResponseWriter, r *http.Request) {
	s.createJob(w, r, s.jobs.startPlan)
}

// createJob accepts a job: start validates and compiles the request
// synchronously (a bad request fails here, not in the background), makes
// the journal header durable and launches the runner; the job ID comes
// back in a 202.
func (s *Server) createJob(w http.ResponseWriter, r *http.Request, start func(context.Context, []byte) (string, error)) {
	if !s.accept(w, r) {
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	id, err := start(r.Context(), body)
	var je *jobError
	switch {
	case errors.As(err, &je):
		s.error(w, r, http.StatusBadRequest, je.msg)
		return
	case errors.Is(err, errSuspend):
		s.error(w, r, http.StatusServiceUnavailable, "server draining")
		return
	case err != nil:
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
	slices.SortFunc(out, func(a, b JobStatus) int { return strings.Compare(a.ID, b.ID) })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}
