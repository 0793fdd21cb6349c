package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amped/internal/serve"
)

// workload is one traffic mix: the fleet it runs against, how many closed-
// loop clients drive it, and how its requests are generated and sent.
type workload struct {
	name    string
	clients int
	peers   int
	// journaled front nodes keep a job journal and shard in jobChunkCells
	// chunks.
	journaled bool
	prepare   func(seed int64, sz sizes) (*pool, error)
	// op runs one closed-loop operation on req.
	op func(c *client, t *tally, req *request)
}

// pool is a workload's generated inputs with their reference answers. The
// clients send reqs round robin; warm is sent once per setup.
type pool struct {
	reqs []request
	warm []request
}

// sizes sets how much input the generators produce. The full sizes give a
// 25 s run at least 1.4 times the samples a p90 needs even while the host
// runs it at about half speed; tests shrink them.
type sizes struct {
	interactive int   // requests in the interactive pool
	spaces      int   // spaces in each sweep pool
	local       int64 // cells per explore-local space
	shardedMain int64 // cells per sweep-sharded main space
	shardedSide int64 // cells per sweep-sharded side space
	jobs        int64 // cells per jobs space
}

var fullSizes = sizes{
	interactive: 4096,
	spaces:      16,
	local:       25_000,
	shardedMain: 80_000,
	shardedSide: 8_000,
	jobs:        40_000,
}

// jobChunkCells is the jobs workload's shard chunk: small chunks make the
// per-chunk costs (re-enumeration, framing, the fsynced journal append)
// dominate.
const jobChunkCells = 4096

// pollInterval is how often the jobs client polls a running job.
const pollInterval = 5 * time.Millisecond

var workloads = []*workload{
	{
		name:    "interactive",
		clients: 2,
		prepare: prepInteractive,
		op:      (*client).send,
	},
	{
		name:    "explore-local",
		clients: 1,
		prepare: func(seed int64, sz sizes) (*pool, error) {
			return prepSpaces(seed, saltLocal, sz.spaces, sz.local, "/v1/sweep", "/v1/plan")
		},
		op: (*client).send,
	},
	{
		name:    "sweep-sharded",
		clients: 1,
		peers:   2,
		prepare: prepSharded,
		op:      (*client).send,
	},
	{
		name:      "jobs",
		clients:   1,
		peers:     2,
		journaled: true,
		prepare: func(seed int64, sz sizes) (*pool, error) {
			return prepSpaces(seed, saltJobs, sz.spaces, sz.jobs, "/v1/sweep/jobs", "/v1/plan/jobs")
		},
		op: jobOp,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hotScenarios is how many of the most popular interactive scenarios the
// warm-up compiles, each as a training and a serving session.
const hotScenarios = 8

func prepInteractive(seed int64, sz sizes) (*pool, error) {
	reqs, popular, err := genInteractive(seed, sz.interactive)
	if err != nil {
		return nil, err
	}
	p := &pool{reqs: reqs}
	r := newRand(seed, saltInteractive+1)
	for _, sc := range popular[:hotScenarios] {
		for _, evaluate := range []bool{true, false} {
			req, err := interactiveRequest(r, sc, evaluate)
			if err != nil {
				return nil, err
			}
			p.warm = append(p.warm, req)
		}
	}
	ss := newSessions()
	for _, rs := range [][]request{p.reqs, p.warm} {
		for i := range rs {
			if rs[i].want, err = ss.referenceFor(rs[i].body); err != nil {
				return nil, fmt.Errorf("reference for %s: %w", rs[i].body, err)
			}
		}
	}
	return p, nil
}

// prepSpaces draws a pool of mixed dense and MoE spaces near target cells.
// Each space becomes a main request on mainPath (a sweep) and a side request
// on sidePath (a plan), sent in alternation. The warm-up sends the first
// space once on each path.
func prepSpaces(seed, salt int64, n int, target int64, mainPath, sidePath string) (*pool, error) {
	spaces, err := genSpaces(newDraws(seed, salt), n, target, true)
	if err != nil {
		return nil, err
	}
	p := &pool{}
	for _, s := range spaces {
		want, err := rankSpace(s)
		if err != nil {
			return nil, err
		}
		ref := &reference{sweep: want}
		p.reqs = append(p.reqs,
			request{kind: kindMain, path: mainPath, body: s.sweepBody(), cells: s.cells, want: ref},
			request{kind: kindSide, path: sidePath, body: s.planBody(), cells: s.cells, want: ref})
	}
	p.warm = p.reqs[:2]
	return p, nil
}

// prepSharded pairs large main spaces with small side spaces, where the
// fan-out's fixed cost dominates.
func prepSharded(seed int64, sz sizes) (*pool, error) {
	d := newDraws(seed, saltSharded)
	mains, err := genSpaces(d, sz.spaces/2, sz.shardedMain, true)
	if err != nil {
		return nil, err
	}
	sides, err := genSpaces(d, sz.spaces/2, sz.shardedSide, true)
	if err != nil {
		return nil, err
	}
	p := &pool{}
	for i := range mains {
		for kind, s := range []space{mains[i], sides[i]} {
			want, err := rankSpace(s)
			if err != nil {
				return nil, err
			}
			p.reqs = append(p.reqs, request{kind: kind, path: "/v1/sweep", body: s.sweepBody(),
				cells: s.cells, want: &reference{sweep: want}})
		}
	}
	p.warm = p.reqs[:2]
	return p, nil
}

// jobOp runs one sweep or plan job; its latency runs from submit to the
// poll that reports it done.
func jobOp(c *client, t *tally, req *request) {
	start := time.Now()
	res, err := runJob(c, req.path, req.body, func(reply, bool) { t.attempted++ })
	if err == nil {
		if req.kind == kindMain {
			err = checkSweep(res, req.want.sweep)
		} else {
			err = checkPlan(res, req.want.sweep)
		}
	}
	if err != nil {
		t.fail(err)
		return
	}
	t.ops++
	t.cells += req.cells
	t.record(req.kind, time.Since(start))
}

// runJob submits a job on path and polls it every pollInterval until it
// finishes, reporting every exchange to seen; it returns the job's result.
func runJob(c *client, path string, body []byte, seen func(r reply, poll bool)) (json.RawMessage, error) {
	r, err := c.do(http.MethodPost, path, body)
	seen(r, false)
	if err == nil && r.status != http.StatusAccepted {
		err = fmt.Errorf("job submit: status %d: %.200s", r.status, r.body)
	}
	var acc struct {
		JobID string `json:"job_id"`
	}
	if err == nil {
		err = json.Unmarshal(r.body, &acc)
	}
	if err != nil {
		return nil, err
	}
	for {
		time.Sleep(pollInterval)
		r, err := c.do(http.MethodGet, "/v1/jobs/"+acc.JobID, nil)
		seen(r, true)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("job poll: status %d: %.200s", r.status, r.body)
		}
		var st serve.JobStatus
		if err == nil {
			err = json.Unmarshal(r.body, &st)
		}
		switch {
		case err != nil:
			return nil, err
		case st.State == "running":
			continue
		case st.State == "done":
			return st.Result, nil
		}
		return nil, fmt.Errorf("job %s: state %s class %s: %s", acc.JobID, st.State, st.Class, st.Error)
	}
}

// setupReps is how many times a run boots and warms its fleet; setup_s is
// the median. The last fleet serves the measured phase.
const setupReps = 7

// outcome is what one measured run observed. Every time comes twice: as
// measured, and scaled to the reference speed (see probe.go).
type outcome struct {
	tally
	raw, scaled timings
	probes      []time.Duration
	peakRSSMB   float64
	clientConns int
}

// timings are a run's times in one of the two scales.
type timings struct {
	lat    [2][]float64 // kept request latencies in ms, by kind
	wall   float64      // seconds the clients ran
	setups []float64    // seconds per setup
}

// slices is how many parts the measured phase is cut into; the speed probe
// runs before the first and after each one, while the load is paused.
const slices = 20

// measure boots, warms and drives the workload's fleet for the given
// duration. tmp holds the journal directories.
func measure(w *workload, p *pool, seconds float64, tmp string) (*outcome, error) {
	// The reference answers are computed before this point; return their
	// memory and restart the high-water mark, so peak RSS belongs to the
	// serving fleet.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	o := &outcome{probes: []time.Duration{probe()}}
	var f *fleet
	for k := 0; k < setupReps; k++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		var cfg serve.Config
		if w.journaled {
			cfg.JournalDir = filepath.Join(tmp, fmt.Sprintf("journal-%d", k))
			cfg.ShardChunkCells = jobChunkCells
			if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = bootFleet(cfg, w.peers); err != nil {
			return nil, err
		}
		if err := warmUp(w, f, p); err != nil {
			f.stop()
			return nil, err
		}
		o.raw.setups = append(o.raw.setups, time.Since(start).Seconds())
	}
	o.probes = append(o.probes, probe())
	for _, s := range o.raw.setups {
		o.scaled.setups = append(o.scaled.setups, s*speedScale(o.probes[0], o.probes[1]))
	}

	// The load generator never runs more client goroutines, each with its
	// own connection, than the machine has CPUs.
	n := min(w.clients, runtime.NumCPU())
	clients := make([]*client, n)
	tallies := make([]tally, n)
	for i := range clients {
		clients[i] = newClient(f.front.url)
		defer clients[i].close()
	}
	smp := newSamples()
	for i := range tallies {
		tallies[i].samples = smp
	}
	var next atomic.Int64
	var scales []float64
	f.measuring.Store(true)
	for sl := 0; sl < slices; sl++ {
		smp.slice.Store(int64(sl))
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(time.Duration(seconds / slices * float64(time.Second)))
		for i := range clients {
			wg.Add(1)
			go func(c *client, t *tally) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := next.Add(1) - 1
					w.op(c, t, &p.reqs[i%int64(len(p.reqs))])
				}
			}(clients[i], &tallies[i])
		}
		wg.Wait()
		d := time.Since(start).Seconds()
		o.probes = append(o.probes, probe())
		scales = append(scales, speedScale(o.probes[len(o.probes)-2], o.probes[len(o.probes)-1]))
		o.raw.wall += d
		o.scaled.wall += d * scales[sl]
	}
	for i := range tallies {
		o.merge(&tallies[i])
	}
	o.peakRSSMB = peakRSSMB()
	o.clientConns = f.clientConns()
	for k := range o.raw.lat {
		o.raw.lat[k] = smp.latencies(k, nil)
		o.scaled.lat[k] = smp.latencies(k, scales)
	}
	return o, f.stop()
}

// warmUp sends the pool's warm-up requests once; any failure aborts the run.
func warmUp(w *workload, f *fleet, p *pool) error {
	c := newClient(f.front.url)
	defer c.close()
	var t tally
	for i := range p.warm {
		w.op(c, &t, &p.warm[i])
	}
	if t.failed > 0 {
		return fmt.Errorf("warm-up failed: %s", t.errs[0])
	}
	return nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (VmHWM)
// at the current resident set; it is a no-op where /proc lacks clear_refs.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB; 0 where unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
