package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/plan"
	"amped/internal/serve"
)

// The layer ladder sends the same request bodies through every layer they
// pass on the way to an answer, at growing cell counts, and fits each
// layer's time as a fixed part plus a per-cell part. Every call is a span
// recorded here, around a module's public entry point or an HTTP exchange;
// the program itself is not instrumented.

// ladderRungs are the cell counts of the ladder's spaces. The bottom rung
// pins the fixed costs; the top rung is where sharding should win and
// 5·10⁴ where it should still lose. A 10⁶ rung would hold about 1 GB of
// materialized points per local sweep.
var ladderRungs = []int64{100, 1_000, 10_000, 50_000, 300_000}

// ladderReps is how many times each rung's calls repeat; medians count.
const ladderReps = 3

// microReps repeats the per-point kernel loops, which run pointLoop calls
// per span.
const (
	microReps = 5
	pointLoop = 20_000
)

// burstRequests is how many interactive requests the traced run sends to
// read the session cache and admission counters from /metrics.
const burstRequests = 4000

// perLayer are the traced run's metrics, named module.metric. The README
// maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"config.decode_us", "us", "lower", 0},
	{"model.compile_us", "us", "lower", 0},
	{"model.evaluate_point_ns", "ns", "lower", 0},
	{"model.inference_point_ns", "ns", "lower", 0},
	{"model.batch_ns_per_cell", "ns", "lower", 0},
	{"model.lower_bound_ns_per_cell", "ns", "lower", 0},
	{"parallel.enumerate_ms", "ms", "lower", 0},
	{"explore.layout_fixed_ms", "ms", "lower", 0},
	{"explore.layout_ns_per_cell", "ns", "lower", 0},
	{"explore.sweep_fixed_ms", "ms", "lower", 0},
	{"explore.sweep_ns_per_cell", "ns", "lower", 0},
	{"explore.sweep_alloc_bytes_per_cell", "B", "lower", 0},
	{"explore.sort_ns_per_point", "ns", "lower", 0},
	{"explore.chunk4096_overhead_x", "x", "lower", 0},
	{"plan.solve_fixed_ms", "ms", "lower", 0},
	{"plan.solve_ns_per_cell", "ns", "lower", 0},
	{"plan.expanded_fraction", "ratio", "lower", 0},
	{"serve.evaluate_hit_us", "us", "lower", 0},
	{"serve.evaluate_miss_us", "us", "lower", 0},
	{"serve.sweep_fixed_ms", "ms", "lower", 0},
	{"serve.sweep_ns_per_cell", "ns", "lower", 0},
	{"serve.sweep_self_ns_per_cell", "ns", "lower", 0},
	{"serve.shard_fixed_ms", "ms", "lower", 0},
	{"serve.shard_ns_per_cell", "ns", "lower", 0},
	{"serve.plan_ms", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"net.loopback_fixed_ms", "ms", "lower", 0},
	{"fanout.sweep_fixed_ms", "ms", "lower", 0},
	{"fanout.sweep_ns_per_cell", "ns", "lower", 0},
	{"fanout.overhead_ms", "ms", "lower", 0},
	{"fanout.shards_per_request", "count", "lower", 0},
	{"fanout.retries", "count", "lower", 0},
	{"fanout.duplicate_chunks", "count", "lower", 0},
	{"fanout.hedges", "count", "lower", 0},
	{"journal.job_fixed_ms", "ms", "lower", 0},
	{"journal.job_ns_per_cell", "ns", "lower", 0},
	{"journal.append_ms_per_chunk", "ms", "lower", 0},
	{"journal.bytes_per_cell", "B", "lower", 0},
}

// rungReport is one rung's median milliseconds per span name.
type rungReport struct {
	Cells int64              `json:"cells"`
	MS    map[string]float64 `json:"ms"`
}

// point is one timed call: x is the work it did (cells, points or loop
// iterations) and ms its duration.
type point struct{ x, ms float64 }

type ladder struct {
	tr   *tracer
	root int
	// calls holds every timed call by span name and rung (0 outside the
	// rungs).
	calls             map[string]map[int64][]point
	recorded          []pointRef
	probes            []time.Duration
	attempted, failed int64
	errs              []string

	// Values read beside the timings.
	allocPerCell           map[int64][]float64 // explore.SweepContext, by rung
	expanded, planCells    int64               // plan.Solve statistics over the rungs
	fanoutRequests         int64
	journalCells           int64
	burst, fanout, journal scrape
}

// fleets are the nodes the ladder sends HTTP requests to.
type fleets struct {
	local     *fleet // one node, as explore-local
	sharded   *fleet // coordinator and two peers, as sweep-sharded
	journaled *fleet // coordinator and two peers with a journal, as jobs
	plain     *fleet // the same without a journal
	inproc    *serve.Server
}

func (f *fleets) stop() {
	for _, fl := range []*fleet{f.local, f.sharded, f.journaled, f.plain} {
		if fl != nil {
			fl.stop()
		}
	}
	if f.inproc != nil {
		f.inproc.Close()
	}
}

// runLadder is the traced run. Whatever workload names it, it climbs the
// same ladder: each per-layer metric names the workload it predicts.
func runLadder(seed int64, rungs []int64, sz sizes, tmp, spansPath string, m *meta, log io.Writer) (*result, error) {
	start := time.Now()
	l := &ladder{tr: newTracer(), calls: map[string]map[int64][]point{}, allocPerCell: map[int64][]float64{}}
	l.root = l.tr.begin(0, "ladder", 0)

	d := newDraws(seed, saltLadder)
	spaces := make([]space, len(rungs))
	cells := make([]int64, len(rungs))
	for i, n := range rungs {
		var err error
		if spaces[i], err = genSpace(d, dense, n); err != nil {
			return nil, err
		}
		cells[i] = spaces[i].cells
	}

	journal := filepath.Join(tmp, "journal")
	if err := os.MkdirAll(journal, 0o755); err != nil {
		return nil, err
	}
	f := &fleets{inproc: serve.New(serve.Config{})}
	defer f.stop()
	var err error
	if f.local, err = bootFleet(serve.Config{}, 0); err != nil {
		return nil, err
	}
	if f.sharded, err = bootFleet(serve.Config{}, 2); err != nil {
		return nil, err
	}
	if f.journaled, err = bootFleet(serve.Config{JournalDir: journal, ShardChunkCells: jobChunkCells}, 2); err != nil {
		return nil, err
	}
	if f.plain, err = bootFleet(serve.Config{ShardChunkCells: jobChunkCells}, 2); err != nil {
		return nil, err
	}

	// The per-request layers go first, on a small heap; the rungs then
	// climb to the largest spaces.
	if err := l.micro(seed, sz); err != nil {
		return nil, err
	}
	l.network(spaces[0], f.local)
	for _, s := range spaces {
		if err := l.rung(s, f); err != nil {
			return nil, err
		}
	}
	if l.fanout, err = scrapeMetrics(f.sharded.front.url); err != nil {
		return nil, err
	}
	if l.journal, err = scrapeMetrics(f.journaled.front.url); err != nil {
		return nil, err
	}
	l.tr.end(l.root, "", "")
	if err := l.tr.write(spansPath); err != nil {
		return nil, err
	}

	vals, err := l.metrics(cells)
	if err != nil {
		return nil, err
	}
	metrics := make(map[string]metric, len(perLayer))
	m.Samples = map[string]int{}
	for _, d := range perLayer {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("traced run did not produce %s", d.Name)
		}
		metrics[d.Name] = metric{v, d.Unit}
	}
	for name, byRung := range l.calls {
		for _, pts := range byRung {
			m.Samples[name] += len(pts)
		}
	}
	m.Ladder = l.report(cells)
	for _, p := range l.probes {
		m.ProbesUS = append(m.ProbesUS, float64(p)/1e3)
	}
	m.Errors = l.errs
	l.print(log, m.Ladder, metrics, spansPath, time.Since(start))
	return &result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: metrics}, nil
}

// call times f as a span named name under parent, filed under rung with x
// units of work. A failed call is counted and its time discarded.
func (l *ladder) call(parent int, name string, rung int64, x float64, f func(span int) (requestID string, err error)) {
	id := l.tr.begin(parent, name, rung)
	rid, err := f(id)
	d := l.tr.end(id, rid, "")
	l.attempted++
	if err != nil {
		l.fail(fmt.Errorf("%s at %d cells: %w", name, rung, err))
		return
	}
	l.record(name, rung, x, d)
}

func (l *ladder) record(name string, rung int64, x float64, d time.Duration) {
	if l.calls[name] == nil {
		l.calls[name] = map[int64][]point{}
	}
	l.calls[name][rung] = append(l.calls[name][rung], point{x, ms(d)})
	l.recorded = append(l.recorded, pointRef{name, rung, len(l.calls[name][rung]) - 1})
}

// pointRef locates one recorded call.
type pointRef struct {
	name string
	rung int64
	i    int
}

// section opens a span for one stretch of the ladder between two speed
// probes; the returned end closes it and scales every time recorded inside
// to the reference speed, as the end-to-end runs do.
func (l *ladder) section(name string, cells int64) (id int, end func()) {
	before := probe()
	id = l.tr.begin(l.root, name, cells)
	mark := len(l.recorded)
	return id, func() {
		l.tr.end(id, "", "")
		after := probe()
		l.probes = append(l.probes, before, after)
		scale := speedScale(before, after)
		for _, r := range l.recorded[mark:] {
			l.calls[r.name][r.rung][r.i].ms *= scale
		}
	}
}

func (l *ladder) fail(err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// rung sends one space through every layer ladderReps times.
func (l *ladder) rung(s space, f *fleets) error {
	n := s.cells
	rid, end := l.section("rung", n)
	defer end()
	doc := s.document()
	comp, err := doc.Components()
	if err != nil {
		return err
	}
	sess, err := comp.Compile()
	if err != nil {
		return err
	}
	sc := explore.Scenario{Session: sess}
	opt := s.options()
	sweepBody := s.sweepBody()
	shardBody := mustJSON(serve.ShardRequest{SweepRequest: s.req})
	ctx := context.Background()
	clients := map[*fleet]*client{}
	for _, fl := range []*fleet{f.local, f.sharded, f.journaled, f.plain} {
		clients[fl] = newClient(fl.front.url)
		defer clients[fl].close()
	}

	var want *ranking
	for rep := 0; rep < ladderReps; rep++ {
		var pts []explore.Point
		l.call(rid, "explore.layout", n, float64(n), func(int) (string, error) {
			var err error
			pts, _, err = explore.Layout(&sc, opt)
			return "", err
		})
		var in model.BatchInput
		for i := range pts {
			if pts[i].Err == nil {
				in.Mappings = append(in.Mappings, pts[i].Mapping)
				in.Batches = append(in.Batches, pts[i].Batch)
				in.Microbatches = append(in.Microbatches, pts[i].ChosenMicrobatches())
			}
		}
		var out model.BatchOutput
		l.call(rid, "model.evaluate_batch", n, float64(len(in.Mappings)), func(int) (string, error) {
			return "", sess.EvaluateBatch(in, &out)
		})
		l.call(rid, "model.lower_bound", n, float64(len(in.Mappings)), func(int) (string, error) {
			for i := range pts {
				if pts[i].Err == nil {
					explore.CellLowerBound(&pts[i], sess)
				}
			}
			return "", nil
		})
		pts, in, out = nil, model.BatchInput{}, model.BatchOutput{}

		var swept []explore.Point
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.call(rid, "explore.sweep", n, float64(n), func(int) (string, error) {
			var err error
			swept, err = explore.SweepContext(ctx, sc, opt)
			return "", err
		})
		runtime.ReadMemStats(&after)
		l.allocPerCell[n] = append(l.allocPerCell[n], float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
		l.call(rid, "explore.sort", n, float64(len(swept)), func(int) (string, error) {
			explore.SortByTime(swept)
			return "", nil
		})
		if want == nil {
			if want, err = rankingOf(swept[:min(s.req.Sweep.Top, len(swept))], len(swept)); err != nil {
				return err
			}
		}
		swept = nil

		l.call(rid, "explore.sweep_chunk4096", n, float64(n), func(int) (string, error) {
			for lo := int64(0); lo < n; lo += jobChunkCells {
				copt := opt
				copt.CursorLo, copt.CursorHi = lo, min(lo+jobChunkCells, n)
				if _, err := explore.SweepContext(ctx, sc, copt); err != nil {
					return "", err
				}
			}
			return "", nil
		})
		l.call(rid, "plan.solve", n, float64(n), func(int) (string, error) {
			res, err := plan.Solve(sc, opt)
			if err != nil {
				return "", err
			}
			if rep == 0 {
				l.expanded += res.Stats.CellsExpanded
				l.planCells += res.Stats.CellsTotal
			}
			if res.Best == nil {
				return "", fmt.Errorf("no best point")
			}
			if got := mustJSON(wirePoint(*res.Best)); !bytes.Equal(got, want.best) || res.RankSeconds != want.rankS {
				return "", fmt.Errorf("best %s, want %s", got, want.best)
			}
			return "", nil
		})
		l.call(rid, "serve.sweep", n, float64(n), func(int) (string, error) {
			rec := inProcess(f.inproc, "/v1/sweep", sweepBody)
			if rec.Code != http.StatusOK {
				return "", fmt.Errorf("status %d", rec.Code)
			}
			return rec.Header().Get("X-Request-Id"), checkSweep(rec.Body.Bytes(), want)
		})
		l.call(rid, "serve.shard", n, float64(n), func(int) (string, error) {
			rec := inProcess(f.inproc, "/v1/sweep/shard", shardBody)
			return rec.Header().Get("X-Request-Id"), checkShardStream(rec, want.total)
		})
		for _, hop := range []struct {
			name string
			fl   *fleet
		}{{"net.sweep_loopback", f.local}, {"fanout.sweep", f.sharded}} {
			c := clients[hop.fl]
			l.call(rid, hop.name, n, float64(n), func(int) (string, error) {
				r, err := c.do(http.MethodPost, "/v1/sweep", sweepBody)
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", r.status, r.body)
				}
				if err == nil {
					err = checkSweep(r.body, want)
				}
				return r.id, err
			})
		}
		l.fanoutRequests++
		for _, hop := range []struct {
			name string
			fl   *fleet
		}{{"journal.job", f.journaled}, {"journal.job_nojournal", f.plain}} {
			c := clients[hop.fl]
			l.call(rid, hop.name, n, float64(n), func(jid int) (string, error) {
				res, err := runJob(c, "/v1/sweep/jobs", sweepBody, func(r reply, poll bool) {
					name := "http.submit"
					if poll {
						name = "http.poll"
					}
					l.tr.add(jid, name, r)
				})
				if err != nil {
					return "", err
				}
				return "", checkSweep(res, want)
			})
			if hop.fl == f.journaled {
				l.journalCells += n
			}
		}
	}
	return nil
}

// inProcess calls a handler directly, with no socket in between.
func inProcess(srv *serve.Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// checkShardStream checks a whole-space shard stream: status 200, a done
// marker, and chunks that together completed every valid cell.
func checkShardStream(rec *httptest.ResponseRecorder, total int) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d", rec.Code)
	}
	completed, done := 0, false
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(nil, 8<<20)
	for sc.Scan() {
		var c serve.ShardChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return err
		}
		if c.Error != "" {
			return fmt.Errorf("shard stream: %s", c.Error)
		}
		completed += c.Completed
		done = done || c.Done
	}
	if !done || completed != total {
		return fmt.Errorf("shard stream: done %v, %d points completed, want %d", done, completed, total)
	}
	return nil
}

// networkReps is how many times the network probe sends the smallest
// space each way.
const networkReps = 200

// network times the smallest space's sweep on one node, alternately over
// loopback and straight into the same node's handler: the difference is
// what the socket and HTTP transport add to a request.
func (l *ladder) network(s space, fl *fleet) {
	nid, end := l.section("network", s.cells)
	defer end()
	c := newClient(fl.front.url)
	defer c.close()
	body := s.sweepBody()
	for i := 0; i < networkReps; i++ {
		l.call(nid, "net.loopback", 0, 1, func(int) (string, error) {
			r, err := c.do(http.MethodPost, "/v1/sweep", body)
			if err == nil && r.status != http.StatusOK {
				err = fmt.Errorf("status %d", r.status)
			}
			return r.id, err
		})
		l.call(nid, "net.inprocess", 0, 1, func(int) (string, error) {
			rec := inProcess(fl.front.srv, "/v1/sweep", body)
			if rec.Code != http.StatusOK {
				return "", fmt.Errorf("status %d", rec.Code)
			}
			return rec.Header().Get("X-Request-Id"), nil
		})
	}
}

// micro times the per-request and per-point layers on the interactive and
// explore-local inputs, and reads the serving counters from a burst of
// interactive traffic.
func (l *ladder) micro(seed int64, sz sizes) error {
	mid, end := l.section("micro", 0)
	defer end()

	p, err := prepInteractive(seed, sz)
	if err != nil {
		return err
	}
	for i := range p.reqs {
		if p.reqs[i].path != "/v1/evaluate" {
			continue
		}
		body := p.reqs[i].body
		l.call(mid, "config.decode", 0, 1, func(int) (string, error) {
			doc, err := config.Parse(body)
			if err != nil {
				return "", err
			}
			_, err = doc.Components()
			return "", err
		})
	}

	// One training and one serving session per interactive scenario, and
	// a valid point on each for the per-point kernels.
	_, popular, err := genInteractive(seed, 0)
	if err != nil {
		return err
	}
	type trainPoint struct {
		sess       *model.Session
		mp         parallel.Mapping
		batch, nub int
		isess      *model.InferenceSession
		imp        parallel.Mapping
		ibatch     int
	}
	rr := newRand(seed, saltLadder+1)
	tps := make([]trainPoint, 0, len(popular))
	for _, sc := range popular {
		ev, err := interactiveRequest(rr, sc, true)
		if err != nil {
			return err
		}
		in, err := interactiveRequest(rr, sc, false)
		if err != nil {
			return err
		}
		doc, err := config.Parse(ev.body)
		if err != nil {
			return err
		}
		comp, err := doc.Components()
		if err != nil {
			return err
		}
		tp := trainPoint{mp: doc.Mapping.Resolve(), batch: doc.Training.GlobalBatch, nub: doc.Training.Microbatches}
		l.call(mid, "model.compile", 0, 1, func(int) (string, error) {
			tp.sess, err = comp.Compile()
			return "", err
		})
		if tp.sess == nil {
			continue
		}
		idoc, err := config.Parse(in.body)
		if err != nil {
			return err
		}
		icomp, inf, batch, err := idoc.InferenceScenario()
		if err != nil {
			return err
		}
		if tp.isess, err = icomp.CompileInference(inf); err != nil {
			return err
		}
		tp.imp, tp.ibatch = idoc.Mapping.Resolve(), batch
		tps = append(tps, tp)
	}
	for rep := 0; rep < microReps && len(tps) > 0; rep++ {
		var bd model.Breakdown
		l.call(mid, "model.evaluate_point", 0, pointLoop, func(int) (string, error) {
			for i := 0; i < pointLoop; i++ {
				tp := &tps[i%len(tps)]
				if err := tp.sess.EvaluatePoint(tp.mp, tp.batch, tp.nub, &bd); err != nil {
					return "", err
				}
			}
			return "", nil
		})
		var ibd model.InferenceBreakdown
		l.call(mid, "model.inference_point", 0, pointLoop, func(int) (string, error) {
			for i := 0; i < pointLoop; i++ {
				tp := &tps[i%len(tps)]
				if err := tp.isess.EvaluateInferencePoint(tp.imp, tp.ibatch, &ibd); err != nil {
					return "", err
				}
			}
			return "", nil
		})
	}

	// Enumeration over the jobs workload's systems, which every 4096-cell
	// chunk repeats.
	jobSpaces, err := genSpaces(newDraws(seed, saltJobs), sz.spaces, sz.jobs, true)
	if err != nil {
		return err
	}
	for _, s := range jobSpaces {
		sc, err := s.scenario()
		if err != nil {
			return err
		}
		en := s.options().Enumerate
		en.MaxTP, en.MaxPP = sc.Model.Heads, sc.Model.Layers
		for rep := 0; rep < ladderReps; rep++ {
			l.call(mid, "parallel.enumerate", 0, 1, func(int) (string, error) {
				if len(parallel.Enumerate(sc.System, en)) == 0 {
					return "", fmt.Errorf("no mappings")
				}
				return "", nil
			})
		}
	}

	// The evaluate handler in-process, on a cache large enough that every
	// scenario misses once and hits after.
	srv := serve.New(serve.Config{CacheSize: 4096})
	defer srv.Close()
	for i := range p.reqs {
		req := &p.reqs[i]
		if req.path != "/v1/evaluate" {
			continue
		}
		id := l.tr.begin(mid, "serve.evaluate", 1)
		rec := inProcess(srv, req.path, req.body)
		var resp serve.EvaluateResponse
		err := check(req, rec.Code, rec.Body.Bytes())
		if err == nil {
			err = json.Unmarshal(rec.Body.Bytes(), &resp)
		}
		d := l.tr.end(id, rec.Header().Get("X-Request-Id"), resp.Cache)
		l.attempted++
		if err != nil {
			l.fail(err)
			continue
		}
		l.record("serve.evaluate_"+resp.Cache, 0, 1, d)
	}

	// The plan handler in-process on the explore-local spaces.
	localSpaces, err := genSpaces(newDraws(seed, saltLocal), sz.spaces, sz.local, true)
	if err != nil {
		return err
	}
	for _, s := range localSpaces {
		body := s.planBody()
		l.call(mid, "serve.plan", 0, float64(s.cells), func(int) (string, error) {
			rec := inProcess(srv, "/v1/plan", body)
			if rec.Code != http.StatusOK {
				return "", fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
			}
			return rec.Header().Get("X-Request-Id"), nil
		})
	}

	// A burst of interactive traffic on a fresh node, then its counters.
	fl, err := bootFleet(serve.Config{}, 0)
	if err != nil {
		return err
	}
	defer fl.stop()
	var wg sync.WaitGroup
	tallies := make([]tally, 2)
	for k := range tallies {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(fl.front.url)
			defer c.close()
			for i := k; i < burstRequests; i += len(tallies) {
				c.send(&tallies[k], &p.reqs[i%len(p.reqs)])
			}
		}(k)
	}
	wg.Wait()
	for k := range tallies {
		l.attempted += tallies[k].attempted
		l.failed += tallies[k].failed
		l.errs = append(l.errs, tallies[k].errs...)
	}
	l.burst, err = scrapeMetrics(fl.front.url)
	return err
}

// metrics derives every per-layer metric from the recorded calls; rungs
// are the ladder spaces' cell counts.
func (l *ladder) metrics(rungs []int64) (map[string]float64, error) {
	v := map[string]float64{}
	var err error
	fit := func(name, fixed, perCell string) {
		if err != nil {
			return
		}
		var f, s float64
		if f, s, err = l.fit(name); err == nil {
			if fixed != "" {
				v[fixed] = f
			}
			v[perCell] = s * 1e6
		}
	}
	fit("explore.layout", "explore.layout_fixed_ms", "explore.layout_ns_per_cell")
	fit("explore.sweep", "explore.sweep_fixed_ms", "explore.sweep_ns_per_cell")
	fit("model.evaluate_batch", "", "model.batch_ns_per_cell")
	fit("model.lower_bound", "", "model.lower_bound_ns_per_cell")
	fit("plan.solve", "plan.solve_fixed_ms", "plan.solve_ns_per_cell")
	fit("serve.sweep", "serve.sweep_fixed_ms", "serve.sweep_ns_per_cell")
	fit("serve.shard", "serve.shard_fixed_ms", "serve.shard_ns_per_cell")
	fit("fanout.sweep", "fanout.sweep_fixed_ms", "fanout.sweep_ns_per_cell")
	fit("journal.job", "journal.job_fixed_ms", "journal.job_ns_per_cell")
	if err != nil {
		return nil, err
	}

	top := rungs[len(rungs)-1]
	med := func(name string, rung int64) float64 { return medianMS(l.calls[name][rung]) }
	perUnit := func(name string, rung int64) float64 { return medianPerUnit(l.calls[name][rung]) }

	var xs, ys []float64
	for _, n := range rungs {
		xs = append(xs, float64(n))
		ys = append(ys, med("serve.sweep", n)-med("explore.sweep", n)-med("explore.sort", n))
	}
	_, self, err := fitLine(xs, ys)
	if err != nil {
		return nil, err
	}
	v["serve.sweep_self_ns_per_cell"] = self * 1e6

	v["config.decode_us"] = med("config.decode", 0) * 1e3
	v["model.compile_us"] = med("model.compile", 0) * 1e3
	v["model.evaluate_point_ns"] = perUnit("model.evaluate_point", 0) * 1e6
	v["model.inference_point_ns"] = perUnit("model.inference_point", 0) * 1e6
	v["parallel.enumerate_ms"] = med("parallel.enumerate", 0)
	v["explore.sweep_alloc_bytes_per_cell"] = median(l.allocPerCell[top])
	v["explore.sort_ns_per_point"] = perUnit("explore.sort", top) * 1e6
	v["explore.chunk4096_overhead_x"] = med("explore.sweep_chunk4096", top) / med("explore.sweep", top)
	v["plan.expanded_fraction"] = float64(l.expanded) / float64(l.planCells)
	v["serve.evaluate_hit_us"] = med("serve.evaluate_hit", 0) * 1e3
	v["serve.evaluate_miss_us"] = med("serve.evaluate_miss", 0) * 1e3
	v["serve.plan_ms"] = med("serve.plan", 0)
	v["net.loopback_fixed_ms"] = med("net.loopback", 0) - med("net.inprocess", 0)

	shardFixed, shardSlope, err := l.fit("serve.shard")
	if err != nil {
		return nil, err
	}
	v["fanout.overhead_ms"] = med("fanout.sweep", top) - (shardFixed + shardSlope*float64(top)/2)
	chunks := math.Ceil(float64(top) / jobChunkCells)
	v["journal.append_ms_per_chunk"] = (med("journal.job", top) - med("journal.job_nojournal", top)) / chunks

	b := l.burst
	lookups := b.sum("amped_session_cache_hits_total") + b.sum("amped_session_cache_misses_total") +
		b.sum("amped_session_cache_joins_total")
	v["serve.cache_hit_ratio"] = b.sum("amped_session_cache_hits_total") / lookups
	v["serve.cache_evictions"] = b.sum("amped_session_cache_evictions_total")
	v["serve.rejected"] = b.sum("amped_requests_rejected_total")
	v["serve.queue_wait_p50_ms"] = b.histQuantile("amped_queue_wait_seconds", 0.5) * 1e3

	fo := l.fanout
	v["fanout.shards_per_request"] = fo.sum("amped_shards_total") / float64(l.fanoutRequests)
	v["fanout.retries"] = fo.sum("amped_shard_retries_total")
	v["fanout.duplicate_chunks"] = fo.sum("amped_shard_duplicate_chunks_total")
	v["fanout.hedges"] = fo.sum("amped_hedges_total")
	v["journal.bytes_per_cell"] = l.journal.sum("amped_journal_bytes_total") / float64(l.journalCells)
	return v, nil
}

// fit splits a layer's time into fixed milliseconds and milliseconds per
// unit of work, over the rungs' medians.
func (l *ladder) fit(name string) (fixedMS, msPerUnit float64, err error) {
	var xs, ys []float64
	for rung, pts := range l.calls[name] {
		if rung == 0 || len(pts) == 0 {
			continue
		}
		x := make([]float64, len(pts))
		for i, p := range pts {
			x[i] = p.x
		}
		xs = append(xs, median(x))
		ys = append(ys, medianMS(pts))
	}
	fixedMS, msPerUnit, err = fitLine(xs, ys)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	return fixedMS, msPerUnit, nil
}

func medianMS(pts []point) float64 {
	v := make([]float64, len(pts))
	for i, p := range pts {
		v[i] = p.ms
	}
	return median(v)
}

func medianPerUnit(pts []point) float64 {
	v := make([]float64, len(pts))
	for i, p := range pts {
		v[i] = p.ms / p.x
	}
	return median(v)
}

// report lists each rung's median milliseconds per span name.
func (l *ladder) report(rungs []int64) []rungReport {
	out := make([]rungReport, len(rungs))
	for i, n := range rungs {
		out[i] = rungReport{Cells: n, MS: map[string]float64{}}
		for name, byRung := range l.calls {
			if pts := byRung[n]; len(pts) > 0 {
				out[i].MS[name] = medianMS(pts)
			}
		}
	}
	return out
}

func (l *ladder) print(w io.Writer, rungs []rungReport, metrics map[string]metric, spansPath string, took time.Duration) {
	names := []string{"explore.layout", "model.evaluate_batch", "model.lower_bound", "explore.sweep",
		"explore.sort", "explore.sweep_chunk4096", "plan.solve", "serve.sweep", "serve.shard",
		"net.sweep_loopback", "fanout.sweep", "journal.job", "journal.job_nojournal"}
	fmt.Fprintf(w, "bench: ladder, median ms per call\n%-24s", "cells")
	for _, r := range rungs {
		fmt.Fprintf(w, " %12d", r.Cells)
	}
	fmt.Fprintln(w)
	for _, name := range names {
		fmt.Fprintf(w, "%-24s", name)
		for _, r := range rungs {
			fmt.Fprintf(w, " %12.3f", r.MS[name])
		}
		fmt.Fprintln(w)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "bench: %-36s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	self := selfTimes(l.tr.spans)
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return self[keys[i]] > self[keys[j]] })
	fmt.Fprintf(w, "bench: self time by span (%d spans in %s, run took %.1fs)\n", len(l.tr.spans), spansPath, took.Seconds())
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %10.1f ms\n", k, ms(self[k]))
	}
}

// scrape is one /metrics exposition: sample name with labels → value.
type scrape map[string]float64

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of a metric family, whatever its labels.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates a quantile from a cumulative histogram's buckets,
// interpolating linearly inside the bucket that holds it.
func (s scrape) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range s {
		lbl, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(lbl, `"}`), 64)
		if err == nil {
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}
