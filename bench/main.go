// Command bench is the repository benchmark. It drives one workload against
// real serve.Server nodes on loopback listeners, from this one process, and
// times every request at the client. With -trace 1 it instead runs the
// layer ladder: the same request bodies through each module's public entry
// points at growing cell counts, split into fixed and per-cell cost.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before
// it records the machine, the seed and every metric's sample count. See
// bench/README.md for the workloads, metrics and comparator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the input seed when -seed is not given.
const defaultSeed = 1

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a client of the service sees, reported by every
// workload. "main" and "side" are the workload's two request kinds (see the
// README's table). Each bound is about three times the largest spread seen
// over ten-seed run sets, capped at 25%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"main_p50_ms", "ms", "lower", 0.25},
	{"main_p90_ms", "ms", "lower", 0.25},
	{"side_p50_ms", "ms", "lower", 0.25},
	{"side_p90_ms", "ms", "lower", 0.25},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the line before the result: what ran, where, and on how many
// samples each metric rests.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	JournalFS  string         `json:"journal_fs"`
	Samples    map[string]int `json:"samples"`
	// Raw holds the end-to-end metrics as measured, before scaling to the
	// reference speed; ProbesUS are the speed probe's medians in µs.
	Raw      map[string]float64 `json:"raw,omitempty"`
	ProbesUS []float64          `json:"probes_us,omitempty"`
	// ClientConns counts the connections that carried measured requests.
	ClientConns int          `json:"client_conns,omitempty"`
	Errors      []string     `json:"errors,omitempty"`
	Ladder      []rungReport `json:"ladder,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: interactive, explore-local, sweep-sharded or jobs")
	seed := fs.Int64("seed", defaultSeed, "seed the request bodies are generated from")
	seconds := fs.Float64("seconds", 25, "measured duration of an end-to-end run")
	trace := fs.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end run")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	compare := fs.Bool("compare", false, "compare two run sets: -compare A B, each a directory of saved run outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two run-set directories")
			return 2
		}
		ok, err := compareSets(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "amped-bench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	m := newMeta(w.name, *seed, *seconds, *trace, tmp)
	var res *result
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, *seed)
		}
		res, err = runLadder(*seed, ladderRungs, fullSizes, tmp, path, m, stderr)
	} else {
		res, err = runEndToEnd(w, *seed, *seconds, fullSizes, tmp, m, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, e := range m.Errors {
		fmt.Fprintf(stderr, "bench: %s\n", e)
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]*meta{"meta": m})
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd generates the workload's inputs and reference answers, checks
// them against the committed golden digest, then measures the workload.
func runEndToEnd(w *workload, seed int64, seconds float64, sz sizes, tmp string, m *meta, log io.Writer) (*result, error) {
	start := time.Now()
	p, err := w.prepare(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(log, "bench: %s seed %d: %d requests and answers prepared in %.1fs\n",
		w.name, seed, len(p.reqs), time.Since(start).Seconds())
	if err := checkGolden(w.name, seed, p); err != nil {
		return nil, err
	}
	o, err := measure(w, p, seconds, tmp)
	if err != nil {
		return nil, err
	}
	m.ClientConns, m.Errors = o.clientConns, o.errs
	for _, p := range o.probes {
		m.ProbesUS = append(m.ProbesUS, float64(p)/1e3)
	}
	vals, samples, err := endToEndMetrics(o, o.scaled)
	if err != nil {
		return nil, err
	}
	if m.Raw, _, err = endToEndMetrics(o, o.raw); err != nil {
		return nil, err
	}
	m.Samples = samples
	metrics := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		metrics[d.Name] = metric{vals[d.Name], d.Unit}
		fmt.Fprintf(log, "bench: %-14s %-15s %12.6g %-4s (as measured %12.6g) n=%d\n",
			w.name, d.Name, vals[d.Name], d.Unit, m.Raw[d.Name], samples[d.Name])
	}
	return &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}, nil
}

// endToEndMetrics derives every end-to-end metric from a run's timings in
// one scale, with each metric's sample count. A percentile without enough
// samples fails the run.
func endToEndMetrics(o *outcome, t timings) (map[string]float64, map[string]int, error) {
	if o.ops == 0 {
		return nil, nil, fmt.Errorf("no operation completed (%d failed)", o.failed)
	}
	vals := map[string]float64{
		"setup_s":        median(t.setups),
		"requests_per_s": float64(o.ops) / t.wall,
		"cells_per_s":    float64(o.cells) / t.wall,
		"peak_rss_mb":    o.peakRSSMB,
	}
	samples := map[string]int{
		"setup_s":        len(t.setups),
		"requests_per_s": int(o.ops),
		"cells_per_s":    int(o.ops),
		"peak_rss_mb":    1,
	}
	for kind, prefix := range []string{"main", "side"} {
		for _, q := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("%s_p%d_ms", prefix, int(100*q))
			v, err := percentile(t.lat[kind], q)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", name, err)
			}
			vals[name], samples[name] = v, len(t.lat[kind])
		}
	}
	return vals, samples, nil
}

func newMeta(workload string, seed int64, seconds float64, trace int, journal string) *meta {
	return &meta{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		JournalFS:  fsType(journal),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
