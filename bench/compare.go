package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runRecord is one saved end-to-end run: its meta line and its result.
type runRecord struct {
	meta   meta
	result result
}

// readRunSet loads every saved run output in dir (one file per run: the
// harness's standard output). Traced runs are skipped.
func readRunSet(dir string) ([]runRecord, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		rec, ok, err := parseRun(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name(), err)
		}
		if ok && rec.meta.Trace == 0 {
			out = append(out, rec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end run output", dir)
	}
	return out, nil
}

// parseRun reads the meta line and the final result line of one run's
// output; ok is false for output without both.
func parseRun(b []byte) (rec runRecord, ok bool, err error) {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var haveMeta bool
	for _, line := range lines {
		var m struct {
			Meta *meta `json:"meta"`
		}
		if json.Unmarshal(line, &m) == nil && m.Meta != nil {
			rec.meta, haveMeta = *m.Meta, true
		}
	}
	if !haveMeta {
		return rec, false, nil
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
		return rec, false, fmt.Errorf("last line is not a result: %w", err)
	}
	return rec, rec.result.Metrics != nil, nil
}

// compareSets prints, per workload and end-to-end metric, each run set's
// median and quartiles, their spread, the change from A to B and whether it
// stays within the metric's bound. It reports false when any pair fails.
func compareSets(dirA, dirB string, w io.Writer) (bool, error) {
	a, err := readRunSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(dirB)
	if err != nil {
		return false, err
	}
	byWorkload := func(runs []runRecord) map[string][]runRecord {
		m := map[string][]runRecord{}
		for _, r := range runs {
			m[r.meta.Workload] = append(m[r.meta.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	names := make([]string, 0, len(wa))
	for n := range wa {
		if _, ok := wb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("the run sets share no workload")
	}
	fmt.Fprintf(w, "%-14s %-15s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3] spread", "B median [q1, q3] spread", "delta", "bound", "verdict")
	ok := true
	for _, n := range names {
		for _, d := range endToEnd {
			va, vb := values(wa[n], d.Name), values(wb[n], d.Name)
			ma, mb := median(va), median(vb)
			delta := (mb - ma) / ma
			worse := delta
			if d.Better == "higher" {
				worse = -delta
			}
			verdict := "pass"
			if worse > d.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-14s %-15s %-34s %-34s %+7.1f%% %5.0f%%  %s\n",
				n, d.Name, summary(va), summary(vb), 100*delta, 100*d.Bound, verdict)
		}
		fmt.Fprintf(w, "%-14s runs: A %d (seeds %v), B %d (seeds %v); machine A %s, B %s\n", n,
			len(wa[n]), seeds(wa[n]), len(wb[n]), seeds(wb[n]), machine(wa[n][0].meta), machine(wb[n][0].meta))
	}
	return ok, nil
}

func values(runs []runRecord, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.result.Metrics[name].Value)
	}
	return out
}

func seeds(runs []runRecord) []int64 {
	out := make([]int64, len(runs))
	for i, r := range runs {
		out[i] = r.meta.Seed
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func machine(m meta) string {
	return fmt.Sprintf("%d×%q %s GOMAXPROCS=%d commit %.12s journal %s",
		m.NProc, m.CPU, m.Go, m.GOMAXPROCS, m.Commit, m.JournalFS)
}

// summary renders "median [q1, q3] spread%", spread being (q3−q1)/median.
func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", q2, q1, q3, 100*(q3-q1)/q2)
}
