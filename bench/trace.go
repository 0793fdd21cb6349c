package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the bench into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0 for a root span
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
	// Request is the X-Request-Id of an HTTP call's reply.
	Request string `json:"request_id,omitempty"`
	Cells   int64  `json:"cells,omitempty"`
	Note    string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for none) and returns its ID.
func (t *tracer) begin(parent int, name string, cells int64) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(now), Cells: cells})
	return id
}

// end closes a span, records the reply's request ID and a note, and
// returns the span's duration.
func (t *tracer) end(id int, request, note string) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS, s.Request, s.Note = int64(now), request, note
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a finished HTTP exchange as a span under parent.
func (t *tracer) add(parent int, name string, r reply) {
	start := r.start.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(start), EndNS: int64(start + r.d), Request: r.id})
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
