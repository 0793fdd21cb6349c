package main

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The speed probe measures how fast this machine runs fixed work right now.
// On a shared host the same binary runs up to twice as slow for minutes at
// a time (the probe's own median moves from about 48 µs to about 100 µs),
// which would bury a 10% change under noise. Every time the benchmark
// reports is therefore scaled to the reference speed: multiplied by
// probeRef over the probe's median taken just before and just after the
// interval it belongs to. The probe uses only the standard library, so no
// change to this repository moves it; it runs while the load is paused.

// probeRef is the probe's median iteration on the machine the committed
// baselines were recorded on (2 cores of an Intel Xeon) when it was quiet,
// so scaled times read as that machine's undisturbed times.
const probeRef = 50 * time.Microsecond

// probeIters is how many iterations each CPU runs per probe (about 20 ms).
const probeIters = 400

var probeSink atomic.Uint64

// probeDoc is the probe's fixed JSON document.
type probeDoc struct {
	Name   string
	Values []float64
	Tags   map[string]int
}

// probe runs probeIters iterations of fixed work (a JSON round trip, a
// SHA-256 and a sort) on every CPU at once and returns the median iteration
// time.
func probe() time.Duration {
	doc := probeDoc{Name: "probe", Values: make([]float64, 64), Tags: map[string]int{}}
	for i := range doc.Values {
		doc.Values[i] = float64(len(doc.Values)-i) * 1.5
		doc.Tags[strconv.Itoa(i)] = i
	}
	times := make([][]float64, runtime.NumCPU())
	var wg sync.WaitGroup
	for g := range times {
		wg.Add(1)
		go func(out *[]float64) {
			defer wg.Done()
			for it := 0; it < probeIters; it++ {
				start := time.Now()
				b, err := json.Marshal(doc)
				var back probeDoc
				if err == nil {
					err = json.Unmarshal(b, &back)
				}
				if err != nil {
					panic(err) // a fixed document always round-trips
				}
				sum := sha256.Sum256(b)
				sort.Float64s(back.Values)
				probeSink.Add(uint64(sum[0]) + uint64(back.Values[0]))
				*out = append(*out, float64(time.Since(start)))
			}
		}(&times[g])
	}
	wg.Wait()
	var all []float64
	for _, t := range times {
		all = append(all, t...)
	}
	return time.Duration(median(all))
}

// speedScale is the factor that turns times measured between two probes
// into reference-speed times.
func speedScale(before, after time.Duration) float64 {
	return float64(probeRef) / (float64(before+after) / 2)
}
