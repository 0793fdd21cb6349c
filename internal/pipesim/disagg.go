package pipesim

import (
	"fmt"

	"amped/internal/eventsim"
)

// Disaggregated prefill/decode serving. Production serving fleets
// increasingly split the two inference phases onto separate replica pools:
// prefill replicas run the compute-bound prompt pass, then stream the
// request's KV cache to a decode replica that holds the sequence for the
// whole bandwidth-bound generation. The phases stop contending for the
// same accelerators at the price of a cache transfer per request — whether
// that trade wins depends on the pool ratio and the phase times, which is
// exactly what this two-pool schedule prices. The phase durations come
// from the analytical model (an InferenceBreakdown's TTFT and
// GenTokens·PerToken at the pool's serving batch); the simulator
// contributes the queueing behavior the closed forms cannot see.

// DisaggConfig describes one disaggregated serving run: a closed burst of
// requests through a prefill pool, a per-request KV-cache handoff, and a
// decode pool that holds each request for its full generation.
type DisaggConfig struct {
	// PrefillReplicas and DecodeReplicas size the two pools.
	PrefillReplicas int
	DecodeReplicas  int
	// Requests is the number of requests in the burst (all arrive at t=0).
	Requests int
	// PrefillTime is one request's prompt pass on one prefill replica.
	PrefillTime eventsim.Time
	// DecodeTime is one request's full generation on one decode replica
	// (GenTokens × the per-token step time).
	DecodeTime eventsim.Time
	// TransferTime is the KV-cache handoff between the pools. Like the
	// pipeline hop, the sender's side is assumed DMA-overlapped: the
	// transfer delays the decode start without occupying the prefill
	// replica.
	TransferTime eventsim.Time
	// KeepTrace records per-replica busy intervals.
	KeepTrace bool
}

// Validate checks the configuration.
func (c DisaggConfig) Validate() error {
	switch {
	case c.PrefillReplicas <= 0:
		return fmt.Errorf("pipesim: prefill pool size %d must be positive", c.PrefillReplicas)
	case c.DecodeReplicas <= 0:
		return fmt.Errorf("pipesim: decode pool size %d must be positive", c.DecodeReplicas)
	case c.Requests <= 0:
		return fmt.Errorf("pipesim: request count %d must be positive", c.Requests)
	case !finiteNonNegative(c.PrefillTime, c.DecodeTime, c.TransferTime):
		return fmt.Errorf("pipesim: phase durations must be finite and non-negative")
	case c.PrefillTime == 0 && c.DecodeTime == 0:
		return fmt.Errorf("pipesim: zero-work serving schedule")
	}
	return nil
}

// DisaggResult is the outcome of one disaggregated serving burst.
type DisaggResult struct {
	// Makespan is the burst completion time.
	Makespan eventsim.Time
	// PrefillBusy and DecodeBusy are per-replica busy totals; replica
	// i mod P (i mod D) serves request i.
	PrefillBusy []eventsim.Time
	DecodeBusy  []eventsim.Time
	// DecodeStart[i] is when request i began decoding (its first token
	// follows one step later); Done[i] is its completion.
	DecodeStart []eventsim.Time
	Done        []eventsim.Time
	// Traces holds prefill- then decode-replica busy intervals when
	// requested; zero-length phases leave no interval.
	Traces [][]eventsim.Interval
}

// PoolUtilization returns the mean busy fraction of each pool over the
// makespan: prefill first, decode second.
func (r *DisaggResult) PoolUtilization() (prefill, decode float64) {
	if r.Makespan <= 0 {
		return 0, 0
	}
	var pb, db eventsim.Time
	for _, b := range r.PrefillBusy {
		pb += b
	}
	for _, b := range r.DecodeBusy {
		db += b
	}
	prefill = float64(pb) / (float64(r.Makespan) * float64(len(r.PrefillBusy)))
	decode = float64(db) / (float64(r.Makespan) * float64(len(r.DecodeBusy)))
	return prefill, decode
}

// MeanQueueDelay is the average time requests spent waiting beyond their
// own service phases: decode start minus the unqueued prefill+transfer
// path, averaged over the burst.
func (r *DisaggResult) MeanQueueDelay(cfg DisaggConfig) eventsim.Time {
	if len(r.DecodeStart) == 0 {
		return 0
	}
	var sum eventsim.Time
	for _, t := range r.DecodeStart {
		sum += t - cfg.PrefillTime - cfg.TransferTime
	}
	return sum / eventsim.Time(len(r.DecodeStart))
}

// RunDisagg runs the burst through the two pools. Every request arrives at
// t=0 and each pool serves FIFO with one fixed duration, so a pool's slots
// free up in request order: request i takes over the prefill slot that
// request i−P held (replica i mod P) and the decode slot that request i−D
// held (replica i mod D). The schedule is therefore the recurrence
//
//	preEnd[i] = preEnd[i−P] + PrefillTime      (the first term is 0 for i < P)
//	Done[i]   = max(preEnd[i] + TransferTime, Done[i−D]) + DecodeTime
//
// and the makespan is the last completion.
func RunDisagg(cfg DisaggConfig) (*DisaggResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	np, nd, n := cfg.PrefillReplicas, cfg.DecodeReplicas, cfg.Requests
	res := &DisaggResult{
		PrefillBusy: make([]eventsim.Time, np),
		DecodeBusy:  make([]eventsim.Time, nd),
		DecodeStart: make([]eventsim.Time, n),
		Done:        make([]eventsim.Time, n),
	}
	if cfg.KeepTrace {
		res.Traces = make([][]eventsim.Interval, np+nd)
	}
	preEnd := make([]eventsim.Time, n)
	for i := 0; i < n; i++ {
		var preStart eventsim.Time
		if i >= np {
			preStart = preEnd[i-np]
		}
		preEnd[i] = preStart + cfg.PrefillTime
		start := preEnd[i] + cfg.TransferTime
		if i >= nd && res.Done[i-nd] > start {
			start = res.Done[i-nd]
		}
		res.Done[i] = start + cfg.DecodeTime
		res.DecodeStart[i] = res.Done[i] - cfg.DecodeTime
		res.Makespan = max(res.Makespan, res.Done[i])
		res.PrefillBusy[i%np] += cfg.PrefillTime
		res.DecodeBusy[i%nd] += cfg.DecodeTime
		if cfg.KeepTrace {
			if cfg.PrefillTime > 0 {
				res.Traces[i%np] = append(res.Traces[i%np],
					eventsim.Interval{Start: preStart, End: preEnd[i], Label: fmt.Sprintf("P%d", i)})
			}
			if cfg.DecodeTime > 0 {
				res.Traces[np+i%nd] = append(res.Traces[np+i%nd],
					eventsim.Interval{Start: start, End: res.Done[i], Label: fmt.Sprintf("D%d", i)})
			}
		}
	}
	return res, nil
}

// BalancedDecodeReplicas is the decode pool size that matches the prefill
// pool's steady-state request rate: decode holds a request DecodeTime/
// PrefillTime times longer than prefill does, so the pools balance at that
// ratio (rounded up — an undersized decode pool queues without bound in an
// open system). The closed-form cross-check for RunDisagg pool sizing.
func BalancedDecodeReplicas(prefillReplicas int, prefillTime, decodeTime eventsim.Time) int {
	if prefillTime <= 0 || prefillReplicas <= 0 {
		return 1
	}
	ratio := float64(decodeTime) / float64(prefillTime)
	n := int(float64(prefillReplicas)*ratio + 0.9999999999)
	if n < 1 {
		n = 1
	}
	return n
}
