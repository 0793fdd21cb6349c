package pipesim

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"amped/internal/eventsim"
)

// TestDisaggSerial pins the degenerate single-replica case: requests flow
// strictly serially through each pool, so the makespan is the first
// request's full path plus the slower pool's remaining service times.
func TestDisaggSerial(t *testing.T) {
	cfg := DisaggConfig{
		PrefillReplicas: 1, DecodeReplicas: 1, Requests: 3,
		PrefillTime: 2, DecodeTime: 10, TransferTime: 1,
	}
	res, err := RunDisagg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Decode dominates: first decode starts at 2+1=3, then 3 serial decodes.
	if want := eventsim.Time(3 + 30); res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// Prefill replica busy 3x2, decode replica 3x10.
	if res.PrefillBusy[0] != 6 || res.DecodeBusy[0] != 30 {
		t.Errorf("busy = %v / %v, want 6 / 30", res.PrefillBusy[0], res.DecodeBusy[0])
	}
	// Requests are decoded in arrival order; completions are monotone.
	for i := 1; i < cfg.Requests; i++ {
		if res.Done[i] <= res.Done[i-1] {
			t.Errorf("completion order violated: Done[%d]=%v <= Done[%d]=%v",
				i, res.Done[i], i-1, res.Done[i-1])
		}
	}
}

// TestDisaggBalancedPools checks the sizing cross-check: a decode pool at
// the balanced ratio keeps both pools near full utilization and beats the
// undersized pool's makespan.
func TestDisaggBalancedPools(t *testing.T) {
	prefill, decode := eventsim.Time(2), eventsim.Time(10)
	n := BalancedDecodeReplicas(2, prefill, decode)
	if n != 10 {
		t.Fatalf("balanced decode pool = %d, want 10 (ratio 5 x 2 replicas)", n)
	}
	balanced := DisaggConfig{
		PrefillReplicas: 2, DecodeReplicas: n, Requests: 40,
		PrefillTime: prefill, DecodeTime: decode, TransferTime: 0,
	}
	starved := balanced
	starved.DecodeReplicas = 2
	rb, err := RunDisagg(balanced)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunDisagg(starved)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Makespan >= rs.Makespan {
		t.Errorf("balanced makespan %v not below starved %v", rb.Makespan, rs.Makespan)
	}
	// In the balanced steady state the decode pool is the bottleneck:
	// 40 requests x 10s over 10 replicas = 40s of decode work, reached
	// after the first wave's prefill; utilization must be high.
	if _, du := rb.PoolUtilization(); du < 0.8 {
		t.Errorf("balanced decode utilization %.2f, want >= 0.8", du)
	}
	// The starved run queues: mean queue delay must be strictly positive
	// and larger than the balanced run's.
	if qs, qb := rs.MeanQueueDelay(starved), rb.MeanQueueDelay(balanced); qs <= qb {
		t.Errorf("starved queue delay %v not above balanced %v", qs, qb)
	}
}

func TestDisaggValidate(t *testing.T) {
	bad := []DisaggConfig{
		{PrefillReplicas: 0, DecodeReplicas: 1, Requests: 1, PrefillTime: 1},
		{PrefillReplicas: 1, DecodeReplicas: 0, Requests: 1, PrefillTime: 1},
		{PrefillReplicas: 1, DecodeReplicas: 1, Requests: 0, PrefillTime: 1},
		{PrefillReplicas: 1, DecodeReplicas: 1, Requests: 1, PrefillTime: -1},
		{PrefillReplicas: 1, DecodeReplicas: 1, Requests: 1},
		{PrefillReplicas: 1, DecodeReplicas: 1, Requests: 1, PrefillTime: eventsim.Time(math.NaN())},
		{PrefillReplicas: 1, DecodeReplicas: 1, Requests: 1, PrefillTime: 1, DecodeTime: eventsim.Time(math.Inf(1))},
		{PrefillReplicas: 1, DecodeReplicas: 1, Requests: 1, PrefillTime: 1, TransferTime: eventsim.Time(math.NaN())},
	}
	for i, cfg := range bad {
		if _, err := RunDisagg(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestDisaggRoundRobin pins the replica numbering: request i runs on
// prefill replica i mod P and decode replica i mod D, so 53 two-second
// decodes over six replicas put nine on each of the first five.
func TestDisaggRoundRobin(t *testing.T) {
	res, err := RunDisagg(DisaggConfig{
		PrefillReplicas: 2, DecodeReplicas: 6, Requests: 53,
		PrefillTime: 2, DecodeTime: 2, TransferTime: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.PrefillBusy, res.DecodeBusy); got != "[54 52] [18 18 18 18 18 16]" {
		t.Errorf("busy = %s, want [54 52] [18 18 18 18 18 16]", got)
	}
}

// checkDisagg verifies a KeepTrace RunDisagg result against the rules of
// two FIFO pools fed by a burst at t=0, derived from the traces rather than
// from RunDisagg's recurrence: every replica serves one request at a time
// for exactly its phase duration, each pool obeys checkPool (a request
// reaches the decode pool one transfer after its prefill ends), Done and
// DecodeStart match the decode intervals, the busy totals add up, and the
// makespan is the last completion. Durations must be positive, since the
// traces omit zero-length intervals.
func checkDisagg(cfg DisaggConfig, res *DisaggResult) error {
	np, nd, n := cfg.PrefillReplicas, cfg.DecodeReplicas, cfg.Requests
	if len(res.Traces) != np+nd || len(res.PrefillBusy) != np || len(res.DecodeBusy) != nd ||
		len(res.Done) != n || len(res.DecodeStart) != n {
		return fmt.Errorf("result shape: %d traces, %d+%d busy, %d done, %d starts",
			len(res.Traces), len(res.PrefillBusy), len(res.DecodeBusy), len(res.Done), len(res.DecodeStart))
	}
	pre, err := poolSpans(res.Traces[:np], res.PrefillBusy, 'P', n, cfg.PrefillTime)
	if err != nil {
		return fmt.Errorf("prefill: %v", err)
	}
	dec, err := poolSpans(res.Traces[np:], res.DecodeBusy, 'D', n, cfg.DecodeTime)
	if err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	burst := make([]eventsim.Time, n)
	handoff := make([]eventsim.Time, n)
	for i := range handoff {
		handoff[i] = pre[i].End + cfg.TransferTime
	}
	if err := checkPool(pre, burst, np); err != nil {
		return fmt.Errorf("prefill: %v", err)
	}
	if err := checkPool(dec, handoff, nd); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	var last eventsim.Time
	for i, s := range dec {
		if res.Done[i] != s.End || res.DecodeStart[i] != res.Done[i]-cfg.DecodeTime {
			return fmt.Errorf("request %d: done %v, decode start %v, interval %+v",
				i, res.Done[i], res.DecodeStart[i], s)
		}
		last = max(last, s.End)
	}
	if res.Makespan != last {
		return fmt.Errorf("makespan %v, last completion %v", res.Makespan, last)
	}
	return nil
}

// poolSpans reads each request's service interval out of one pool's
// replica traces (labels P<i> or D<i>), checking that every request is
// served exactly once, for exactly dur, by a replica that is idle at the
// time, and that each replica's busy total is its intervals' durations.
func poolSpans(traces [][]eventsim.Interval, busy []eventsim.Time, prefix byte, n int, dur eventsim.Time) ([]eventsim.Interval, error) {
	spans := make([]eventsim.Interval, n)
	seen := make([]bool, n)
	for r, tr := range traces {
		var free, sum eventsim.Time
		for _, iv := range tr {
			i, err := strconv.Atoi(iv.Label[1:])
			if iv.Label[0] != prefix || err != nil || i < 0 || i >= n || seen[i] {
				return nil, fmt.Errorf("replica %d: bad or repeated label %q", r, iv.Label)
			}
			if iv.End != iv.Start+dur || iv.Start < free {
				return nil, fmt.Errorf("replica %d: interval %+v after busy until %v", r, iv, free)
			}
			seen[i], spans[i], free = true, iv, iv.End
			sum += dur
		}
		if math.Abs(float64(busy[r]-sum)) > 1e-9*float64(sum) {
			return nil, fmt.Errorf("replica %d: busy %v, intervals sum to %v", r, busy[r], sum)
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("request %d never served", i)
		}
	}
	return spans, nil
}

// checkPool checks one FIFO pool of c replicas: starts never decrease with
// the request index, no request starts before it arrives, at most c
// requests are in service at any time, and the pool is work-conserving —
// a request that waits starts exactly when another request of the pool
// completes, and the pool is full over the whole wait.
func checkPool(spans []eventsim.Interval, arrive []eventsim.Time, c int) error {
	inService := func(t eventsim.Time) int {
		k := 0
		for _, s := range spans {
			if s.Start <= t && t < s.End {
				k++
			}
		}
		return k
	}
	for i, s := range spans {
		switch {
		case i > 0 && s.Start < spans[i-1].Start:
			return fmt.Errorf("request %d starts at %v before request %d at %v", i, s.Start, i-1, spans[i-1].Start)
		case s.Start < arrive[i]:
			return fmt.Errorf("request %d starts at %v before it arrives at %v", i, s.Start, arrive[i])
		case inService(s.Start) > c:
			return fmt.Errorf("%d requests in service at %v, pool has %d", inService(s.Start), s.Start, c)
		case s.Start == arrive[i]:
			continue
		}
		// Occupancy changes only at interval starts and ends, so the pool
		// is full over [arrival, start) iff it is full at the arrival and
		// at every start or end inside the wait.
		freed := false
		for _, o := range spans {
			freed = freed || o.End == s.Start
			for _, b := range []eventsim.Time{arrive[i], o.Start, o.End} {
				if b < arrive[i] || b >= s.Start {
					continue
				}
				if k := inService(b); k != c {
					return fmt.Errorf("request %d waits from %v to %v, but only %d of %d busy at %v",
						i, arrive[i], s.Start, k, c, b)
				}
			}
		}
		if !freed {
			return fmt.Errorf("request %d starts at %v, when no request completes", i, s.Start)
		}
	}
	return nil
}

// FuzzDisagg drives random serving bursts through RunDisagg and checks
// every result with checkDisagg. The counts wrap into range (prefill pool
// 1..8, decode pool 1..16, requests 1..96). The seed corpus under
// testdata/fuzz/FuzzDisagg holds integer-duration cases full of exact ties
// and the P2 D6 N53 burst of TestDisaggRoundRobin.
func FuzzDisagg(f *testing.F) {
	f.Fuzz(func(t *testing.T, prefill, decode, requests uint8, pre, dec, xfer float64) {
		for _, x := range []float64{pre, dec} {
			if !(x >= 1e-3 && x <= 1e3) {
				t.Skip("durations must be positive and bounded")
			}
		}
		if !(xfer >= 0 && xfer <= 1e3) {
			t.Skip("transfer must be non-negative and bounded")
		}
		cfg := DisaggConfig{
			PrefillReplicas: wrap(prefill, 8), DecodeReplicas: wrap(decode, 16), Requests: wrap(requests, 96),
			PrefillTime: eventsim.Time(pre), DecodeTime: eventsim.Time(dec), TransferTime: eventsim.Time(xfer),
			KeepTrace: true,
		}
		res, err := RunDisagg(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDisagg(cfg, res); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
