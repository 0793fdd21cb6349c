// Package collective simulates collective-communication algorithms
// (ring/tree all-reduce, pairwise all-to-all, pipeline chains) step by step
// on modeled links: every round is bulk-synchronous, so a run is the sum of
// its round times.
//
// The closed-form topology factors of internal/topology assert how many
// steps a collective takes and what share of the payload each worker moves;
// this package executes the actual per-step transfer schedule and measures
// the same quantities, cross-checking the analytical model against an
// executable one (and standing in for the NCCL runs of the paper's
// validation machines).
package collective

import (
	"fmt"

	"amped/internal/eventsim"
	"amped/internal/hardware"
	"amped/internal/units"
)

// Result summarizes one simulated collective.
type Result struct {
	// Time is the completion time of the slowest worker.
	Time units.Seconds
	// Steps is the number of serialized communication rounds executed.
	Steps int
	// BitsPerWorker is the data volume each worker transmitted, averaged
	// over the participating workers. For symmetric collectives (ring,
	// pairwise) every worker transmits the same amount each round; for
	// level-based collectives (tree, broadcast) only one tree level's
	// senders transmit per round and the average share is rounds·bits/n;
	// for a store-and-forward chain each hop's sender transmits the
	// payload exactly once.
	BitsPerWorker units.Bits
}

// stepTime is one bulk-synchronous round: every worker sends chunk bits to
// a peer concurrently; the round costs the link latency plus the chunk
// serialization time.
func stepTime(chunk units.Bits, link hardware.Link) eventsim.Time {
	return eventsim.Time(float64(link.Latency) + float64(chunk)/float64(link.Bandwidth))
}

// runRounds executes `rounds` bulk-synchronous rounds of `chunk` bits per
// worker on the link and returns the aggregate result: each round starts
// when the previous one completes, so the clock is the running sum of the
// round times. BitsPerWorker assumes every worker transmits the chunk in
// every round (true for ring-style collectives); level-based and chain
// collectives override it after the fact.
func runRounds(n, rounds int, chunk units.Bits, link hardware.Link) Result {
	return runRoundsScaled(n, rounds, chunk, link, nil)
}

// runRoundsScaled is runRounds with a per-round time multiplier — the fault
// injector's degraded/flapping-link hook. A nil scale is the healthy run;
// the transmitted volume is unchanged either way (a slow link still moves
// the same bits, just later).
func runRoundsScaled(n, rounds int, chunk units.Bits, link hardware.Link, scale func(round int) float64) Result {
	if n <= 1 || rounds == 0 {
		return Result{}
	}
	per := stepTime(chunk, link)
	var end eventsim.Time
	for r := 0; r < rounds; r++ {
		d := per
		if scale != nil {
			d *= eventsim.Time(scale(r))
		}
		end += d
	}
	return Result{
		Time:          units.Seconds(end),
		Steps:         rounds,
		BitsPerWorker: units.Bits(float64(chunk) * float64(rounds)),
	}
}

// RingAllReduceInjected simulates a ring all-reduce whose round r costs
// scale(r) times the healthy round time — a degraded or flapping link seen
// by the collective. The step count and per-worker volume match the healthy
// run; only the clock moves.
func RingAllReduceInjected(n int, bits units.Bits, link hardware.Link, scale func(round int) float64) Result {
	if n <= 1 {
		return Result{}
	}
	chunk := units.Bits(float64(bits) / float64(n))
	return runRoundsScaled(n, 2*(n-1), chunk, link, scale)
}

// PairwiseAllToAllInjected is PairwiseAllToAll under a per-round time
// multiplier (see RingAllReduceInjected).
func PairwiseAllToAllInjected(n int, bits units.Bits, link hardware.Link, scale func(round int) float64) Result {
	if n <= 1 {
		return Result{}
	}
	chunk := units.Bits(float64(bits) / float64(n))
	return runRoundsScaled(n, n-1, chunk, link, scale)
}

// RingAllReduce simulates a ring all-reduce of `bits` payload bits over n
// workers: a reduce-scatter of n-1 rounds followed by an all-gather of n-1
// rounds, each round moving bits/n per worker.
func RingAllReduce(n int, bits units.Bits, link hardware.Link) Result {
	if n <= 1 {
		return Result{}
	}
	chunk := units.Bits(float64(bits) / float64(n))
	return runRounds(n, 2*(n-1), chunk, link)
}

// TreeAllReduce simulates a binary-tree reduce + broadcast: 2·ceil(log2 n)
// rounds, each moving the full payload along one tree level.
func TreeAllReduce(n int, bits units.Bits, link hardware.Link) Result {
	if n <= 1 {
		return Result{}
	}
	levels := 0
	for v := 1; v < n; v <<= 1 {
		levels++
	}
	r := runRounds(n, 2*levels, bits, link)
	// Each round's payload is carried by one tree level's senders, not by
	// all n workers; the per-participant average is rounds·bits/n, the
	// paper's steps/n topology factor.
	r.BitsPerWorker = units.Bits(float64(bits) * float64(2*levels) / float64(n))
	return r
}

// PairwiseAllToAll simulates the default MoE exchange: n-1 rounds in which
// every worker exchanges a distinct 1/n shard with one peer.
func PairwiseAllToAll(n int, bits units.Bits, link hardware.Link) Result {
	if n <= 1 {
		return Result{}
	}
	chunk := units.Bits(float64(bits) / float64(n))
	return runRounds(n, n-1, chunk, link)
}

// Chain simulates a store-and-forward pipeline transfer across `hops`
// consecutive links (activation hand-off through pipeline stages): each hop
// is one round carrying the full payload.
func Chain(hops int, bits units.Bits, link hardware.Link) Result {
	if hops <= 0 {
		return Result{}
	}
	r := runRounds(2, hops, bits, link)
	// Each hop's sender transmits the payload exactly once; the per-worker
	// volume is the payload itself, not payload × hops, matching the
	// point-to-point topology factor of 1.
	r.BitsPerWorker = bits
	return r
}

// HierarchicalAllReduce simulates the paper's Eq. 10 strategy: a ring
// all-reduce inside each node followed by a ring all-reduce across nodes.
func HierarchicalAllReduce(intraN, interN int, bits units.Bits, intra, inter hardware.Link) Result {
	a := RingAllReduce(intraN, bits, intra)
	b := RingAllReduce(interN, bits, inter)
	return Result{
		Time:          a.Time + b.Time,
		Steps:         a.Steps + b.Steps,
		BitsPerWorker: a.BitsPerWorker + b.BitsPerWorker,
	}
}

// EffectiveFactor reports the measured topology factor of a result: the
// transmitted volume per worker divided by the payload. For a ring
// all-reduce of n workers this approaches 2(n-1)/n, matching
// topology.Factor — the executable cross-check of the closed form.
func (r Result) EffectiveFactor(payload units.Bits) float64 {
	if payload <= 0 {
		return 0
	}
	return float64(r.BitsPerWorker) / float64(payload)
}

// String renders the result.
func (r Result) String() string {
	return fmt.Sprintf("%v in %d steps (%.3g bits/worker)", r.Time, r.Steps, float64(r.BitsPerWorker))
}

// AllGather simulates a ring all-gather of `bits` total payload over n
// workers: n-1 rounds, each moving the 1/n shard a worker currently holds.
// Its per-worker factor is (n-1)/n — half of the full all-reduce, which is
// why ZeRO stages 1-2 (reduce-scatter + all-gather) keep plain DP's total
// volume and stage 3's extra forward all-gather adds exactly half again.
func AllGather(n int, bits units.Bits, link hardware.Link) Result {
	if n <= 1 {
		return Result{}
	}
	chunk := units.Bits(float64(bits) / float64(n))
	return runRounds(n, n-1, chunk, link)
}

// ReduceScatter simulates a ring reduce-scatter: the mirror image of
// AllGather with identical cost.
func ReduceScatter(n int, bits units.Bits, link hardware.Link) Result {
	return AllGather(n, bits, link)
}

// Broadcast simulates a binomial-tree broadcast of the full payload:
// ceil(log2 n) rounds, each forwarding the whole buffer one tree level.
func Broadcast(n int, bits units.Bits, link hardware.Link) Result {
	if n <= 1 {
		return Result{}
	}
	levels := 0
	for v := 1; v < n; v <<= 1 {
		levels++
	}
	r := runRounds(n, levels, bits, link)
	// As in TreeAllReduce, one tree level transmits per round: the
	// per-participant average volume is rounds·bits/n.
	r.BitsPerWorker = units.Bits(float64(bits) * float64(levels) / float64(n))
	return r
}
