package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/units"
)

// referenceSortByTime is the ranking as a plain stable sort on the point
// comparator: bucket, then (bucket 0 only) expected total time, then String
// identity, input order breaking identical identities. SortByTime and
// TopByTime must agree with it on every input.
func referenceSortByTime(points []Point) {
	sort.SliceStable(points, func(i, j int) bool {
		pi, pj := &points[i], &points[j]
		oi, oj := pointOrder(pi), pointOrder(pj)
		if oi != oj {
			return oi < oj
		}
		if oi == 0 {
			ti := pi.Breakdown.ExpectedTotalTime()
			tj := pj.Breakdown.ExpectedTotalTime()
			if ti != tj {
				return ti < tj
			}
		}
		return pi.String() < pj.String()
	})
}

// randomRankPoints draws points from small pools so the adversarial cases
// are common: exact time ties, equal identities (a duplicated batch size),
// failed points and points that do not fit. Every point carries its own
// Breakdown (or error), so two points with equal identity and time are
// still told apart by pointer.
func randomRankPoints(rng *rand.Rand, n int) []Point {
	mappings := []parallel.Mapping{
		{TPIntra: 8, DPInter: 128},
		{TPIntra: 8, PPInter: 2, DPInter: 64},
		{TPIntra: 4, DPIntra: 2, DPInter: 128, SequenceParallel: true},
		{TPIntra: 8, CPInter: 2, DPInter: 64, VPP: 2},
	}
	batches := []int{4096, 8192, 8192}
	times := []units.Seconds{10, 12, 12, 15}
	pts := make([]Point, n)
	for i := range pts {
		p := Point{
			Mapping:      mappings[rng.Intn(len(mappings))],
			Batch:        batches[rng.Intn(len(batches))],
			Microbatches: 1 + rng.Intn(2),
			Fits:         true,
		}
		switch r := rng.Intn(10); {
		case r == 0:
			p.Err = fmt.Errorf("cell %d failed", i)
		case r == 1:
			p.Fits = false
			fallthrough
		default:
			p.Breakdown = &model.Breakdown{ComputeForward: times[rng.Intn(len(times))], NumBatches: 1}
		}
		pts[i] = p
	}
	return pts
}

// TestTopByTimeMatchesSort is the selection's equivalence property:
// TopByTime(pts, n) equals SortByTime(clone)[:n] point for point, down to
// the Breakdown pointer, for n at the edges and mid-range; SortByTime equals
// the stable reference sort; and TopByTime leaves its input untouched.
func TestTopByTimeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		pts := randomRankPoints(rng, 1+rng.Intn(60))
		orig := slices.Clone(pts)

		sorted := slices.Clone(pts)
		SortByTime(sorted)
		ref := slices.Clone(pts)
		referenceSortByTime(ref)
		if i := firstPointDiff(sorted, ref); i >= 0 {
			t.Fatalf("trial %d: SortByTime diverges from the stable reference at %d: %v vs %v",
				trial, i, sorted[i], ref[i])
		}

		// The edges plus mid-range sizes, where most points replace the
		// heap's root and sift down through both children.
		for _, n := range []int{0, 1, 3, len(pts) / 2, len(pts) - 1, len(pts), len(pts) + 5} {
			got := TopByTime(pts, n)
			want := sorted[:min(n, len(sorted))]
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d: %d points, want %d", trial, n, len(got), len(want))
			}
			if i := firstPointDiff(got, want); i >= 0 {
				t.Fatalf("trial %d n=%d: diverges at %d: %v vs %v", trial, n, i, got[i], want[i])
			}
			if i := firstPointDiff(pts, orig); i >= 0 {
				t.Fatalf("trial %d n=%d: TopByTime modified its input at %d", trial, n, i)
			}
		}
	}
}

// firstPointDiff returns the first index where the two rankings hold
// different points (every field compared, Breakdown and Err by identity),
// or -1 when they are identical.
func firstPointDiff(a, b []Point) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// TestPointStringFormat pins Point.String byte for byte to its historical
// fmt rendering: rankings, shard merges and goldens all order by it.
func TestPointStringFormat(t *testing.T) {
	for _, p := range []Point{
		{Mapping: parallel.Mapping{TPIntra: 8, DPInter: 128}, Batch: 8192, Microbatches: 64},
		{},
		{Mapping: parallel.Mapping{TPIntra: 4, PPIntra: 2, PPInter: 3, DPInter: 5, CPInter: 2,
			VPP: 4, SequenceParallel: true, ExpertParallel: true}, Batch: -3, Microbatches: 123456789},
	} {
		want := fmt.Sprintf("%v B=%d m=%d", p.Mapping, p.Batch, p.Microbatches)
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
