package explore

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/memkit"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// TestSpaceIdentityFromTable checks every identity a Space hands out
// against the mapping list it does not hold: cell gi is
// (list[gi/len(Batches)], Batches[gi%len(Batches)]), with list
// parallel.Enumerate's for an enumerated space and the caller's for an
// explicit A → B → A one. Sweep's points (fitting, over the memory
// budget, failed and unfillable on the enumerated space), Layout's, the cells a cancelled sweep hands on from its
// tail, Top's survivors over every cell (failed cells all tie on their key,
// so their order is their identity's) and the single-cell layout of the
// panic retry must all carry it.
func TestSpaceIdentityFromTable(t *testing.T) {
	f := newWalkFixture(t)
	sc := f.scs[0]
	sc.Memory = &memkit.Config{Operands: precision.Mixed16(), Optimizer: memkit.Adam, Schedule: memkit.OneFOneB}
	sc.MemoryReserve = 0.99 // about half the priced cells fit
	en := parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 4, MaxVPP: 4, SequenceParallel: true}
	// a1 and a2 share a degree group, b is in another.
	var a1, a2, b parallel.Mapping
	for i, mp := range f.pool {
		if mp.PP() > 1 && i+1 < len(f.pool) && degreeGroup(&f.pool[i+1]) == degreeGroup(&mp) {
			a1, a2 = mp, f.pool[i+1]
			break
		}
	}
	for _, mp := range f.pool {
		if degreeGroup(&mp) != degreeGroup(&a1) {
			b = mp
			break
		}
	}
	aba := []parallel.Mapping{a1, a2, b, a2, a1}
	batches := []int{8, 64, 256, 100}
	nb := int64(len(batches))

	for _, tc := range []struct {
		name string
		opt  Options
		list []parallel.Mapping
	}{
		{"enumerated", Options{Enumerate: en}, MappingList(sc.Model, sc.System, nil, en)},
		{"explicit", Options{Mappings: aba}, aba},
	} {
		opt := tc.opt
		opt.Batches, opt.MicrobatchTarget, opt.KeepInvalid, opt.Concurrency = batches, 16, true, 2
		sp, err := NewSpace(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		cells := sp.Cells()
		if cells != int64(len(tc.list))*nb {
			t.Fatalf("%s: %d cells, want %d", tc.name, cells, int64(len(tc.list))*nb)
		}
		check := func(what string, gi int64, p *Point) {
			t.Helper()
			if mp, b := tc.list[gi/nb], batches[gi%nb]; p.Mapping != mp || p.Batch != b {
				t.Fatalf("%s: %s cell %d is %v B=%d, want %v B=%d", tc.name, what, gi, p.Mapping, p.Batch, mp, b)
			}
		}
		for mi := range int64(len(tc.list)) {
			var p Point
			sp.at(mi*nb+1, &p)
			check("at", mi*nb+1, &p)
		}

		pts, err := sp.Sweep(context.Background(), 0, cells)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(pts)) != cells {
			t.Fatalf("%s: Sweep kept %d of %d cells", tc.name, len(pts), cells)
		}
		var priced, fits, unfillable int
		for i := range pts {
			check("Sweep", int64(i), &pts[i])
			if pts[i].Breakdown != nil {
				priced++
				if pts[i].Fits {
					fits++
				}
			}
		}
		layoutSc := sc
		laid, _, err := Layout(&layoutSc, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range laid {
			check("Layout", int64(i), &laid[i])
			if laid[i].Err != nil {
				unfillable++
			}
		}
		if tc.name == "enumerated" && (fits == 0 || fits == priced || unfillable == 0) {
			t.Fatalf("%s: %d cells priced, %d fit, %d unfillable: want each kind", tc.name, priced, fits, unfillable)
		}

		// A sweep cancelled before it starts hands on every unfillable
		// cell from its tail, laid out group by group.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tail, err := sp.Sweep(ctx, 0, cells)
		if err == nil {
			t.Fatalf("%s: cancelled sweep returned no error", tc.name)
		}
		var want []Point
		for _, p := range laid {
			if p.Err != nil {
				want = append(want, p)
			}
		}
		if d := diffPoints(tail, want); d != "" {
			t.Fatalf("%s: cancelled sweep's tail differs from Layout's unfillable cells: %s", tc.name, d)
		}

		top, completed, err := sp.Top(context.Background(), 0, cells, int(cells))
		if err != nil {
			t.Fatal(err)
		}
		if completed != len(pts) {
			t.Fatalf("%s: Top completed %d, Sweep returned %d", tc.name, completed, len(pts))
		}
		if d := diffPoints(top, TopByTime(pts, int(cells))); d != "" {
			t.Fatalf("%s: Top differs from TopByTime over Sweep: %s", tc.name, d)
		}
	}
}

// TestNewSpaceStoresNoMappings pins that NewSpace on a supplied session
// holds the enumeration by degree group and lists no mapping: on the Case
// Study I space (CP and VPP ≤ 2, 1,390 mappings) it allocates well under
// the list's size, and raising the VPP cap to 8, which adds mappings but no
// group, adds next to nothing.
func TestNewSpaceStoresNoMappings(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := model.Compile(&m, &sys, model.Training{NumBatches: 1}, efficiency.Default())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	perSpace := func(maxVPP int) (bytes float64, mappings int64) {
		opt := Options{Batches: []int{8192}, Enumerate: parallel.EnumerateOptions{PowerOfTwo: true, MaxCP: 2, MaxVPP: maxVPP}}
		sp, err := NewSpace(Scenario{Session: sess}, opt) // fills the session's aggregate memo
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := NewSpace(Scenario{Session: sess}, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, sp.len()
	}
	size := float64(unsafe.Sizeof(parallel.Mapping{}))
	small, n2 := perSpace(2)
	big, n8 := perSpace(8)
	if n2 != 1390 || n8 <= n2 {
		t.Fatalf("VPP ≤ 2: %d mappings, VPP ≤ 8: %d; want 1390 and more", n2, n8)
	}
	if list := float64(n2) * size; small > list/4 {
		t.Errorf("NewSpace allocates %.0f B per call, over a quarter of the %.0f B mapping list", small, list)
	}
	if grown := float64(n8-n2) * size; big-small > grown/16 {
		t.Errorf("%d more mappings cost NewSpace %.0f more bytes (%.0f B per call at VPP ≤ 2, %.0f at VPP ≤ 8)",
			n8-n2, big-small, small, big)
	}
	t.Logf("NewSpace: %.0f B per call at %d mappings, %.0f B at %d", small, n2, big, n8)
}
