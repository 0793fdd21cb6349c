package parallel

import (
	"strings"
	"testing"
	"testing/quick"

	"amped/internal/hardware"
)

func cs1() *hardware.System {
	s := hardware.CaseStudy1System()
	return &s
}

func TestNormalization(t *testing.T) {
	var m Mapping // all zero
	if m.TP() != 1 || m.PP() != 1 || m.DP() != 1 || m.Workers() != 1 {
		t.Errorf("zero mapping degrees = TP%d PP%d DP%d", m.TP(), m.PP(), m.DP())
	}
	n := m.Normalized()
	if n.TPIntra != 1 || n.DPInter != 1 {
		t.Errorf("Normalized() = %+v", n)
	}
}

func TestDegreeProducts(t *testing.T) {
	m := Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	if got := m.TP(); got != 8 {
		t.Errorf("TP = %d", got)
	}
	if got := m.PP(); got != 2 {
		t.Errorf("PP = %d", got)
	}
	if got := m.DP(); got != 64 {
		t.Errorf("DP = %d", got)
	}
	if got := m.Workers(); got != 1024 {
		t.Errorf("Workers = %d", got)
	}
	if got := m.IntraDegree(); got != 8 {
		t.Errorf("IntraDegree = %d", got)
	}
	if got := m.InterDegree(); got != 128 {
		t.Errorf("InterDegree = %d", got)
	}
}

func TestValidateAgainstSystem(t *testing.T) {
	sys := cs1() // 128 nodes x 8 accels
	good := Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	if err := good.Validate(sys); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	// Uses only 4 accels per node.
	if err := (Mapping{TPIntra: 4, PPInter: 2, DPInter: 64}).Validate(sys); err == nil {
		t.Error("under-populated node accepted")
	}
	// Spans 256 nodes.
	if err := (Mapping{TPIntra: 8, PPInter: 4, DPInter: 64}).Validate(sys); err == nil {
		t.Error("over-spanned system accepted")
	}
	if err := (Mapping{}).Validate(nil); err == nil {
		t.Error("nil system accepted")
	}
	if err := (Mapping{TPIntra: -2, DPIntra: -4, DPInter: 128}).Validate(sys); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestMappingString(t *testing.T) {
	m := Mapping{TPIntra: 8, DPInter: 64, PPInter: 2, ExpertParallel: true}
	s := m.String()
	for _, want := range []string{"TP8x1", "PP1x2", "DP1x64", "+EP"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestBatchDerivations(t *testing.T) {
	m := Mapping{TPIntra: 8, PPInter: 2, DPInter: 64} // DP=64, PP=2
	b := Batch{Global: 8192}
	if err := b.Validate(m); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if got := b.PerReplica(m); got != 128 {
		t.Errorf("PerReplica = %d, want 128", got)
	}
	// Default microbatches = PP = 2 -> ub = 64.
	if got := b.MicrobatchesOrDefault(m); got != 2 {
		t.Errorf("default microbatches = %d, want 2", got)
	}
	if got := b.Microbatch(m); got != 64 {
		t.Errorf("Microbatch = %v, want 64", got)
	}
	b.Microbatches = 8
	if got := b.Microbatch(m); got != 16 {
		t.Errorf("Microbatch = %v, want 16", got)
	}
}

func TestBatchValidateRejections(t *testing.T) {
	m := Mapping{DPInter: 3}
	if err := (Batch{Global: 0}).Validate(m); err == nil {
		t.Error("zero batch accepted")
	}
	if err := (Batch{Global: 8, Microbatches: -1}).Validate(m); err == nil {
		t.Error("negative microbatches accepted")
	}
	if err := (Batch{Global: 8}).Validate(m); err == nil {
		t.Error("non-divisible DP accepted")
	}
	if err := (Batch{Global: 9, Microbatches: 2}).Validate(m); err == nil {
		t.Error("non-divisible microbatch accepted")
	}
	if err := (Batch{Global: 12, Microbatches: 2}).Validate(m); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
}

func TestMicrobatchClamping(t *testing.T) {
	// N_ub defaulting to PP must not exceed the per-replica batch.
	m := Mapping{PPInter: 16, DPInter: 8} // needs nodes=128 shape, fine standalone
	b := Batch{Global: 64}                // per replica = 8 < PP = 16
	if got := b.MicrobatchesOrDefault(m); got != 8 {
		t.Errorf("clamped microbatches = %d, want 8", got)
	}
	if got := b.Microbatch(m); got != 1 {
		t.Errorf("Microbatch = %v, want 1", got)
	}
}

func TestEnumerateTilesSystem(t *testing.T) {
	sys := cs1()
	maps := Enumerate(sys, EnumerateOptions{})
	if len(maps) == 0 {
		t.Fatal("no mappings enumerated")
	}
	for _, m := range maps {
		if err := m.Validate(sys); err != nil {
			t.Fatalf("enumerated mapping invalid: %v", err)
		}
		if m.Workers() != sys.TotalAccelerators() {
			t.Fatalf("mapping %v occupies %d workers, want %d", m, m.Workers(), sys.TotalAccelerators())
		}
	}
	// 8 = 2^3 has 10 ordered pow2 triples per level; 128 = 2^7 has 36.
	pow2 := Enumerate(sys, EnumerateOptions{PowerOfTwo: true})
	if want := 10 * 36; len(pow2) != want {
		t.Errorf("pow2 enumeration = %d mappings, want %d", len(pow2), want)
	}
}

func TestEnumerateCaps(t *testing.T) {
	sys := cs1()
	capped := Enumerate(sys, EnumerateOptions{MaxTP: 8, MaxPP: 64, PowerOfTwo: true})
	for _, m := range capped {
		if m.TP() > 8 {
			t.Fatalf("mapping %v exceeds MaxTP", m)
		}
		if m.PP() > 64 {
			t.Fatalf("mapping %v exceeds MaxPP", m)
		}
	}
	all := Enumerate(sys, EnumerateOptions{PowerOfTwo: true})
	if len(capped) >= len(all) {
		t.Errorf("caps did not reduce enumeration: %d vs %d", len(capped), len(all))
	}
	ep := Enumerate(sys, EnumerateOptions{PowerOfTwo: true, ExpertParallel: true})
	if !ep[0].ExpertParallel {
		t.Error("ExpertParallel flag not propagated")
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	sys := cs1()
	a := Enumerate(sys, EnumerateOptions{PowerOfTwo: true})
	b := Enumerate(sys, EnumerateOptions{PowerOfTwo: true})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enumeration not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Sorted by TP degree first.
	for i := 1; i < len(a); i++ {
		if a[i].TP() < a[i-1].TP() {
			t.Fatalf("not sorted by TP at %d", i)
		}
	}
}

func TestEnumerateEdgeCases(t *testing.T) {
	if got := Enumerate(nil, EnumerateOptions{}); got != nil {
		t.Error("nil system enumerated")
	}
	tiny := &hardware.System{Nodes: 1, AccelsPerNode: 1}
	maps := Enumerate(tiny, EnumerateOptions{})
	if len(maps) != 1 || maps[0].Workers() != 1 {
		t.Errorf("1x1 system maps = %v", maps)
	}
}

func TestDivisorTriplesProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw)%48 + 1
		for _, tr := range divisorTriples(n, false) {
			if tr[0]*tr[1]*tr[2] != n {
				return false
			}
		}
		for _, tr := range divisorTriples(n, true) {
			if !isPow2(tr[0]) || !isPow2(tr[1]) || !isPow2(tr[2]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkersInvariant(t *testing.T) {
	// Workers == TP·PP·DP for arbitrary degree assignments.
	f := func(a, b, c, d, e, g uint8) bool {
		m := Mapping{
			TPIntra: int(a%8) + 1, TPInter: int(b%8) + 1,
			PPIntra: int(c%8) + 1, PPInter: int(d%8) + 1,
			DPIntra: int(e%8) + 1, DPInter: int(g%8) + 1,
		}
		return m.Workers() == m.TP()*m.PP()*m.DP() &&
			m.Workers() == m.IntraDegree()*m.InterDegree()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccessorsMatchNormalized checks the copy-free degree accessors against
// the products of the Normalized() fields on zero, negative and enumerated
// mappings: only a zero degree is promoted to 1, a negative one stands.
func TestAccessorsMatchNormalized(t *testing.T) {
	ms := []Mapping{
		{},
		{TPIntra: -1},
		{TPIntra: -2, TPInter: 0, PPIntra: 3, PPInter: -1, DPIntra: 0, DPInter: -4, CPIntra: -1, CPInter: 2},
		{TPIntra: 0, TPInter: -3, PPIntra: -2, PPInter: 0, DPIntra: -1, DPInter: 0, CPIntra: 0, CPInter: -5, VPP: -1},
	}
	sys := cs1()
	for _, nodes := range []int{1, 12, 128} {
		sys.Nodes = nodes
		ms = append(ms, Enumerate(sys, EnumerateOptions{MaxCP: 4, MaxVPP: 2})...)
	}
	for _, m := range ms {
		n := m.Normalized()
		want := [6]int{
			n.TPIntra * n.TPInter, n.PPIntra * n.PPInter, n.DPIntra * n.DPInter, n.CPIntra * n.CPInter,
			n.TPIntra * n.PPIntra * n.DPIntra * n.CPIntra, n.TPInter * n.PPInter * n.DPInter * n.CPInter,
		}
		got := [6]int{m.TP(), m.PP(), m.DP(), m.CP(), m.IntraDegree(), m.InterDegree()}
		if got != want {
			t.Fatalf("%+v: TP PP DP CP intra inter = %v, Normalized() products %v", m, got, want)
		}
		if w := want[0] * want[1] * want[2] * want[3]; m.Workers() != w {
			t.Fatalf("%+v: Workers = %d, want %d", m, m.Workers(), w)
		}
	}
	if got := (Mapping{TPIntra: -2, TPInter: 0}).TP(); got != -2 {
		t.Fatalf("TP of TPIntra -2 = %d, want -2 (negative degrees are not promoted)", got)
	}
}
