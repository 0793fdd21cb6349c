package parallel

import (
	"slices"
	"sort"
	"testing"

	"amped/internal/hardware"
)

// enumerateBySort is the reference for Enumerate: the keyed-struct
// enumeration it replaced, which builds every mapping from divisor triples
// and CP splits, renders its identity and sorts by (total TP, PP, DP, CP,
// VPP, identity). Enumerate must return exactly its list.
func enumerateBySort(sys *hardware.System, opt EnumerateOptions) []Mapping {
	if sys == nil || sys.AccelsPerNode <= 0 || sys.Nodes <= 0 {
		return nil
	}
	intra := divisorTriples(sys.AccelsPerNode, opt.PowerOfTwo)
	inter := divisorTriples(sys.Nodes, opt.PowerOfTwo)
	maxVPP := max(opt.MaxVPP, 1)
	type keyed struct {
		m                   Mapping
		tp, pp, dp, cp, vpp int
		id                  string
	}
	var keys []keyed
	for _, i := range intra {
		for _, e := range inter {
			tp, pp := i[0]*e[0], i[1]*e[1]
			if opt.MaxTP > 0 && tp > opt.MaxTP {
				continue
			}
			if opt.MaxPP > 0 && pp > opt.MaxPP {
				continue
			}
			for _, ci := range cpSplits(i[2], opt.MaxCP, opt.PowerOfTwo) {
				for _, ce := range cpSplits(e[2], opt.MaxCP, opt.PowerOfTwo) {
					cp := ci[0] * ce[0]
					if cp > 1 && (opt.MaxCP <= 0 || cp > opt.MaxCP) {
						continue
					}
					dp := ci[1] * ce[1]
					for vpp := 1; vpp <= maxVPP; vpp++ {
						if vpp > 1 && (pp <= 1 || (opt.PowerOfTwo && !isPow2(vpp))) {
							continue
						}
						m := Mapping{
							TPIntra: i[0], PPIntra: i[1], DPIntra: ci[1],
							TPInter: e[0], PPInter: e[1], DPInter: ce[1],
							SequenceParallel: opt.SequenceParallel,
							ExpertParallel:   opt.ExpertParallel,
						}
						if cp > 1 {
							m.CPIntra, m.CPInter = ci[0], ce[0]
						}
						if vpp > 1 {
							m.VPP = vpp
						}
						keys = append(keys, keyed{m: m, tp: tp, pp: pp, dp: dp, cp: cp, vpp: vpp, id: m.String()})
					}
				}
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := &keys[a], &keys[b]
		if ka.tp != kb.tp {
			return ka.tp < kb.tp
		}
		if ka.pp != kb.pp {
			return ka.pp < kb.pp
		}
		if ka.dp != kb.dp {
			return ka.dp < kb.dp
		}
		if ka.cp != kb.cp {
			return ka.cp < kb.cp
		}
		if ka.vpp != kb.vpp {
			return ka.vpp < kb.vpp
		}
		return ka.id < kb.id
	})
	out := make([]Mapping, len(keys))
	for i := range keys {
		out[i] = keys[i].m
	}
	return out
}

// divisorTriples returns all ordered triples (a,b,c) with a·b·c == n,
// optionally restricted to powers of two.
func divisorTriples(n int, pow2 bool) [][3]int {
	var out [][3]int
	for _, a := range Divisors(n) {
		if pow2 && !isPow2(a) {
			continue
		}
		rest := n / a
		for _, b := range Divisors(rest) {
			if pow2 && !isPow2(b) {
				continue
			}
			c := rest / b
			if pow2 && !isPow2(c) {
				continue
			}
			out = append(out, [3]int{a, b, c})
		}
	}
	return out
}

// cpSplits returns the (cp, dp) factorings of a data-parallel share: every
// divisor cp of dpShare (respecting pow2) up to maxCP, paired with the
// remaining dp = dpShare/cp. maxCP <= 1 yields only the identity split.
func cpSplits(dpShare, maxCP int, pow2 bool) [][2]int {
	if maxCP <= 1 {
		return [][2]int{{1, dpShare}}
	}
	var out [][2]int
	for _, cp := range Divisors(dpShare) {
		if cp > maxCP {
			continue
		}
		if pow2 && !isPow2(cp) {
			continue
		}
		out = append(out, [2]int{cp, dpShare / cp})
	}
	return out
}

// checkAgainstSort fails t unless Enumerate returns enumerateBySort's list
// and NewTable's groups hold it: consecutive, each a run of one (TP, PP,
// DP, CP) with Splits × Blocks mappings, AppendGroup listing the run and
// At(i) returning mapping i.
func checkAgainstSort(t *testing.T, sys *hardware.System, opt EnumerateOptions) {
	t.Helper()
	got, want := Enumerate(sys, opt), enumerateBySort(sys, opt)
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%dx%d %+v: mapping %d is %v, want %v", sys.Nodes, sys.AccelsPerNode, opt, i, got[i], want[i])
			}
		}
		t.Fatalf("%dx%d %+v: %d mappings, want %d", sys.Nodes, sys.AccelsPerNode, opt, len(got), len(want))
	}
	tab := NewTable(sys, opt)
	if tab.Len() != int64(len(want)) {
		t.Fatalf("%dx%d %+v: table holds %d mappings, want %d", sys.Nodes, sys.AccelsPerNode, opt, tab.Len(), len(want))
	}
	var next int64
	for g := range tab.Groups {
		gr := tab.Groups[g]
		if gr.First != next || gr.Splits <= 0 || gr.Blocks <= 0 {
			t.Fatalf("%dx%d %+v: group %d is %+v after %d mappings", sys.Nodes, sys.AccelsPerNode, opt, g, gr, next)
		}
		next += gr.Len()
		ms := tab.AppendGroup([]Mapping{{}}, g)[1:]
		if !slices.Equal(ms, want[gr.First:next]) {
			t.Fatalf("%dx%d %+v: group %d %+v lists %v, want %v", sys.Nodes, sys.AccelsPerNode, opt, g, gr, ms, want[gr.First:next])
		}
		for _, m := range ms {
			if m.TP() != gr.TP || m.PP() != gr.PP || m.DP() != gr.DP || m.CP() != gr.CP {
				t.Fatalf("%dx%d %+v: group %+v lists %v", sys.Nodes, sys.AccelsPerNode, opt, gr, m)
			}
		}
	}
	for i := range want {
		if m := tab.At(int64(i)); m != want[i] {
			t.Fatalf("%dx%d %+v: At(%d) = %v, want %v", sys.Nodes, sys.AccelsPerNode, opt, i, m, want[i])
		}
	}
}

// TestEnumerateMatchesSort requires the canonical-order walk and its group
// table to equal the sort-based reference over a grid that covers 12- and 16-accelerator
// nodes (where the byte order of intra degrees differs from their numeric
// order), non-power-of-two node counts, TP/PP caps, every CP and VPP cap
// from 0 to 8, and the SP/EP flags.
func TestEnumerateMatchesSort(t *testing.T) {
	caps := [][2]int{{0, 0}, {8, 64}, {3, 2}}
	i := 0
	for _, accels := range []int{1, 2, 4, 6, 8, 12, 16} {
		for _, nodes := range []int{1, 2, 3, 8, 12, 16, 96, 128, 130} {
			for _, pow2 := range []bool{false, true} {
				for cpv := 0; cpv <= 8; cpv++ {
					i++
					c := caps[i%len(caps)]
					opt := EnumerateOptions{
						MaxTP: c[0], MaxPP: c[1], MaxCP: cpv, MaxVPP: (cpv * 5) % 9,
						PowerOfTwo: pow2, SequenceParallel: i%2 == 0, ExpertParallel: i%3 == 0,
					}
					sys := hardware.System{Nodes: nodes, AccelsPerNode: accels}
					checkAgainstSort(t, &sys, opt)
				}
			}
		}
	}
}

// FuzzEnumerate checks Enumerate and its group table against
// enumerateBySort on random systems and options: accelerators per node
// 1..32, nodes 1..256, MaxTP and MaxPP 0..64, MaxCP and MaxVPP 0..8; flags
// bit 0 sets SequenceParallel and bit 1 ExpertParallel. The seed corpus under
// testdata/fuzz/FuzzEnumerate holds the Case Study I CP/VPP space, 12- and
// 16-accelerator nodes with byte-ordered intra degrees, a non-power-of-two
// node count and an empty power-of-two space.
func FuzzEnumerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, accels uint8, nodes uint16, pow2 bool, maxTP, maxPP, maxCP, maxVPP, flags uint8) {
		sys := hardware.System{AccelsPerNode: int(accels)%32 + 1, Nodes: int(nodes)%256 + 1}
		checkAgainstSort(t, &sys, EnumerateOptions{
			MaxTP: int(maxTP) % 65, MaxPP: int(maxPP) % 65,
			MaxCP: int(maxCP) % 9, MaxVPP: int(maxVPP) % 9,
			PowerOfTwo:       pow2,
			SequenceParallel: flags&1 != 0, ExpertParallel: flags&2 != 0,
		})
	})
}
