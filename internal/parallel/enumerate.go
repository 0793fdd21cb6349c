package parallel

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strconv"

	"amped/internal/hardware"
)

// EnumerateOptions constrains the mapping enumeration of Enumerate.
type EnumerateOptions struct {
	// MaxTP caps the total tensor-parallel degree (TP cannot usefully
	// exceed the attention-head count). Zero means unlimited.
	MaxTP int
	// MaxPP caps the total pipeline degree (bounded by the layer count).
	// Zero means unlimited.
	MaxPP int
	// MaxCP caps the total context-parallel degree. Zero or 1 disables
	// context parallelism entirely, keeping the legacy mapping list
	// byte-identical (CP shards are carved out of the DP shares, so
	// enabling it strictly grows the space).
	MaxCP int
	// MaxVPP caps the virtual-pipeline chunk count per stage. Zero or 1
	// disables interleaving; values above 1 emit extra variants of every
	// pp>1 mapping (callers bound it by layers/pp at evaluation time, and
	// explore.CheckEnumerate refuses caps above the layer count).
	MaxVPP int
	// PowerOfTwo restricts every per-level degree to powers of two, the
	// shape real deployments use. Default false enumerates all divisors.
	PowerOfTwo bool
	// SequenceParallel sets the flag on every produced mapping.
	SequenceParallel bool
	// ExpertParallel sets the flag on every produced mapping.
	ExpertParallel bool
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Enumerate lists every mapping that exactly tiles the system: all ways of
// factoring the node population into intra-node (TP,PP,DP,CP) and the node
// count into inter-node (TP,PP,DP,CP), subject to the options, with
// virtual-pipeline variants when requested. With MaxCP and MaxVPP disabled
// the list is byte-identical to the historical three-dimension enumeration.
//
// The list is in canonical order, which sweep cursors, shard ranges,
// journals and goldens index: total TP ascending, then PP, then DP, then CP,
// then VPP, then the String identity. It is NewTable's group table
// flattened: each group's splits, once per VPP block. The result is sized
// exactly; no per-mapping key, string or sort is built.
func Enumerate(sys *hardware.System, opt EnumerateOptions) []Mapping {
	if sys == nil || sys.AccelsPerNode <= 0 || sys.Nodes <= 0 {
		return nil
	}
	t := NewTable(sys, opt)
	out := make([]Mapping, 0, t.Len())
	for g := range t.Groups {
		out = t.AppendGroup(out, g)
	}
	return out
}

// Group is one (TP, PP, DP, CP) degree group of the canonical enumeration:
// its total degrees, the number of its intra/inter splits, its VPP blocks
// and the index of its first mapping. Its mappings are the splits in
// identity order, listed once per block: block 0 leaves VPP unset, block
// j > 0 sets it to the j-th admitted chunk count above 1. Every inter-node
// degree is fixed by its intra-node partner and the VPP/SP/EP suffix is
// shared, so the identity order is the order of (TPIntra, PPIntra,
// DPIntra, CPIntra), each compared by the bytes of its decimal rendering
// followed by 'x': on 16-accelerator nodes "16x" < "1x" < "2x".
type Group struct {
	TP, PP, DP, CP int
	Splits, Blocks int
	First          int64
}

// Len is the number of mappings in the group.
func (g *Group) Len() int64 { return int64(g.Splits) * int64(g.Blocks) }

// Table is the canonical enumeration held by degree group: the groups in
// canonical order and what it takes to list any group's mappings again. It
// stores no mapping. Groups must not be modified.
type Table struct {
	Groups []Group
	w      walk
}

// NewTable walks the canonical order once, counting each group's splits.
// TP runs over the divisors of the total accelerator count up to MaxTP, PP
// over the divisors of what remains up to MaxPP, DP ascending over the rest
// (so CP, the cofactor, descends and is kept only up to MaxCP); a group
// with no split that tiles is left out, and one with PP > 1 has a block per
// admitted VPP from 1 to MaxVPP. A system of more than 2^32−1 accelerators
// has no group: splits divides degrees in 32 bits.
func NewTable(sys *hardware.System, opt EnumerateOptions) *Table {
	t := new(Table)
	if sys == nil || sys.AccelsPerNode <= 0 || sys.Nodes <= 0 || sys.Nodes > math.MaxUint32/sys.AccelsPerNode {
		return t
	}
	t.w = walk{opt: opt, shares: nodeShares(sys.AccelsPerNode, opt.PowerOfTwo)}
	for vpp := 2; vpp <= opt.MaxVPP; vpp++ {
		if !opt.PowerOfTwo || isPow2(vpp) {
			t.w.vpps = append(t.w.vpps, vpp)
		}
	}
	maxCP := max(opt.MaxCP, 1)
	total := sys.AccelsPerNode * sys.Nodes
	var first int64
	for _, tp := range Divisors(total) {
		if opt.MaxTP > 0 && tp > opt.MaxTP {
			break
		}
		for _, pp := range Divisors(total / tp) {
			if opt.MaxPP > 0 && pp > opt.MaxPP {
				break
			}
			rest := total / tp / pp
			for _, dp := range Divisors(rest) {
				g := Group{TP: tp, PP: pp, DP: dp, CP: rest / dp, Blocks: 1, First: first}
				if g.CP > maxCP {
					continue
				}
				if g.Splits = t.w.splits(&g, nil); g.Splits == 0 {
					continue
				}
				if pp > 1 {
					g.Blocks += len(t.w.vpps)
				}
				t.Groups = append(t.Groups, g)
				first += g.Len()
			}
		}
	}
	return t
}

// Len is the number of mappings the table holds.
func (t *Table) Len() int64 {
	if len(t.Groups) == 0 {
		return 0
	}
	last := &t.Groups[len(t.Groups)-1]
	return last.First + last.Len()
}

// AppendGroup appends the mappings of group g to dst in canonical order and
// returns the extended slice.
func (t *Table) AppendGroup(dst []Mapping, g int) []Mapping {
	gr := &t.Groups[g]
	start := len(dst)
	t.w.splits(gr, &dst)
	for _, vpp := range t.w.vpps[:gr.Blocks-1] {
		n := len(dst)
		dst = append(dst, dst[start:start+gr.Splits]...)
		for i := n; i < len(dst); i++ {
			dst[i].VPP = vpp
		}
	}
	return dst
}

// At returns mapping i of the canonical order, Enumerate's i-th element,
// for i in [0, Len()).
func (t *Table) At(i int64) Mapping {
	g := sort.Search(len(t.Groups), func(g int) bool { return t.Groups[g].First > i }) - 1
	gr := &t.Groups[g]
	o := i - gr.First
	splits := make([]Mapping, 0, gr.Splits)
	t.w.splits(gr, &splits)
	m := splits[o%int64(gr.Splits)]
	if b := o / int64(gr.Splits); b > 0 {
		m.VPP = t.w.vpps[b-1]
	}
	return m
}

// nodeShares lists every node share of n accelerators — intra-node
// (TP, PP, DP, CP) degrees whose product is n, each a power of two when
// pow2 is set — in identity order: each degree compared by the bytes of its
// decimal rendering followed by 'x', the order Mapping.String compares an
// intra-node degree in. CP is what n leaves after the other three, so the
// order of the first three is the order of the four.
func nodeShares(n int, pow2 bool) []share {
	divs := slices.Clone(Divisors(n))
	slices.SortFunc(divs, func(a, b int) int {
		var ka, kb [24]byte
		return bytes.Compare(append(strconv.AppendInt(ka[:0], int64(a), 10), 'x'),
			append(strconv.AppendInt(kb[:0], int64(b), 10), 'x'))
	})
	var out []share
	for _, ti := range divs {
		for _, pi := range divs {
			for _, di := range divs {
				if n%ti != 0 || n/ti%pi != 0 || n/ti/pi%di != 0 {
					continue
				}
				if ci := n / ti / pi / di; !pow2 || isPow2(ti) && isPow2(pi) && isPow2(di) && isPow2(ci) {
					out = append(out, share{uint32(ti), uint32(pi), uint32(di), uint32(ci)})
				}
			}
		}
	}
	return out
}

// share is a node's part of a mapping: its intra-node TP, PP, DP and CP
// degrees. They are 32-bit so the divisibility tests of splits are 32-bit
// divisions, several times faster than 64-bit ones on common x86.
type share struct{ tp, pp, dp, cp uint32 }

// walk is what listing a group's splits reads of the system and options.
type walk struct {
	opt    EnumerateOptions
	shares []share // nodeShares of the accelerators per node
	vpps   []int   // the admitted VPP values above 1, ascending
}

// splits lists the intra/inter splits of group g in identity order,
// appending them to *dst when dst is not nil, and returns how many there
// are: the node shares each of whose degrees divides the group's. Every
// inter-node degree is then the group's over the share's, and their
// product is the node count because the share's product is the
// accelerator count. Under PowerOfTwo the shares are powers of two, so an
// inter-node degree is one exactly when the group's is.
func (w *walk) splits(g *Group, dst *[]Mapping) int {
	if w.opt.PowerOfTwo && !(isPow2(g.TP) && isPow2(g.PP) && isPow2(g.DP) && isPow2(g.CP)) {
		return 0
	}
	tp, pp, dp, cp := uint32(g.TP), uint32(g.PP), uint32(g.DP), uint32(g.CP)
	n := 0
	for _, q := range w.shares {
		if tp%q.tp != 0 || pp%q.pp != 0 || dp%q.dp != 0 || cp%q.cp != 0 {
			continue
		}
		if dst != nil {
			m := Mapping{
				TPIntra: int(q.tp), PPIntra: int(q.pp), DPIntra: int(q.dp),
				TPInter: int(tp / q.tp), PPInter: int(pp / q.pp), DPInter: int(dp / q.dp),
				SequenceParallel: w.opt.SequenceParallel,
				ExpertParallel:   w.opt.ExpertParallel,
			}
			// Disengaged dimensions stay at their zero value so a legacy
			// enumeration returns structs identical to the historical
			// three-dimension output.
			if cp > 1 {
				m.CPIntra, m.CPInter = int(q.cp), int(cp/q.cp)
			}
			*dst = append(*dst, m)
		}
		n++
	}
	return n
}
