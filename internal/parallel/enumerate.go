package parallel

import (
	"bytes"
	"slices"
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
// then VPP, then the String identity. The walk emits it in that order
// directly. TP runs over the divisors of the total accelerator count up to
// MaxTP, PP over the divisors of what remains up to MaxPP, DP ascending over
// the rest (so CP, the cofactor, descends and is kept only up to MaxCP),
// then VPP from 1 to MaxVPP. Inside one (TP, PP, DP, CP, VPP) group every
// inter-node degree is fixed by its intra-node partner and the VPP/SP/EP
// suffix is shared, so the identity order is the order of (TPIntra, PPIntra,
// DPIntra, CPIntra), each compared by the bytes of its decimal rendering
// followed by 'x': on 16-accelerator nodes "16x" < "1x" < "2x". A counting
// pass sizes the result exactly; no per-mapping key, string or sort is
// built.
func Enumerate(sys *hardware.System, opt EnumerateOptions) []Mapping {
	if sys == nil || sys.AccelsPerNode <= 0 || sys.Nodes <= 0 {
		return nil
	}
	w := walk{accels: sys.AccelsPerNode, nodes: sys.Nodes, opt: opt, intra: identityOrder(sys.AccelsPerNode)}
	w.out = make([]Mapping, w.run())
	w.run()
	return w.out
}

// identityOrder returns the divisors of n sorted by the bytes of their
// decimal rendering followed by 'x', the order Mapping.String compares an
// intra-node degree in.
func identityOrder(n int) []int {
	divs := slices.Clone(Divisors(n))
	slices.SortFunc(divs, func(a, b int) int {
		var ka, kb [24]byte
		return bytes.Compare(append(strconv.AppendInt(ka[:0], int64(a), 10), 'x'),
			append(strconv.AppendInt(kb[:0], int64(b), 10), 'x'))
	})
	return divs
}

// walk is one Enumerate call's canonical-order walk. With out nil it only
// counts; with out sized by that count it fills it.
type walk struct {
	accels, nodes int
	opt           EnumerateOptions
	intra         []int // Divisors(accels) in identity order
	out           []Mapping
}

// run walks the (TP, PP, DP, CP) groups in canonical order and returns the
// number of mappings they hold, writing them when w.out is set. A group's
// splits are listed once, for VPP 1; each further VPP variant repeats that
// block with its VPP set.
func (w *walk) run() int {
	opt := w.opt
	maxCP, maxVPP := max(opt.MaxCP, 1), max(opt.MaxVPP, 1)
	total := w.accels * w.nodes
	k := 0
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
				cp := rest / dp
				if cp > maxCP {
					continue
				}
				n := w.splits(k, tp, pp, dp, cp)
				if n == 0 {
					continue
				}
				block := k
				k += n
				for vpp := 2; vpp <= maxVPP && pp > 1; vpp++ {
					if opt.PowerOfTwo && !isPow2(vpp) {
						continue
					}
					if w.out != nil {
						dst := w.out[k : k+n]
						copy(dst, w.out[block:block+n])
						for i := range dst {
							dst[i].VPP = vpp
						}
					}
					k += n
				}
			}
		}
	}
	return k
}

// splits lists the intra/inter splits of one (tp, pp, dp, cp) group in
// identity order, writing them from w.out[k] when w.out is set, and returns
// how many there are. CPIntra is what the accelerators per node leave after
// TP, PP and DP, so three nested loops cover the group; every inter-node
// degree is its total over its intra-node part, and their product is the
// node count because the intra product is the accelerator count.
func (w *walk) splits(k int, tp, pp, dp, cp int) int {
	n := 0
	for _, ti := range w.intra {
		if tp%ti != 0 || !w.admits(ti, tp/ti) {
			continue
		}
		ra := w.accels / ti
		for _, pi := range w.intra {
			if ra%pi != 0 || pp%pi != 0 || !w.admits(pi, pp/pi) {
				continue
			}
			rb := ra / pi
			for _, di := range w.intra {
				if rb%di != 0 || dp%di != 0 {
					continue
				}
				ci := rb / di
				if cp%ci != 0 || !w.admits(di, dp/di) || !w.admits(ci, cp/ci) {
					continue
				}
				if w.out != nil {
					m := Mapping{
						TPIntra: ti, PPIntra: pi, DPIntra: di,
						TPInter: tp / ti, PPInter: pp / pi, DPInter: dp / di,
						SequenceParallel: w.opt.SequenceParallel,
						ExpertParallel:   w.opt.ExpertParallel,
					}
					// Disengaged dimensions stay at their zero value so a
					// legacy enumeration returns structs identical to the
					// historical three-dimension output.
					if cp > 1 {
						m.CPIntra, m.CPInter = ci, cp/ci
					}
					w.out[k+n] = m
				}
				n++
			}
		}
	}
	return n
}

// admits reports whether an intra/inter degree pair passes the
// power-of-two restriction.
func (w *walk) admits(intra, inter int) bool {
	return !w.opt.PowerOfTwo || (isPow2(intra) && isPow2(inter))
}
