package model

import (
	"errors"
	"fmt"

	"amped/internal/parallel"
)

// BatchInput is a structure-of-arrays list of design points against one
// compiled Session: column i of every slice describes the same point. The
// sweep engine fills these columns chunk by chunk; anything producing many
// points of one scenario (a shard server, a solver frontier expansion) can
// do the same.
type BatchInput struct {
	// Mappings is the parallelism-configuration column.
	Mappings []parallel.Mapping
	// Batches is the global-batch column (same length as Mappings).
	Batches []int
	// Microbatches is the raw N_ub column (0 derives the default, exactly
	// like EvaluatePoint's microbatches argument). Nil means 0 everywhere.
	Microbatches []int
}

// Len returns the number of points in the batch.
func (in *BatchInput) Len() int { return len(in.Mappings) }

// validate checks the column lengths agree.
func (in *BatchInput) validate() error {
	if len(in.Batches) != len(in.Mappings) {
		return fmt.Errorf("model: batch input columns disagree: %d mappings, %d batches",
			len(in.Mappings), len(in.Batches))
	}
	if in.Microbatches != nil && len(in.Microbatches) != len(in.Mappings) {
		return fmt.Errorf("model: batch input columns disagree: %d mappings, %d microbatch counts",
			len(in.Mappings), len(in.Microbatches))
	}
	return nil
}

// PointCode classifies one batched point's outcome without forcing callers
// to inspect error values on the hot path.
type PointCode uint8

const (
	// pointUnset is the zero value: a result slot EvaluateBatch has not
	// written. A point's code is the last thing written to its slot, so
	// callers recovering a panicked batch call (the sweep engine's chunk
	// fallback) can salvage every slot whose code is set — see Evaluated.
	pointUnset PointCode = iota
	// PointOK marks a point that evaluated to a finite breakdown.
	PointOK
	// PointBadMapping marks a mapping that does not tile the system.
	PointBadMapping
	// PointBadBatch marks a batch schedule that does not divide the mapping.
	PointBadBatch
	// PointBadModelFit marks TP exceeding the head count or PP exceeding the
	// layer count.
	PointBadModelFit
	// PointNonFinite marks an evaluation that produced a non-finite time
	// (unusable link or degenerate mapping); the breakdown column keeps the
	// partial result, mirroring Session.Evaluate's contract.
	PointNonFinite
)

// OK reports whether the point evaluated successfully.
func (c PointCode) OK() bool { return c == PointOK }

// Evaluated reports whether EvaluateBatch reached this point's slot. The
// code is the final write for a slot, so a true return means the slot's
// other columns hold a complete result even when the call itself died in a
// panic on a later point (a degenerate user-supplied efficiency model).
func (c PointCode) Evaluated() bool { return c != pointUnset }

// String names the code for reports.
func (c PointCode) String() string {
	switch c {
	case pointUnset:
		return "unset"
	case PointOK:
		return "ok"
	case PointBadMapping:
		return "bad-mapping"
	case PointBadBatch:
		return "bad-batch"
	case PointBadModelFit:
		return "bad-model-fit"
	case PointNonFinite:
		return "non-finite"
	}
	return "unknown"
}

// BatchOutput is the structure-of-arrays result of EvaluateBatch. Columns
// are resized (reusing capacity) to the input length on every call, so one
// BatchOutput can be recycled across chunks without per-chunk allocation.
type BatchOutput struct {
	// Codes classifies every point; Codes[i].OK() gates the other columns.
	Codes []PointCode
	// Errs carries the per-point error for failed points (nil when OK). The
	// error values are equal in message to what EvaluatePoint returns for
	// the same point, and are shared across the points of one mapping run
	// rather than allocated per point.
	Errs []error
	// Breakdowns is the full per-point result column — bit-identical to what
	// EvaluatePoint writes for the same point. Failed points are zeroed,
	// except PointNonFinite which keeps the partial breakdown.
	Breakdowns []Breakdown
	// PerBatchSeconds and ExpectedTotalSeconds are the headline ranking
	// metrics, extracted as dense columns so rankers and wire encoders never
	// re-walk the breakdown structs. Zero for failed points.
	PerBatchSeconds      []float64
	ExpectedTotalSeconds []float64
}

// resize fits every column to n points, reusing capacity when possible.
// Codes is cleared back to the unset sentinel so a recycled output never
// mistakes a previous chunk's slot for this call's result if the call dies
// mid-loop; the other columns are only trusted where the code is set.
func (o *BatchOutput) resize(n int) {
	o.Codes = column(o.Codes, n)
	clear(o.Codes)
	o.Errs = column(o.Errs, n)
	o.Breakdowns = column(o.Breakdowns, n)
	o.PerBatchSeconds = column(o.PerBatchSeconds, n)
	o.ExpectedTotalSeconds = column(o.ExpectedTotalSeconds, n)
}

func column[T any](c []T, n int) []T {
	if cap(c) < n {
		return make([]T, n)
	}
	return c[:n]
}

// fail records a failed point and zeroes its result columns so recycled
// output storage never leaks a previous chunk's numbers.
func (o *BatchOutput) fail(i int, code PointCode, err error) {
	o.Codes[i] = code
	o.Errs[i] = err
	o.Breakdowns[i] = Breakdown{}
	o.PerBatchSeconds[i] = 0
	o.ExpectedTotalSeconds[i] = 0
}

// aggCacheSize bounds the per-call aggregate cache; batches beyond it fall
// back to the session's own lookup (still correct, just one map access).
const aggCacheSize = 32

// aggCache memoizes the distinct global batches of one EvaluateBatch call
// so each Eq. 2 aggregate is resolved once per chunk instead of once per
// point. A linear scan beats a map here: chunks carry a handful of batch
// sizes and the entries stay in cache. A nil cache (the one-cell scalar
// paths) resolves every batch through the session.
type aggCache struct {
	n       int
	batches [aggCacheSize]int
	aggs    [aggCacheSize]batchAgg
}

func (c *aggCache) get(s *Session, batch int) batchAgg {
	if c == nil {
		return s.agg(batch)
	}
	for i := 0; i < c.n; i++ {
		if c.batches[i] == batch {
			return c.aggs[i]
		}
	}
	a := s.agg(batch)
	if c.n < aggCacheSize {
		c.batches[c.n] = batch
		c.aggs[c.n] = a
		c.n++
	}
	return a
}

// EvaluateBatch evaluates a whole chunk of design points against the
// compiled scenario in one call — the batched sibling of EvaluatePoint.
// Per-point results are bit-identical to the scalar path (the same float
// operations run in the same order on the same hoisted constants); what
// changes is the dispatch: config resolution, mapping validation, the
// collective-topology constants, the batch-independent gradient all-reduce
// and the reliability expectation are resolved once per run of consecutive
// equal mappings, and the Eq. 2 per-batch aggregate once per distinct batch
// per call. Feed it mapping-major columns (the sweep's natural order) and
// the amortized per-point cost drops well below the scalar path's.
//
// The error return covers malformed input columns only; per-point failures
// land in out.Codes/out.Errs, carrying the same messages the scalar path
// would return. The caller owns out; its columns are resized in place and
// may be recycled across calls.
func (s *Session) EvaluateBatch(in BatchInput, out *BatchOutput) error {
	if out == nil {
		return errors.New("model: nil batch output")
	}
	if err := in.validate(); err != nil {
		return err
	}
	n := in.Len()
	out.resize(n)
	if n == 0 {
		return nil
	}

	var aggs aggCache
	var run mappingRun
	for i := 0; i < n; i++ {
		mp := in.Mappings[i]
		if i == 0 || mp != in.Mappings[i-1] {
			run = s.prepareRun(mp)
		}
		nub := 0
		if in.Microbatches != nil {
			nub = in.Microbatches[i]
		}
		bd := &out.Breakdowns[i]
		code, err := s.priceCell(&run, in.Batches[i], nub, &aggs, false, bd)
		switch code {
		case PointOK:
			out.Errs[i] = nil
			out.PerBatchSeconds[i] = float64(bd.PerBatch())
			out.ExpectedTotalSeconds[i] = float64(bd.ExpectedTotalTime())
		case PointNonFinite:
			// Keep the partial breakdown, like Session.Evaluate does.
			out.Errs[i] = err
			out.PerBatchSeconds[i] = 0
			out.ExpectedTotalSeconds[i] = 0
		default:
			out.fail(i, code, err)
			continue
		}
		out.Codes[i] = code
	}
	return nil
}
