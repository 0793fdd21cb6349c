package model

import (
	"errors"
	"fmt"

	"amped/internal/parallel"
)

// BatchInput is a structure-of-arrays list of design points against one
// compiled Session: column i of every slice describes the same point.
// Callers that already hold points as columns (the benchmark ladder, the
// audit) price them here; the sweep executor prices row by row instead
// (PrepareRow, PriceRowCell).
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

// BatchOutput is the structure-of-arrays result of EvaluateBatch. Columns
// are resized (reusing capacity) to the input length on every call, so one
// BatchOutput can be recycled across chunks without per-chunk allocation.
type BatchOutput struct {
	// Errs carries the per-point error (nil on success). The error values
	// are equal in message to what EvaluatePoint returns for the same
	// point, and are shared across the points of one mapping run rather
	// than allocated per point.
	Errs []error
	// Breakdowns is the full per-point result column — bit-identical to what
	// EvaluatePoint writes for the same point. Failed points are zeroed,
	// except a non-finite evaluation, which keeps the partial breakdown
	// (Session.Evaluate's contract).
	Breakdowns []Breakdown
}

// resize fits every column to n points, reusing capacity when possible.
func (o *BatchOutput) resize(n int) {
	o.Errs = column(o.Errs, n)
	o.Breakdowns = column(o.Breakdowns, n)
}

func column[T any](c []T, n int) []T {
	if cap(c) < n {
		return make([]T, n)
	}
	return c[:n]
}

// EvaluateBatch evaluates a whole chunk of design points against the
// compiled scenario in one call — the batched sibling of EvaluatePoint.
// Per-point results are bit-identical to the scalar path (the same float
// operations run in the same order on the same hoisted constants); what
// changes is the dispatch: config resolution, mapping validation, the
// collective-topology constants, the batch-independent gradient all-reduce
// and the reliability expectation are resolved once per run of consecutive
// equal mappings. Feed it mapping-major columns (the sweep's natural order)
// and the amortized per-point cost drops below the scalar path's.
//
// The error return covers malformed input columns only; per-point failures
// land in out.Errs, carrying the same messages the scalar path would
// return. The caller owns out; its columns are resized in place and may be
// recycled across calls.
func (s *Session) EvaluateBatch(in BatchInput, out *BatchOutput) error {
	if out == nil {
		return errors.New("model: nil batch output")
	}
	if err := in.validate(); err != nil {
		return err
	}
	n := in.Len()
	out.resize(n)

	var run mappingRun
	for i := 0; i < n; i++ {
		if i == 0 || in.Mappings[i] != in.Mappings[i-1] {
			s.prepareRun(&run, &in.Mappings[i])
		}
		nub := 0
		if in.Microbatches != nil {
			nub = in.Microbatches[i]
		}
		_, err := s.priceCell(&run, in.Batches[i], nub, nil, nil, nil, false, &out.Breakdowns[i])
		out.Errs[i] = err
		if err != nil && err != errNonFinite {
			// Zero it so recycled output never leaks a previous call's numbers.
			out.Breakdowns[i] = Breakdown{}
		}
	}
	return nil
}

// Row is one mapping's prepared pricing run (validation verdicts, degrees
// and every per-mapping hoist) with two memos a sweep worker's walk reuses
// across cells: the forward communication terms of the last microbatch
// size the row priced, and the degree-group terms (groupTerms) of each
// batch position of the Aggregates it prices against. A worker prepares it
// once per mapping it walks (PrepareRow) and prices the mapping's cells
// against it (PriceRowCell). Enumerate emits the mappings of one degree
// group consecutively, so the group memo serves every mapping of a group
// after its first.
type Row struct {
	run  mappingRun
	comm commTerms

	// The degree-group memo: terms[bi] is batch position bi of aggs, valid
	// while the prepared mappings share key.
	key   groupKey
	aggs  *Aggregates
	terms []groupTerms
}

// groupKey is everything a cell's degree-group terms read besides the batch
// and the raw N_ub: the session and the mapping's degree products. The zero
// key belongs to no prepared mapping: a Row holding it has an empty memo.
type groupKey struct {
	s      *Session
	dp, pp int
	tp, cp float64
	sp     bool
}

// PrepareRow validates the mapping mp points to, hoists its run constants
// into r and empties r's communication memo, so a Row may move between
// mappings and sessions. r keeps its degree-group memo when mp is in the
// degree group of the mapping r held, and empties it otherwise and for a
// mapping that fails validation.
func (s *Session) PrepareRow(r *Row, mp *parallel.Mapping) {
	s.prepareRun(&r.run, mp)
	r.comm = commTerms{}
	var key groupKey
	if run := &r.run; run.err == nil {
		key = groupKey{s, run.dp, run.pp, run.tpF, run.cpF, run.mpn.SequenceParallel}
	}
	if key != r.key {
		r.key = key
		clear(r.terms)
	}
}

// Release empties r's degree-group memo and drops the session and
// Aggregates it refers to, so a Row parked in a pool keeps neither alive.
// The memo's capacity stays for the Row's next walk.
func (r *Row) Release() {
	r.key, r.aggs = groupKey{}, nil
	clear(r.terms)
}

// Aggregates is a sweep's batch list with each batch's Eq. 2 aggregate
// looked up in the session's memo once, indexed by batch position. A
// non-positive batch keeps a nil slot: its cells fail validation before the
// aggregate is read.
type Aggregates struct {
	batches []int
	aggs    []*batchAgg
}

// Aggregates resolves the aggregates of batches through the session's memo.
func (s *Session) Aggregates(batches []int) *Aggregates {
	a := &Aggregates{batches: batches, aggs: make([]*batchAgg, len(batches))}
	for i, b := range batches {
		if b > 0 {
			a.aggs[i] = s.agg(b)
		}
	}
	return a
}

// PriceRowCell prices the cell (r's mapping, batch position bi of a, raw
// microbatch count nub) into out and returns the cell's rank key, the
// float64 of out.ExpectedTotalTime() (0 on error): the EvaluatePoint
// arithmetic on the same hoists, so out and the error are bit-identical to
// EvaluatePoint's. a must come from this session and r from PrepareRow on
// it. A cell's degree-group terms come from r's memo when an earlier cell of
// the group priced them at the same batch position and raw N_ub.
func (s *Session) PriceRowCell(r *Row, a *Aggregates, bi, nub int, out *Breakdown) (float64, error) {
	if r.aggs != a {
		r.aggs = a
		r.terms = column(r.terms, len(a.batches))
		clear(r.terms)
	}
	return s.priceCell(&r.run, a.batches[bi], nub, a.aggs[bi], &r.terms[bi], &r.comm, false, out)
}
