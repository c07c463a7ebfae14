package pattern

import (
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// FieldSel is one concrete field constraint of a pattern: the matched tuple
// must carry Val at position Pos. The matcher hands every selector it can
// evaluate to the source, which picks the most selective access path among
// them. Pos 0 is the lead: when the pattern's lead is known it is the first
// selector, and the (arity, lead) bucket is one more candidate set.
type FieldSel struct {
	Pos int         // field position (0 = the lead)
	Val tuple.Value // concrete value the tuple must carry at Pos
}

// LeadSel returns the lead selector of sels (by contract the first one),
// if present.
func LeadSel(sels []FieldSel) (tuple.Value, bool) {
	if len(sels) > 0 && sels[0].Pos == 0 {
		return sels[0].Val, true
	}
	return tuple.Value{}, false
}

// FieldSource is a Source with a secondary field-index access path. The
// dataspace readers implement it; sources without field indexes simply
// don't, and the matcher falls back to Scan.
type FieldSource interface {
	Source
	// ScanFields calls fn for tuple instances with the given arity,
	// choosing among the candidate sets sels describes: the (arity, lead)
	// bucket when sels starts with a lead selector, and the (arity, pos,
	// value) bucket of every other selector whose shape is promoted. It
	// delivers the smallest; with no lead selector and no promoted shape it
	// falls back to the full arity scan. Delivery is a superset of the
	// tuples satisfying all sels (the matcher re-verifies every field —
	// a field bucket served in place of the lead bucket holds other leads
	// too) and a subset of the arity. Iteration stops when fn returns false.
	// sels holds at least one non-lead selector. It stays intact for the
	// whole call (nested scans build theirs elsewhere) but must not be
	// retained past it: the matcher reuses the backing array.
	ScanFields(arity int, sels []FieldSel, fn func(id tuple.ID, t tuple.Tuple) bool)
	// LeadWide reports whether the (arity, lead) bucket holds enough
	// tuples that a field selector could beat scanning it. The matcher asks
	// before building selectors for a lead-known pattern, so narrow buckets
	// keep the plain Scan path untouched.
	LeadWide(arity int, lead tuple.Value) bool
}

// Estimator exposes a source's cardinality statistics so planJoinOrder can
// order patterns by estimated candidates visited instead of the boundness
// heuristic. Every method returns an estimate of the tuple instances a
// scan through the corresponding access path would deliver; estimates may
// be stale or approximate — they steer the join order, never correctness.
// Callers hold whatever locks Scan itself requires.
type Estimator interface {
	// ArityEstimate is the cost of a full arity scan: the live instance
	// count at the given arity.
	ArityEstimate(arity int) float64
	// LeadEstimate is the cost of a lead-indexed scan whose lead value is
	// bound only at run time: the mean (arity, lead) bucket size.
	LeadEstimate(arity int) float64
	// LeadValueEstimate is the cost of a lead-indexed scan on a concrete
	// value: the size of that (arity, lead) bucket.
	LeadValueEstimate(arity int, lead tuple.Value) float64
	// FieldEstimate is the cost of a field scan on (arity, pos) whose
	// value is bound only at run time: the mean field bucket size when the
	// shape is promoted, or the full arity count when it is not.
	FieldEstimate(arity, pos int) float64
	// FieldValueEstimate is the cost of a field scan on a concrete
	// (arity, pos, val): that bucket's size when the shape is promoted, or
	// the full arity count when it is not.
	FieldValueEstimate(arity, pos int, val tuple.Value) float64
}

// EstimatorProvider lets a wrapping source (e.g. a view window) expose the
// estimator of the source it wraps without implementing Estimator itself.
type EstimatorProvider interface {
	JoinEstimator() Estimator
}

// sourceEstimator resolves the estimator a source exposes, directly or via
// EstimatorProvider; nil when it has none.
func sourceEstimator(src Source) Estimator {
	switch s := src.(type) {
	case Estimator:
		return s
	case EstimatorProvider:
		return s.JoinEstimator()
	default:
		return nil
	}
}

// FieldSels collects the concrete non-lead field constraints of p under
// s — every position whose required value is already known — appending
// to dst. Unevaluable computed fields are skipped (they fail candidates
// during the match instead): the selectors the matcher hands ScanFields for
// p when no earlier pattern has bound anything. A blocked transaction picks
// the selector its subscription is filed under from this list.
func FieldSels(p Pattern, s expr.Scope, dst []FieldSel) []FieldSel {
	for i := 1; i < len(p.Fields); i++ {
		switch f := p.Fields[i]; f.Kind {
		case FieldConst:
			dst = append(dst, FieldSel{Pos: i, Val: f.Value})
		case FieldVar:
			if v, ok := lookup(s, f.Name); ok {
				dst = append(dst, FieldSel{Pos: i, Val: v})
			}
		case FieldExpr:
			if v, err := f.Expr.Eval(s); err == nil {
				dst = append(dst, FieldSel{Pos: i, Val: v})
			}
		}
	}
	return dst
}
