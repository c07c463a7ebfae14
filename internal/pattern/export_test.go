package pattern

import (
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// The in-package test sources, for the external differential tests
// (package pattern_test, which may import the reference model). Instance i
// of ts gets ID i+1.

// NewSliceSource returns a plain Source over ts.
func NewSliceSource(ts []tuple.Tuple) Source { return &sliceSource{tuples: ts} }

// NewWideSource returns the adversarial FieldSource over ts (see wideSource).
func NewWideSource(ts []tuple.Tuple) Source {
	return &wideSource{sliceSource: sliceSource{tuples: ts}}
}

// JoinOrder returns the indexes of q's positive patterns in the order the
// matcher joins them over src from base — the order the differential tests
// hand the reference model.
func JoinOrder(q Query, src Source, base expr.Env) []int {
	var positives []int
	for i, p := range q.Patterns {
		if !p.Negated {
			positives = append(positives, i)
		}
	}
	return planJoinOrder(q, positives, base, src, new([]float64))
}
