package pattern

import (
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// planJoinOrder greedily reorders the positive patterns of a query (in
// place). At each step it places, among the *eligible* remaining patterns,
// the one with the lowest estimated scan cost.
//
// When the source exposes an Estimator, cost is the estimated number of
// tuple candidates the pattern's scan would visit given the bindings
// accumulated so far: the concrete (arity, lead) bucket size when the
// lead value is known at plan time, the mean lead-bucket size when the
// lead is bound by an earlier pattern, the best promoted field-index
// bucket when only non-lead fields are constrained, and the full arity
// count otherwise. Otherwise it falls back to the boundness heuristic,
// expressed as a cost so one selection loop serves both:
//
//	0 — the leading field is determined by the bindings so far (the scan
//	    hits one index bucket);
//	1 — the pattern shares a variable with the bindings so far (the join
//	    is constrained);
//	2 — unrelated (a full arity scan).
//
// Every pattern is costed once up front; placing a pattern re-costs only
// the remaining patterns that mention a variable it newly binds (patterns
// with a computed field or a guard are re-costed conservatively), so a
// query of n constant patterns makes n estimator probes, not n². The plan
// allocates nothing for queries of up to planInline patterns without
// computed fields or guards, nor for a longer one once spill has grown.
//
// Eligibility preserves semantics exactly: a pattern may be placed only
// when every variable of its computed (FieldExpr) fields is already
// bound — an unevaluable computed field silently fails to match, so
// hoisting it would change results — and every variable of its guard is
// bound or bound by the pattern itself, so guards never see fresh
// unbound variables they would not have seen in written order. When no
// remaining pattern is eligible, the next one in written order is taken
// (reproducing the written-order behavior, including its errors).
//
// Ties break toward written order, keeping plans deterministic. A query of
// more than planInline patterns keeps its costs in *spill, the caller's
// array kept across plans (a pooled matcher's), grown only when short.
func planJoinOrder(q Query, positives []int, base expr.Scope, src Source, spill *[]float64) []int {
	n := len(positives)
	if n <= 1 {
		return positives
	}
	var (
		costBuf  [planInline]float64
		boundBuf [planInline]string
	)
	pl := planner{q: q, base: base, est: sourceEstimator(src)}
	// bound holds the variables bound by the patterns placed so far, in
	// placement order. It is kept out of the planner struct, whose contents
	// reach interface calls, so that it can stay on the stack.
	bound := boundBuf[:0]
	cost := costBuf[:0]
	if n > planInline {
		if cap(*spill) < n {
			*spill = make([]float64, 0, n)
		}
		cost = (*spill)[:0]
	}
	for _, pi := range positives {
		cost = append(cost, pl.cost(pi, bound))
	}
	for k := 0; k < n; k++ {
		best := -1
		for i := k; i < n; i++ {
			if cost[i] != ineligible && (best < 0 || cost[i] < cost[best]) {
				best = i
			}
		}
		if best < 0 {
			best = k // nothing eligible: fall back to written order
		}
		// Move the chosen pattern to position k, keeping the rest in
		// written order.
		pi := positives[best]
		copy(positives[k+1:best+1], positives[k:best])
		copy(cost[k+1:best+1], cost[k:best])
		positives[k] = pi

		mark := len(bound)
		for _, f := range q.Patterns[pi].Fields {
			if f.Kind == FieldVar && !pl.isBound(f.Name, bound) {
				bound = append(bound, f.Name)
			}
		}
		if fresh := bound[mark:]; len(fresh) > 0 {
			for i := k + 1; i < n; i++ {
				if mentions(q.Patterns[positives[i]], fresh) {
					cost[i] = pl.cost(positives[i], bound)
				}
			}
		}
	}
	return positives
}

const (
	// planInline is the query size up to which the planner's working state
	// lives on the stack.
	planInline = 16
	// ineligible marks a pattern that may not be placed yet.
	ineligible = -1.0
)

// planner is the fixed input of one planJoinOrder run. The variables bound
// at any step are the base environment's plus the bound list its methods
// are handed.
type planner struct {
	q    Query
	base expr.Scope
	est  Estimator
}

func (pl *planner) isBound(name string, bound []string) bool {
	if _, ok := lookup(pl.base, name); ok {
		return true
	}
	for _, b := range bound {
		if b == name {
			return true
		}
	}
	return false
}

func (pl *planner) allBound(e expr.Expr, bound []string) bool {
	for _, v := range e.Vars(nil) {
		if !pl.isBound(v, bound) {
			return false
		}
	}
	return true
}

// mentions reports whether re-costing p can change once the fresh variables
// are bound: p names one of them in a variable field, or carries a computed
// field or guard (whose variable sets are not inspected — conservative).
func mentions(p Pattern, fresh []string) bool {
	if p.Guard != nil {
		return true
	}
	for _, f := range p.Fields {
		switch f.Kind {
		case FieldExpr:
			return true
		case FieldVar:
			for _, v := range fresh {
				if v == f.Name {
					return true
				}
			}
		}
	}
	return false
}

// eligible reports whether placing pattern pi now preserves the written
// order's semantics (see planJoinOrder).
func (pl *planner) eligible(p Pattern, bound []string) bool {
	for _, f := range p.Fields {
		if f.Kind == FieldExpr && !pl.allBound(f.Expr, bound) {
			return false
		}
	}
	if p.Guard == nil {
		return true
	}
	for _, v := range p.Guard.Vars(nil) {
		if pl.isBound(v, bound) {
			continue
		}
		own := false
		for _, f := range p.Fields {
			if f.Kind == FieldVar && f.Name == v {
				own = true
				break
			}
		}
		if !own {
			return false
		}
	}
	return true
}

// leadKnown reports whether the pattern's leading field is determined by
// the bindings so far. Computed leads were checked by eligible.
func (pl *planner) leadKnown(p Pattern, bound []string) bool {
	if len(p.Fields) == 0 {
		return false
	}
	switch f := p.Fields[0]; f.Kind {
	case FieldConst, FieldExpr:
		return true
	case FieldVar:
		return pl.isBound(f.Name, bound)
	default:
		return false
	}
}

// planValue resolves a field's concrete value at plan time: constants,
// variables carried by the base environment, and closed expressions over
// them. Variables bound by earlier-planned patterns are known at run time
// but have no plan-time value.
func (pl *planner) planValue(f Field) (tuple.Value, bool) {
	switch f.Kind {
	case FieldConst:
		return f.Value, true
	case FieldVar:
		return lookup(pl.base, f.Name)
	case FieldExpr:
		for _, v := range f.Expr.Vars(nil) {
			if _, ok := lookup(pl.base, v); !ok {
				return tuple.Value{}, false
			}
		}
		v, err := f.Expr.Eval(pl.base)
		return v, err == nil
	default:
		return tuple.Value{}, false
	}
}

// cost estimates the candidates pattern pi's scan visits under the
// bindings so far, mirroring the matcher's access-path selection: lead
// bucket when the lead is (or will be) known, else the best evaluable field
// selector, else the full arity scan. It returns ineligible when the pattern
// may not be placed yet.
func (pl *planner) cost(pi int, bound []string) float64 {
	p := pl.q.Patterns[pi]
	if !pl.eligible(p, bound) {
		return ineligible
	}
	known := pl.leadKnown(p, bound)
	if pl.est == nil {
		switch {
		case known:
			return 0
		case pl.sharesVar(p, bound):
			return 1
		default:
			return 2
		}
	}
	arity := p.Arity()
	if known {
		if v, ok := pl.planValue(p.Fields[0]); ok {
			return pl.est.LeadValueEstimate(arity, v)
		}
		return pl.est.LeadEstimate(arity)
	}
	best := pl.est.ArityEstimate(arity)
	for i := 1; i < len(p.Fields); i++ {
		f := p.Fields[i]
		var c float64
		if v, ok := pl.planValue(f); ok {
			c = pl.est.FieldValueEstimate(arity, i, v)
		} else if f.Kind == FieldVar && pl.isBound(f.Name, bound) {
			c = pl.est.FieldEstimate(arity, i)
		} else {
			continue
		}
		if c < best {
			best = c
		}
	}
	return best
}

func (pl *planner) sharesVar(p Pattern, bound []string) bool {
	for _, f := range p.Fields {
		if f.Kind == FieldVar && pl.isBound(f.Name, bound) {
			return true
		}
	}
	return false
}
