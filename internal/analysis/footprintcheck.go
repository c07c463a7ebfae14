package analysis

import (
	"github.com/sdl-lang/sdl/internal/lang"
)

// runFootprint is the footprint pass: it reports, per transaction, when the
// runtime's commutativity-aware commit path (key-level locking + group
// commit, see internal/dataspace) cannot be used, and why. The pass mirrors
// the transaction engine's run-time footprint planner at the AST level: a
// pattern or assertion whose leading field is a wildcard, a query
// variable, or an expression over query variables is not determined by the
// issuing environment, so the transaction's footprint cannot be bounded
// and it falls back to coarse locking. (The planner's other condition, a
// plannable view, always holds for SDL source: the compiler builds views
// from pure pattern matchers.)
//
// Everything here is a Note: wide footprints are legal SDL, they just
// serialize. The pass makes the performance cliff visible at vet time
// instead of in a lock-contention profile.
func runFootprint(p *pass) {
	for _, u := range p.units {
		if !p.reachable[u.name] {
			continue
		}
		for _, ti := range u.txns {
			reportWideLeads(p, ti)
		}
	}
}

// reportWideLeads flags every pattern of ti whose lead is not determined by
// the unit's issuing environment (parameters + lets). One note per
// offending pattern, at the pattern's position.
func reportWideLeads(p *pass, ti *txnInfo) {
	check := func(pat lang.PatternNode, what string) {
		if len(pat.Fields) == 0 {
			return // arity-0: the fixed zero-lead bucket, always plannable
		}
		if leadDetermined(pat.Fields[0]) {
			return
		}
		p.addf(pat.Pos, CheckFootprint, Note,
			"lead of %s %s is not determined by parameters or lets; the transaction's footprint is unbounded and commits take shard-level locks",
			what, abstractPattern(pat, ti.bound).String())
	}
	for _, item := range ti.txn.Items {
		check(item.Pattern, "pattern")
	}
	for _, a := range ti.txn.Actions {
		if as, ok := a.(*lang.AssertAction); ok {
			check(as.Pattern, "assertion")
		}
	}
}

// leadDetermined reports whether a leading field is determined by the
// issuing environment: a wildcard never is; an expression is iff it
// references no query variable (bare identifiers are atoms, bound
// identifiers take their runtime value — both determined).
func leadDetermined(f lang.FieldNode) bool {
	ef, ok := f.(*lang.ExprField)
	if !ok {
		return false // wildcard lead
	}
	determined := true
	lang.Walk(ef.Expr, func(n lang.Node) bool {
		if _, isVar := n.(*lang.VarNode); isVar {
			determined = false
			return false
		}
		return true
	})
	return determined
}
