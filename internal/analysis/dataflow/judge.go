package dataflow

import (
	"fmt"

	"github.com/sdl-lang/sdl/internal/lang"
)

// judge explains one transaction's leads: for each pattern and assertion,
// whether the issuing environment determines it and the witness why.
func (a *analysis) judge(t *txnCtx) *Judgment {
	j := &Judgment{Proc: t.proc.name, Node: t.node}
	issuing := a.issuingEnv(t.proc)
	addLead := func(pat lang.PatternNode, what string, index int) {
		ld := Lead{What: what, Index: index, Pos: pat.Pos}
		if len(pat.Fields) == 0 {
			ld.Ground = true
			ld.Why = "arity-0: the fixed zero-lead bucket"
			j.Leads = append(j.Leads, ld)
			return
		}
		ef, isExpr := pat.Fields[0].(*lang.ExprField)
		switch {
		case !isExpr:
			ld.Why = "lead is a wildcard"
		case groundLead(ef.Expr, t):
			ld.Ground = true
			ld.Val = foldVal(ef.Expr, issuing)
			ld.Why = a.groundWitness(ef.Expr, t)
		default:
			ld.Val = foldVal(ef.Expr, a.envOf(t))
			ld.Why = a.queryWitness(ef.Expr, t)
		}
		j.Leads = append(j.Leads, ld)
	}
	for i, item := range t.node.Items {
		addLead(item.Pattern, "pattern", i+1)
	}
	n := 0
	for _, act := range t.node.Actions {
		if as, ok := act.(*lang.AssertAction); ok {
			n++
			addLead(as.Pattern, "assertion", n)
		}
	}
	return j
}

// groundLead reports, at the AST level, whether the run-time footprint
// planner can evaluate the lead under the issuing environment: iff it
// references no query variable. A ?var whose name is a parameter or let is
// an equality test against that binding, so it stays ground; a bare
// identifier bound only by a quantifier declaration compiles to a query
// variable and does not.
func groundLead(e lang.ExprNode, t *txnCtx) bool {
	ground := true
	lang.Walk(e, func(n lang.Node) bool {
		switch en := n.(type) {
		case *lang.VarNode:
			if !t.proc.bound[en.Name] {
				ground = false
				return false
			}
		case *lang.IdentNode:
			if !t.proc.bound[en.Name] && t.vars[en.Name] {
				ground = false
				return false
			}
		}
		return true
	})
	return ground
}

// --- witnesses ---

// groundWitness explains a ground lead: which issuing names it depends on
// and what values flow into them.
func (a *analysis) groundWitness(e lang.ExprNode, t *txnCtx) string {
	p := t.proc
	names := leadNames(e, t)
	for _, name := range names {
		for i, prm := range p.params {
			if prm != name {
				continue
			}
			f := a.params[p][i]
			if f.Val.IsBottom() {
				return fmt.Sprintf("lead depends on parameter %s of %s; no spawn site in the program feeds it (host-spawned values are unbounded)", name, p.name)
			}
			return fmt.Sprintf("lead depends on parameter %s of %s, values %s %s", name, p.name, f.Val, renderSites(f.Sites))
		}
		if p.letNames[name] {
			f := a.lets[p][name]
			return fmt.Sprintf("lead depends on let %s, values %s %s", name, f.Val, renderSites(f.Sites))
		}
	}
	return "lead is determined by the issuing environment"
}

// queryWitness explains an unplannable lead: the binding chain from the
// query variable to the assert sites that can feed it.
func (a *analysis) queryWitness(e lang.ExprNode, t *txnCtx) string {
	for _, name := range leadNames(e, t) {
		if t.proc.bound[name] || !t.vars[name] {
			continue
		}
		f := (*Fact)(nil)
		if t.queryFacts != nil {
			f = t.queryFacts[name]
		}
		if f == nil || f.Val.IsBottom() {
			return fmt.Sprintf("lead is bound by query variable ?%s; no statically known assert site can bind it", name)
		}
		return fmt.Sprintf("lead is bound by query variable ?%s, values %s %s", name, f.Val, renderSites(f.Sites))
	}
	return "lead is not determined by the issuing environment"
}

// leadNames lists the identifier/variable names a lead expression
// references, in source order.
func leadNames(e lang.ExprNode, t *txnCtx) []string {
	var names []string
	seen := make(map[string]bool)
	lang.Walk(e, func(n lang.Node) bool {
		var name string
		switch en := n.(type) {
		case *lang.VarNode:
			name = en.Name
		case *lang.IdentNode:
			name = en.Name
		default:
			return true
		}
		if !seen[name] && (t.proc.bound[name] || t.vars[name]) {
			seen[name] = true
			names = append(names, name)
		}
		return true
	})
	return names
}

func renderSites(sites []Site) string {
	if len(sites) == 0 {
		return ""
	}
	out := "(via "
	for i, s := range sites {
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("%s in %s at %s", s.Desc, s.Proc, s.Pos)
	}
	return out + ")"
}
