package analysis

import (
	"strings"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// This file holds the analyzer's shared static model: per-process scope
// computation, abstract tuple shapes, and the conservative constant
// folder. Every pass works over the same model, so "compatible" means the
// same thing to the view checker, the shape checker, and the blocked-
// transaction checker.

// absField is a statically-approximated tuple field: either a known
// constant value, or unknown (a variable, wildcard, parameter, or
// unfoldable expression — anything that may take any value at run time).
type absField struct {
	known bool
	val   tuple.Value
}

// compat reports whether two abstract fields can describe the same
// concrete value. Unknown is compatible with everything.
func (f absField) compat(g absField) bool {
	return !f.known || !g.known || f.val.Equal(g.val)
}

// absPat is a statically-approximated tuple shape.
type absPat struct {
	fields []absField
	pos    lang.Pos
}

func (a absPat) arity() int { return len(a.fields) }

// compat reports whether the two shapes can describe a common tuple.
func (a absPat) compat(b absPat) bool {
	if len(a.fields) != len(b.fields) {
		return false
	}
	for i := range a.fields {
		if !a.fields[i].compat(b.fields[i]) {
			return false
		}
	}
	return true
}

// String renders the shape with `?` for unknown fields: <ready, ?>.
func (a absPat) String() string {
	parts := make([]string, len(a.fields))
	for i, f := range a.fields {
		if f.known {
			parts[i] = f.val.String()
		} else {
			parts[i] = "?"
		}
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// boundSet tracks identifiers that denote runtime bindings (parameters,
// let-constants, quantifier declarations) rather than atoms, mirroring
// the compiler's scope rules.
type boundSet map[string]bool

func (b boundSet) clone() boundSet {
	c := make(boundSet, len(b))
	for k := range b {
		c[k] = true
	}
	return c
}

// unit is one analyzable behavior: a process declaration or the main
// block.
type unit struct {
	name  string
	decl  *lang.ProcessDecl // nil for main
	body  []lang.StmtNode
	bound boundSet // parameters + let-constants (behavior-wide, as compiled)
	txns  []*txnInfo
}

// txnInfo is a transaction with its effective scope.
type txnInfo struct {
	txn   *lang.TxnNode
	bound boundSet // unit scope + quantifier declarations
}

// buildUnits constructs the per-behavior model for every process
// declaration plus main (when present), in declaration order.
func buildUnits(prog *lang.Program) []*unit {
	var units []*unit
	add := func(name string, decl *lang.ProcessDecl, params []string, body []lang.StmtNode) {
		u := &unit{name: name, decl: decl, body: body, bound: make(boundSet)}
		for _, p := range params {
			u.bound[p] = true
		}
		for _, s := range body {
			lang.Walk(s, func(n lang.Node) bool {
				if l, ok := n.(*lang.LetAction); ok {
					u.bound[l.Name] = true
				}
				return true
			})
		}
		for _, s := range body {
			lang.Walk(s, func(n lang.Node) bool {
				if tx, ok := n.(*lang.TxnNode); ok {
					tb := u.bound
					if len(tx.DeclVars) > 0 {
						tb = u.bound.clone()
						for _, v := range tx.DeclVars {
							tb[v] = true
						}
					}
					u.txns = append(u.txns, &txnInfo{txn: tx, bound: tb})
				}
				return true
			})
		}
		units = append(units, u)
	}
	for _, pd := range prog.Processes {
		add(pd.Name, pd, pd.Params, pd.Body)
	}
	if prog.Main != nil {
		add(lang.MainProcess, nil, nil, prog.Main.Body)
	}
	return units
}

// abstractPattern approximates a pattern under a bound set: bound
// identifiers and variables are unknown, bare identifiers are atom
// constants, literals are themselves, and other field expressions are
// constant-folded when possible.
func abstractPattern(p lang.PatternNode, bound boundSet) absPat {
	a := absPat{fields: make([]absField, 0, len(p.Fields)), pos: p.Pos}
	for _, f := range p.Fields {
		ef, ok := f.(*lang.ExprField)
		if !ok { // wildcard
			a.fields = append(a.fields, absField{})
			continue
		}
		if v, ok := foldExpr(ef.Expr, bound); ok {
			a.fields = append(a.fields, absField{known: true, val: v})
		} else {
			a.fields = append(a.fields, absField{})
		}
	}
	return a
}

// foldExpr conservatively evaluates an expression to a constant. Bound
// identifiers and ?variables never fold; unbound identifiers fold to
// atoms; operators and built-in calls fold through the runtime's own
// evaluator, so static and dynamic semantics cannot drift apart.
func foldExpr(e lang.ExprNode, bound boundSet) (tuple.Value, bool) {
	switch en := e.(type) {
	case *lang.LitNode:
		return en.Value, true
	case *lang.IdentNode:
		if bound[en.Name] {
			return tuple.Value{}, false
		}
		return tuple.Atom(en.Name), true
	case *lang.VarNode:
		return tuple.Value{}, false
	case *lang.UnNode:
		x, ok := foldExpr(en.X, bound)
		if !ok {
			return tuple.Value{}, false
		}
		var folded expr.Expr
		if en.Op == lang.TokNot {
			folded = expr.Not(expr.Const(x))
		} else {
			folded = expr.Neg(expr.Const(x))
		}
		v, err := folded.Eval(nil)
		return v, err == nil
	case *lang.BinNode:
		op, ok := lang.OpFor(en.Op)
		if !ok {
			return tuple.Value{}, false
		}
		l, lok := foldExpr(en.L, bound)
		// Short-circuit folding: `false and X` and `true or X` are
		// constant regardless of X (mirroring Binary.Eval's shortcut).
		if lok {
			if b, isb := l.AsBool(); isb {
				if op == expr.OpAnd && !b {
					return tuple.Bool(false), true
				}
				if op == expr.OpOr && b {
					return tuple.Bool(true), true
				}
			}
		}
		r, rok := foldExpr(en.R, bound)
		if !lok || !rok {
			return tuple.Value{}, false
		}
		v, err := expr.Bin(op, expr.Const(l), expr.Const(r)).Eval(nil)
		return v, err == nil
	case *lang.CallNode:
		if !expr.HasBuiltin(en.Name) {
			return tuple.Value{}, false
		}
		args := make([]expr.Expr, len(en.Args))
		for i, a := range en.Args {
			v, ok := foldExpr(a, bound)
			if !ok {
				return tuple.Value{}, false
			}
			args[i] = expr.Const(v)
		}
		v, err := expr.Fn(en.Name, args...).Eval(nil)
		return v, err == nil
	}
	return tuple.Value{}, false
}

// constFalse reports whether e provably evaluates to false.
func constFalse(e lang.ExprNode, bound boundSet) bool {
	if e == nil {
		return false
	}
	v, ok := foldExpr(e, bound)
	if !ok {
		return false
	}
	b, isb := v.AsBool()
	return isb && !b
}

// absRule is one view rule in abstract form.
type absRule struct {
	pat  absPat
	dead bool // guard is constant-false: the rule admits nothing
}

// abstractClause approximates an import/export clause. It returns nil for
// an empty rule list, which means "everything" (no restriction).
func abstractClause(rules []lang.ViewRule, params []string) []absRule {
	if len(rules) == 0 {
		return nil
	}
	bound := make(boundSet, len(params))
	for _, p := range params {
		bound[p] = true
	}
	out := make([]absRule, 0, len(rules))
	for _, r := range rules {
		// Variables quantified by the rule's pattern are bound within
		// its guard.
		rb := bound.clone()
		for _, f := range r.Pattern.Fields {
			if ef, ok := f.(*lang.ExprField); ok {
				if v, ok := ef.Expr.(*lang.VarNode); ok {
					rb[v.Name] = true
				}
			}
		}
		out = append(out, absRule{
			pat:  abstractPattern(r.Pattern, bound),
			dead: constFalse(r.Where, rb),
		})
	}
	return out
}

// clauseAdmits reports whether a clause may admit some instance of the
// shape. A nil clause (everything) admits all shapes.
func clauseAdmits(clause []absRule, pat absPat) bool {
	if clause == nil {
		return true
	}
	for _, r := range clause {
		if !r.dead && r.pat.compat(pat) {
			return true
		}
	}
	return false
}

// assertSite is one statically-known tuple producer: an assert action, or
// one of main's initial assertions.
type assertSite struct {
	unit *unit
	pat  absPat
}

// collectAsserts gathers every assert site across the given units.
func collectAsserts(units []*unit) []assertSite {
	var sites []assertSite
	for _, u := range units {
		for _, ti := range u.txns {
			for _, a := range ti.txn.Actions {
				if as, ok := a.(*lang.AssertAction); ok {
					sites = append(sites, assertSite{unit: u, pat: abstractPattern(as.Pattern, ti.bound)})
				}
			}
		}
	}
	return sites
}

// reachableUnits computes the set of unit names reachable from main
// through spawn actions. Programs without a main block (library files)
// are treated as all-reachable.
func reachableUnits(units []*unit) map[string]bool {
	byName := make(map[string]*unit, len(units))
	var root *unit
	for _, u := range units {
		byName[u.name] = u
		if u.decl == nil {
			root = u
		}
	}
	reach := make(map[string]bool, len(units))
	if root == nil {
		for _, u := range units {
			reach[u.name] = true
		}
		return reach
	}
	var visit func(u *unit)
	visit = func(u *unit) {
		if reach[u.name] {
			return
		}
		reach[u.name] = true
		for _, s := range u.body {
			lang.Walk(s, func(n lang.Node) bool {
				if sp, ok := n.(*lang.SpawnAction); ok {
					if next, ok := byName[sp.Name]; ok {
						visit(next)
					}
				}
				return true
			})
		}
	}
	visit(root)
	return reach
}
