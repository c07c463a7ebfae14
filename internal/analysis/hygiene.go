package analysis

import "github.com/sdl-lang/sdl/internal/lang"

// runHygiene is the hygiene pass: findings that do not change what a
// program can do, but reliably mark dead or misleading text — unused
// quantifier variables, variables consumed without a positive binding
// occurrence (the retract/assert-of-nothing mistake the compiler rejects
// later with a terser message), and branches guarded by constant-false
// predicates.
func runHygiene(p *pass) {
	for _, u := range p.units {
		for _, ti := range u.txns {
			checkUnusedDecls(p, ti)
			checkUnboundUses(p, u, ti)
		}
		for _, s := range u.body {
			lang.Walk(s, func(n lang.Node) bool {
				var branches []lang.BranchNode
				switch x := n.(type) {
				case *lang.SelNode:
					branches = x.Branches
				case *lang.RepNode:
					branches = x.Branches
				case *lang.ParNode:
					branches = x.Branches
				default:
					return true
				}
				for _, b := range branches {
					if b.Guard != nil && constFalse(b.Guard.Where, u.bound) {
						p.addf(b.Guard.Pos, CheckHygiene, Warn,
							"branch guard is constant-false; this branch is unreachable")
					}
				}
				return true
			})
		}
	}
}

// checkUnusedDecls flags quantifier variables that no pattern, predicate,
// or action ever mentions.
func checkUnusedDecls(p *pass, ti *txnInfo) {
	if len(ti.txn.DeclVars) == 0 {
		return
	}
	used := make(map[string]bool)
	mark := func(n lang.Node) bool {
		switch x := n.(type) {
		case *lang.VarNode:
			used[x.Name] = true
		case *lang.IdentNode:
			if ti.bound[x.Name] {
				used[x.Name] = true
			}
		}
		return true
	}
	for i := range ti.txn.Items {
		lang.Walk(&ti.txn.Items[i], mark)
	}
	lang.Walk(ti.txn.Where, mark)
	for _, a := range ti.txn.Actions {
		lang.Walk(a, mark)
	}
	for i, v := range ti.txn.DeclVars {
		if used[v] {
			continue
		}
		pos := ti.txn.Pos
		if i < len(ti.txn.DeclVarPos) {
			pos = ti.txn.DeclVarPos[i]
		}
		p.addf(pos, CheckHygiene, Warn, "quantifier variable %s is never used", v)
	}
}

// checkUnboundUses flags variables consumed by the predicate or the
// actions that no positive query pattern binds: variables appearing only
// under a negation are wildcards of the negation and carry no binding out
// of it.
func checkUnboundUses(p *pass, u *unit, ti *txnInfo) {
	posBound := u.bound.clone() // params + lets are runtime-bound
	for _, it := range ti.txn.Items {
		if it.Negated {
			continue
		}
		for _, f := range it.Pattern.Fields {
			ef, ok := f.(*lang.ExprField)
			if !ok {
				continue
			}
			switch x := ef.Expr.(type) {
			case *lang.VarNode:
				posBound[x.Name] = true
			case *lang.IdentNode:
				if ti.bound[x.Name] {
					posBound[x.Name] = true
				}
			}
		}
	}
	reported := make(map[string]bool)
	check := func(n lang.Node) bool {
		var name string
		switch x := n.(type) {
		case *lang.VarNode:
			name = x.Name
		case *lang.IdentNode:
			if !ti.bound[x.Name] {
				return true // an atom, not a variable reference
			}
			name = x.Name
		default:
			return true
		}
		if !posBound[name] && !reported[name] {
			reported[name] = true
			pos, _ := lang.NodePos(n)
			p.addf(pos, CheckHygiene, Warn,
				"variable ?%s is referenced but no positive query pattern binds it", name)
		}
		return true
	}
	lang.Walk(ti.txn.Where, check)
	for _, a := range ti.txn.Actions {
		lang.Walk(a, check)
	}
}
