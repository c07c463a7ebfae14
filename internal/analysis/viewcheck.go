package analysis

import "github.com/sdl-lang/sdl/internal/lang"

// runView is the view-soundness pass. The paper's safety story says a
// transaction operates on the window W = Import(p) ∩ D and its assertions
// pass through Export(p); a pattern provably disjoint from the relevant
// clause makes the operation a silent no-op (asserts vanish, queries see
// an empty window), which is always a bug in the program or its view.
func runView(p *pass) {
	for _, u := range p.units {
		if u.decl == nil {
			continue // main has no view declaration
		}
		exp := abstractClause(u.decl.Exports, u.decl.Params)
		imp := abstractClause(u.decl.Imports, u.decl.Params)
		if exp == nil && imp == nil {
			continue
		}
		for _, ti := range u.txns {
			if exp != nil {
				for _, a := range ti.txn.Actions {
					as, ok := a.(*lang.AssertAction)
					if !ok {
						continue
					}
					pat := abstractPattern(as.Pattern, ti.bound)
					if !clauseAdmits(exp, pat) {
						p.addf(as.Pattern.Pos, CheckView, Error,
							"assert %s falls outside the export clause of process %s; the tuple would be silently discarded",
							lang.PatternString(as.Pattern), u.name)
					}
				}
			}
			if imp != nil {
				for _, it := range ti.txn.Items {
					pat := abstractPattern(it.Pattern, ti.bound)
					if clauseAdmits(imp, pat) {
						continue
					}
					if it.Negated {
						p.addf(it.Pos, CheckView, Warn,
							"negated pattern %s is disjoint from the import clause of process %s; the negation is vacuously true",
							lang.PatternString(it.Pattern), u.name)
					} else {
						p.addf(it.Pos, CheckView, Error,
							"query pattern %s is disjoint from the import clause of process %s; it can never match",
							lang.PatternString(it.Pattern), u.name)
					}
				}
			}
		}
	}
}
