package analysis

import (
	"github.com/sdl-lang/sdl/internal/analysis/dataflow"
	"github.com/sdl-lang/sdl/internal/lang"
)

// runDataflow is the interprocedural footprint pass: it runs the
// constant/lead propagation analysis (analysis/dataflow) and reports, per
// transaction the footprint planner cannot plan, why it stays off the
// commuting fast path — the binding chain from the offending lead back to
// the spawn and assert sites that feed it — and which of its full arity
// scans the adaptive secondary index can absorb. Everything is a Note:
// like the footprint pass, this surfaces a performance boundary, not a
// correctness defect.
func runDataflow(p *pass) {
	res := dataflow.Analyze(p.prog)
	for _, u := range p.units {
		if !p.reachable[u.name] {
			continue
		}
		for _, ti := range u.txns {
			j := res.Judgments[ti.txn]
			if j == nil {
				continue
			}
			for _, ld := range j.Leads {
				if ld.Ground {
					continue
				}
				p.addf(ld.Pos, CheckDataflow, Note,
					"footprint-blocked: %s %d of the transaction keeps the footprint unbounded: %s",
					ld.What, ld.Index, ld.Why)
				break // one witness per transaction
			}
			// A query pattern whose lead never grounds — under every spawn
			// environment the interprocedural analysis can see — makes the
			// matcher walk its whole arity. Report which of those scans the
			// adaptive secondary index can absorb.
			for _, ld := range j.Leads {
				if ld.Ground || ld.What != "pattern" ||
					ld.Index < 1 || ld.Index > len(ti.txn.Items) {
					continue
				}
				if scanSelective(ti.txn.Items[ld.Index-1].Pattern) {
					p.addf(ld.Pos, CheckDataflow, Note,
						"scan-heavy: pattern %d runs a full arity scan under every spawn environment (its lead never grounds); its constant non-lead field(s) key the adaptive secondary index once the shape promotes",
						ld.Index)
				} else {
					p.addf(ld.Pos, CheckDataflow, Note,
						"scan-heavy: pattern %d runs a full arity scan under every spawn environment (its lead never grounds) and no non-lead field is constant — neither the lead index nor the secondary index can narrow it",
						ld.Index)
				}
			}
		}
	}
}

// scanSelective reports whether the pattern carries a non-lead field the
// adaptive secondary index can key on: a literal or a bare identifier
// (atoms and process constants both resolve to concrete values at match
// time). Wildcards and fresh variables select nothing.
func scanSelective(pat lang.PatternNode) bool {
	if len(pat.Fields) < 2 {
		return false
	}
	for _, f := range pat.Fields[1:] {
		ef, ok := f.(*lang.ExprField)
		if !ok {
			continue
		}
		switch ef.Expr.(type) {
		case *lang.LitNode, *lang.IdentNode:
			return true
		}
	}
	return false
}
