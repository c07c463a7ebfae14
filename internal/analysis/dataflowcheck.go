package analysis

import (
	"github.com/sdl-lang/sdl/internal/analysis/dataflow"
	"github.com/sdl-lang/sdl/internal/analysis/footprint"
	"github.com/sdl-lang/sdl/internal/lang"
)

// runDataflow is the interprocedural footprint pass: it runs the
// constant/lead propagation analysis (analysis/dataflow) and reports, per
// transaction, where the refined judgment moves the transaction onto the
// commuting fast path — or why it stays off it, with the binding chain
// from the offending lead back to the spawn and assert sites that feed
// it. Everything is a Note: like the footprint pass, this surfaces a
// performance boundary, not a correctness defect.
func runDataflow(p *pass) {
	res := p.dataflowResult()
	for _, u := range p.units {
		if !p.reachable[u.name] {
			continue
		}
		for _, ti := range u.txns {
			j := res.Judgments[ti.txn]
			if j == nil {
				continue
			}
			switch {
			case j.Widened:
				what := "the dynamic planner re-evaluates its leads per execution"
				if j.Class == footprint.GroundKeys {
					what = "its exact key set travels with the transaction"
				}
				// Append the binding chain of the most informative lead: a
				// ground-but-open lead carries the interprocedural values.
				for _, ld := range j.Leads {
					if ld.Ground && !ld.Closed {
						what += "; " + ld.Why
						break
					}
				}
				p.addf(ti.txn.Pos, CheckDataflow, Note,
					"footprint-widened: transaction in view-restricted process %s is re-admitted to footprint planning (%s); %s",
					u.name, j.Class, what)
			case j.Class == footprint.GroundKeys:
				p.addf(ti.txn.Pos, CheckDataflow, Note,
					"footprint-widened: every lead folds to an environment-independent constant; %d bucket key(s) travel with the transaction and per-execution lead evaluation is skipped",
					len(j.Keys))
			case j.Class == footprint.Wildcard:
				for _, ld := range j.Leads {
					if ld.Ground {
						continue
					}
					p.addf(ld.Pos, CheckDataflow, Note,
						"footprint-blocked: %s %d of the transaction keeps the footprint unbounded: %s",
						ld.What, ld.Index, ld.Why)
					break // one witness per transaction
				}
				// A query pattern whose lead never grounds — under every
				// spawn environment the interprocedural analysis can see —
				// makes the matcher walk its whole arity. Report which of
				// those scans the adaptive secondary index can absorb.
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
		ef, ok := f.(lang.ExprField)
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

// dataflowResult lazily runs the interprocedural analysis; the footprint
// pass consults it too, so the fixpoint runs at most once per Analyze.
func (p *pass) dataflowResult() *dataflow.Result {
	if p.df == nil {
		p.df = dataflow.Analyze(p.prog)
	}
	return p.df
}
