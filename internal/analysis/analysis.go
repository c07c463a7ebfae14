// Package analysis is sdlvet's engine: a multi-pass static analyzer over
// the SDL surface AST (post-parse, pre-compile). Each pass is
// independently toggleable and emits positioned diagnostics:
//
//   - view: an assert whose shape provably falls outside the process's
//     export clause, or a query/retract pattern disjoint from its import
//     clause. Conservative — a diagnostic fires only when no view rule
//     can admit any instance of the pattern; guards are opaque unless
//     constant-foldable.
//   - shape: program-wide tuple shape inference. Every assert site's
//     (arity, constant-field) signature is collected; query patterns that
//     can match no asserted shape (arity mismatch, unknown lead, constant
//     field conflict) are flagged.
//   - blocked: a delayed (`=>`) transaction none of whose patterns can be
//     satisfied by main's initial assertions nor any reachable assert
//     site — the runtime's "blocks forever" failure mode, at vet time.
//   - consensus: a static over-approximation of consensus sets from the
//     import-overlap relation. Reports each `@>` transaction's potential
//     community, and flags singleton communities and communities with a
//     member that never offers a consensus transaction.
//   - hygiene: unused quantifier variables, variables referenced but
//     bound only by negated patterns, and branches with constant-false
//     guards.
//   - footprint: transactions the runtime's footprint planner cannot plan
//     — patterns or assertions whose leading field is not determined by
//     parameters and lets. Notes only: wide footprints are legal, they
//     just serialize. The pass mirrors the planner exactly; what a static
//     pass cannot know — the join order the matcher picks, which leads an
//     earlier pattern binds, the access path each scan takes — the runtime
//     reports itself, per transaction site, in its explain records
//     (metrics.Snapshot.Explain, the explain block of `sdli -stats`).
//
// All passes are conservative in the same direction: silence proves
// nothing, but every error-severity diagnostic identifies a transaction
// that cannot behave as written.
package analysis

import (
	"fmt"

	"github.com/sdl-lang/sdl/internal/lang"
)

// Check ids, one per pass.
const (
	CheckView      = "view"
	CheckShape     = "shape"
	CheckBlocked   = "blocked"
	CheckConsensus = "consensus"
	CheckHygiene   = "hygiene"
	CheckFootprint = "footprint"
)

// AllChecks lists every pass in execution order.
var AllChecks = []string{CheckView, CheckShape, CheckBlocked, CheckConsensus, CheckHygiene, CheckFootprint}

// Options configures an analysis run.
type Options struct {
	// Checks selects the passes to run by id; nil or empty runs all.
	Checks []string
}

// pass carries the shared model and accumulates diagnostics.
type pass struct {
	units     []*unit
	asserts   []assertSite
	reachable map[string]bool
	diags     []Diagnostic
}

func (p *pass) addf(pos lang.Pos, check string, sev Severity, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos: pos, Check: check, Severity: sev,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyze runs the selected passes over a parsed program and returns the
// diagnostics sorted by position. It fails only on an unknown check id.
func Analyze(prog *lang.Program, opts Options) ([]Diagnostic, error) {
	passes := map[string]func(*pass){
		CheckView:      runView,
		CheckShape:     runShape,
		CheckBlocked:   runBlocked,
		CheckConsensus: runConsensus,
		CheckHygiene:   runHygiene,
		CheckFootprint: runFootprint,
	}
	selected := opts.Checks
	if len(selected) == 0 {
		selected = AllChecks
	}
	for _, id := range selected {
		if passes[id] == nil {
			return nil, fmt.Errorf("analysis: unknown check %q (known: %v)", id, AllChecks)
		}
	}

	p := &pass{units: buildUnits(prog)}
	p.asserts = collectAsserts(p.units)
	p.reachable = reachableUnits(p.units)

	enabled := make(map[string]bool, len(selected))
	for _, id := range selected {
		enabled[id] = true
	}
	for _, id := range AllChecks { // fixed execution order
		if enabled[id] {
			passes[id](p)
		}
	}
	sortDiags(p.diags)
	return p.diags, nil
}
