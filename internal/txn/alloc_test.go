package txn

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// TestApplyAllocatesFixedCosts pins the engine's own share of a mutating
// transaction: what it allocates does not grow with how the one solution was
// found, and a composite of one solution builds no de-duplication map — its
// retract-tagged matches are pairwise distinct by construction — so the ∀
// form of an upsert costs exactly the ∃ form: both append their solutions to
// a pooled buffer.
func TestApplyAllocatesFixedCosts(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s := dataspace.New()
	for k := int64(0); k < 64; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(k), tuple.Int(0)))
	}
	e := New(s)
	upsert := func(quant pattern.Quantifier) Request {
		k := pattern.C(tuple.Int(7))
		return Request{Proc: 1, View: view.Universal(),
			Query:   pattern.Query{Quant: quant, Patterns: []pattern.Pattern{pattern.R(k, pattern.V("v"))}},
			Asserts: []pattern.Pattern{pattern.P(k, pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))))}}
	}
	measure := func(req Request) float64 {
		return testing.AllocsPerRun(200, func() {
			if res, err := e.Immediate(req); err != nil || !res.OK || len(res.Retracted) != 1 || len(res.Asserted) != 1 {
				t.Fatalf("upsert: %+v, err %v", res, err)
			}
		})
	}
	exists, forall := measure(upsert(pattern.Exists)), measure(upsert(pattern.ForAll))
	// Measured 6, every one of them the transaction's own: the solution 3
	// (its environment's two, one retract-tagged match), Solutions, the one
	// array Retracted and Asserted are carved from, and the grounded tuple.
	// The footprint keys live on the caller's stack, and the store's commit
	// path — pooled journal, latch plan, group-commit slot — allocates
	// nothing (TestSteadyCommitAllocatesNothing in internal/dataspace). The
	// parent commit measured 22, its parent 40.
	if max := 6.0; exists > max {
		t.Errorf("∃ upsert: %.0f allocations, want <= %.0f", exists, max)
	}
	if forall != exists {
		t.Errorf("∀ upsert with one solution: %.0f allocations, the ∃ form %.0f: want the same", forall, exists)
	}
}
