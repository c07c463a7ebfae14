package process

import (
	"context"
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// TestProcessTransactionAllocates pins what a committed transaction
// statement costs the process runtime: the Sort process's swap
//
//	<a, ?n1, ?v1, ?x>!, <b, ?n2, ?v2, ?y>! where ?v1 != ?v2
//	    -> <a, ?n2, ?v2, ?x>, <b, ?n1, ?v1, ?y>
//
// under its restricted view, in steady state, allocates its two grounded
// tuples and nothing per solution: the answer's rows, the window and the
// effects are pooled, the statement reads its solution in place, and no
// environment map is built (a map is two allocations, more than the
// constant allows).
func TestProcessTransactionAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s, rt := newRuntime(t)
	a, b := tuple.Int(1), tuple.Int(2)
	s.Assert(tuple.Environment,
		tuple.New(a, atom("n1"), tuple.Int(30), b),
		tuple.New(b, atom("n2"), tuple.Int(10), atom("nil")))
	v := func(name string) pattern.Field { return pattern.V(name) }
	w := pattern.W()
	node := view.Union(view.Pat(pattern.P(v("a"), w, w, w)), view.Pat(pattern.P(v("b"), w, w, w)))
	p := &proc{rt: rt, pid: 1, def: &Definition{Name: "Sort"}, view: view.New(node, node),
		env: expr.Env{"a": a, "b": b}}
	swap := Transact{
		Kind: Immediate,
		Query: pattern.Q(pattern.R(v("a"), v("n1"), v("v1"), v("x")), pattern.R(v("b"), v("n2"), v("v2"), v("y"))).
			Where(expr.Ne(expr.V("v1"), expr.V("v2"))),
		Asserts: []pattern.Pattern{
			pattern.P(v("a"), v("n2"), v("v2"), v("x")),
			pattern.P(v("b"), v("n1"), v("v1"), v("y")),
		},
	}
	run := func() {
		if ok, err := p.runTransact(context.Background(), swap); err != nil || !ok {
			t.Fatalf("swap: committed %v, err %v", ok, err)
		}
	}
	for i := 0; i < 64; i++ {
		run() // warm the answer, matcher and journal pools
	}
	got := testing.AllocsPerRun(200, run)
	if max := 2.0 + 1; got > max {
		t.Errorf("swap statement: %.0f allocations, want <= %.0f (its 2 grounded tuples + 1)", got, max)
	}
}
