package process

import (
	"context"
	"testing"
	"time"

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

// TestSpawnAllocates pins what a process costs to be born and to die, in
// steady state: its record (the consensus member lives inside it), its
// parameter map (a map is two allocations) and its goroutine's start
// closure — no request or PID slice, no separate member, no argument copy.
// The live set's map slot and the society's bookkeeping are amortized.
func TestSpawnAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	_, rt := newRuntime(t)
	if err := rt.Define(&Definition{Name: "Nop", Params: []string{"i"}}); err != nil {
		t.Fatal(err)
	}
	arg := tuple.Int(7)
	spawn := func() {
		if _, err := rt.Spawn("Nop", arg); err != nil {
			t.Fatal(err)
		}
		rt.Wait()
	}
	for i := 0; i < 64; i++ {
		spawn() // warm the live map and the consensus member table
	}
	if got := testing.AllocsPerRun(200, spawn); got > 5 {
		t.Errorf("Spawn of a one-parameter process: %.1f allocations, want <= 5 (record, parameter map, goroutine)", got)
	}
	if n, want := rt.SpawnCount(), uint64(64+201); n != want {
		t.Errorf("SpawnCount = %d, want %d", n, want)
	}
}

// TestSelectionReusesSubscription: a process's blocking selections share
// one subscription for the process's life. Across ten passes of a repetition
// whose every selection blocks, the process re-arms the same subscription,
// and the live gauge never exceeds one.
func TestSelectionReusesSubscription(t *testing.T) {
	s, rt := newRuntime(t)
	got := func(n string) pattern.Pattern { return pattern.P(pattern.C(atom(n)), pattern.V("k")) }
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{Repeat{Branches: []Branch{
			{Guard: Transact{Kind: Delayed, Query: pattern.Q(pattern.R(pattern.C(atom("go")), pattern.V("k"))),
				Asserts: []pattern.Pattern{got("went")}}},
			{Guard: Transact{Kind: Delayed, Query: pattern.Q(pattern.R(pattern.C(atom("stop")))),
				Actions: []Action{Exit{}}}},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	pid, err := rt.Spawn("P")
	if err != nil {
		t.Fatal(err)
	}
	rt.liveMu.Lock()
	p := rt.live[pid]
	rt.liveMu.Unlock()
	live := func() int64 { return s.Metrics().SubscriptionsLive().Value() }
	blocked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for State(p.state.Load()) != StateBlockedSelect || live() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("selection not blocked: state %v, %d live subscriptions", State(p.state.Load()), live())
			}
			time.Sleep(time.Millisecond)
		}
	}
	const passes = 10
	blocked()
	sub := p.sub
	for k := 0; k < passes; k++ {
		s.Assert(tuple.Environment, tuple.New(atom("go"), tuple.Int(int64(k))))
		deadline := time.Now().Add(5 * time.Second)
		for rt.engine.Stats().Commits < uint64(k+1) {
			if time.Now().After(deadline) {
				t.Fatalf("pass %d never committed", k)
			}
			time.Sleep(time.Millisecond)
		}
		blocked()
		if n := live(); n != 1 {
			t.Fatalf("pass %d: %d live subscriptions, want 1", k, n)
		}
		if p.sub != sub {
			t.Fatalf("pass %d: the selection made a new subscription", k)
		}
	}
	s.Assert(tuple.Environment, tuple.New(atom("stop")))
	waitDone(t, rt, 2*time.Second)
	if n := live(); n != 0 {
		t.Errorf("%d live subscriptions after the process ended, want 0", n)
	}
	if n := len(s.All()); n != passes {
		t.Errorf("%d tuples left, want the %d asserted <went, k>", n, passes)
	}
}
