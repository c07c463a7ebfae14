package process

import (
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// A let does not reach back into the requests a process issued before it.
// A process lets N = 1, then blocks in a selection: a consensus guard, its
// offer armed under the scope where N is 1, and a delayed guard that lets
// N = 2. The process is its consensus community's only member and the
// community's import is a dynamic matcher, so every commit sends the
// gate to evaluate the offer, reading N through the matcher. While
// commits keep it evaluating, the delayed guard is enabled: the process
// withdraws the offer and lets N = 2. Every evaluation must read N = 1 —
// the scope the offer was issued with — and none may race with the let.
func TestLetLeavesWithdrawnOfferScope(t *testing.T) {
	s, rt := newRuntime(t)
	probe, goAtom := atom("probe"), atom("go")
	var mu sync.Mutex
	var seen []tuple.Value // N, as each evaluation of a <probe, x> tuple read it
	probes := view.Dyn(2, func(_ dataspace.Reader, env expr.Env, tp tuple.Tuple) bool {
		if !tp.Field(0).Equal(probe) {
			return false
		}
		if n, ok := env["N"]; ok { // the registered record binds no N
			mu.Lock()
			seen = append(seen, n)
			mu.Unlock()
		}
		return true
	})
	imp := view.Union(
		view.Pat(pattern.P(pattern.C(atom("init")), pattern.W())),
		view.Pat(pattern.P(pattern.C(goAtom), pattern.W())),
		probes)
	v := func(name string) pattern.Field { return pattern.V(name) }
	if err := rt.Define(&Definition{
		Name: "P",
		View: func(expr.Scope) view.View { return view.New(imp, view.Everything()) },
		Body: []Stmt{
			Transact{Kind: Immediate, Query: pattern.Q(pattern.P(pattern.C(atom("init")), v("a"))),
				Actions: []Action{Let{Name: "N", Expr: expr.V("a")}}},
			Select{Branches: []Branch{
				{Guard: Transact{Kind: Delayed, Query: pattern.Q(pattern.R(pattern.C(goAtom), v("w"))),
					Actions: []Action{Let{Name: "N", Expr: expr.V("w")}}}},
				{Guard: Transact{Kind: Consensus, // never holds: x is never -1
					Query: pattern.Q(pattern.P(pattern.C(probe), v("x"))).Where(expr.Eq(expr.V("x"), expr.Const(tuple.Int(-1))))}},
			}},
			Transact{Kind: Immediate, Query: pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("done")), v("N"))}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(atom("init"), tuple.Int(1)), tuple.New(probe, tuple.Int(0)))
	pid, err := rt.Spawn("P")
	if err != nil {
		t.Fatal(err)
	}
	rt.liveMu.Lock()
	p := rt.live[pid]
	rt.liveMu.Unlock()
	evaluations := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	deadline := time.Now().Add(10 * time.Second)
	for State(p.state.Load()) != StateBlockedSelect || evaluations() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the selection never offered: state %v, %d evaluations", State(p.state.Load()), evaluations())
		}
		time.Sleep(time.Millisecond)
	}

	stop := make(chan struct{})
	kicked := make(chan struct{})
	go func() { // commits that keep the gate evaluating the offer
		defer close(kicked)
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Assert(tuple.Environment, tuple.New(probe, tuple.Int(i)))
		}
	}()
	for before := evaluations(); evaluations() < before+3; {
		if time.Now().After(deadline) {
			t.Fatal("the gate stopped evaluating the offer")
		}
		time.Sleep(time.Millisecond)
	}
	s.Assert(tuple.Environment, tuple.New(goAtom, tuple.Int(2)))
	waitDone(t, rt, 10*time.Second)
	close(stop)
	<-kicked

	var done []tuple.Tuple
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("done"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			done = append(done, tp)
			return true
		})
	})
	if len(done) != 1 || !done[0].Field(1).Equal(tuple.Int(2)) {
		t.Errorf("<done, *> holds %v, want <done, 2>: the let of the selected branch", done)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, n := range seen {
		if !n.Equal(tuple.Int(1)) {
			t.Fatalf("an evaluation of the offer read N = %v, want 1, the value it was issued under (%d evaluations)", n, len(seen))
		}
	}
}

// Replication copies start from the replicating process's scope, and a let
// in one copy extends that copy's scope alone: the shared scope is never
// written. The process lets N = 0, then replicates a guard that takes a job
// j and lets N = j, with a body that asserts <out, N>; with several copies
// taking jobs at once, every job comes out exactly once.
func TestReplicationCopiesLetApart(t *testing.T) {
	s, rt := newRuntime(t)
	v := func(name string) pattern.Field { return pattern.V(name) }
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Transact{Kind: Immediate, Query: pattern.Q(pattern.P(pattern.C(atom("init")), v("a"))),
				Actions: []Action{Let{Name: "N", Expr: expr.V("a")}}},
			Replicate{Workers: 4, Branches: []Branch{{
				Guard: Transact{Kind: Immediate, Query: pattern.Q(pattern.R(pattern.C(atom("job")), v("j"))),
					Actions: []Action{Let{Name: "N", Expr: expr.V("j")}}},
				Body: []Stmt{Transact{Kind: Immediate, Query: pattern.Query{Quant: pattern.Exists},
					Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("out")), v("N"))}}},
			}}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	const jobs = 64
	s.Assert(tuple.Environment, tuple.New(atom("init"), tuple.Int(0)))
	for j := 1; j <= jobs; j++ {
		s.Assert(tuple.Environment, tuple.New(atom("job"), tuple.Int(int64(j))))
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 10*time.Second)
	outs := map[int64]int{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("out"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			n, _ := tp.Field(1).AsInt()
			outs[n]++
			return true
		})
	})
	for j := int64(1); j <= jobs; j++ {
		if outs[j] != 1 {
			t.Fatalf("<out, *> holds %v, want each of 1..%d once", outs, jobs)
		}
	}
	if len(outs) != jobs {
		t.Fatalf("<out, *> holds %v, want each of 1..%d once", outs, jobs)
	}
}
