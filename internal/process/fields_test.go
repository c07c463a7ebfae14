package process

import (
	"runtime"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// The fields of the tuples a process asserts are cut from a block its
// executing record holds (proc.vals), never from its scope's: these tests
// pin who owns the block and what a block may keep alive.

// TestReplicationCopiesGroundApart: a replication's copies share their
// parent's scope — the parent's record — and commit concurrently: the
// copies of branches over disjoint buckets hold disjoint key latches. So
// each copy grounds into its own record's block. Under the race detector a
// block shared through the scope is a data race; without it, copies cutting
// the same values would corrupt each other's tuples. Every asserted tuple
// keeps its values after its siblings — tuples cut from the same blocks —
// are retracted and collected.
func TestReplicationCopiesGroundApart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four pool workers, on any host
	const jobs = 100                                // per branch
	tags := []string{"a", "b", "c", "d"}
	s, rt := newRuntime(t)
	i := expr.V("i")
	var branches []Branch
	for _, tag := range tags {
		for n := 1; n <= jobs; n++ {
			s.Assert(tuple.Environment, tuple.New(atom(tag+"-job"), tuple.Int(int64(n))))
		}
		branches = append(branches, Branch{Guard: Transact{
			Kind:  Immediate,
			Query: pattern.Q(pattern.R(pattern.C(atom(tag+"-job")), pattern.V("i"))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom(tag+"-done")), pattern.V("i"),
				pattern.E(expr.Mul(i, expr.Const(tuple.Int(10)))), pattern.E(expr.Add(i, expr.Const(tuple.Int(1)))))},
		}})
	}
	if err := rt.Define(&Definition{
		Name: "Drain",
		Body: []Stmt{Replicate{Branches: branches, Workers: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Drain"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 30*time.Second)
	if errs := rt.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}

	for _, tag := range tags {
		// Retract the odd jobs' tuples, collect, and read the rest.
		odd := pattern.QAll(pattern.R(pattern.C(atom(tag+"-done")), pattern.V("i"), pattern.W(), pattern.W())).
			Where(expr.Eq(expr.Mod(i, expr.Const(tuple.Int(2))), expr.Const(tuple.Int(1))))
		res, err := rt.Engine().Immediate(txn.Request{Proc: tuple.Environment, View: view.Universal(), Query: odd})
		if err != nil || len(res.Retracted) != jobs/2 {
			t.Fatalf("retracting %s's odd jobs: %d retracted, err %v", tag, len(res.Retracted), err)
		}
	}
	runtime.GC()
	for _, tag := range tags {
		seen := make(map[int64]bool)
		s.Snapshot(func(r dataspace.Reader) {
			r.Scan(4, atom(tag+"-done"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
				n, _ := tp.Field(1).AsInt()
				times, _ := tp.Field(2).AsInt()
				next, _ := tp.Field(3).AsInt()
				if n%2 != 0 || times != 10*n || next != n+1 || seen[n] {
					t.Errorf("tuple %v: want <%s-done, n, 10n, n+1> for an even n asserted once", tp, tag)
				}
				seen[n] = true
				return true
			})
		})
		if len(seen) != jobs/2 {
			t.Errorf("%d of %s's even jobs' tuples remain, want %d", len(seen), tag, jobs/2)
		}
	}
}

// TestChurnRetainsOneBlock: a process that churns its counter
// <c, ?n>! -> <c, ?n+1> keeps alive only the block the live tuple was cut
// from: blocks are never reused, and each is collected once the tuples cut
// from it are retracted. 10⁵ commits later, with the process parked on its
// last statement, the live heap after a collection is within 64 KiB of
// where it started.
func TestChurnRetainsOneBlock(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow memory makes the live heap inexact")
	}
	const commits = 100_000
	s, rt := newRuntime(t)
	s.Assert(tuple.Environment, tuple.New(atom("c"), tuple.Int(0)))
	n := expr.V("n")
	churn := Repeat{Branches: []Branch{{Guard: Transact{
		Kind:    Immediate,
		Query:   pattern.Q(pattern.R(pattern.C(atom("c")), pattern.V("n"))).Where(expr.Lt(n, expr.Const(tuple.Int(commits)))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("c")), pattern.E(expr.Add(n, expr.Const(tuple.Int(1)))))},
	}}}}
	stop := Transact{Kind: Delayed, Query: pattern.Q(pattern.R(pattern.C(atom("stop"))))}
	if err := rt.Define(&Definition{Name: "Churn", Body: []Stmt{churn, stop}}); err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	if _, err := rt.Spawn("Churn"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		soc := rt.Society()
		if len(soc) == 0 {
			t.Fatalf("the churn ended before its last statement: %v", rt.Errors())
		}
		if soc[0].State == StateBlockedDelayed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the churn did not reach its last statement")
		}
		time.Sleep(time.Millisecond)
	}
	after := live()
	var last tuple.Tuple
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("c"), true, func(_ tuple.ID, tp tuple.Tuple) bool { last = tp; return true })
	})
	if v, _ := last.Field(1).AsInt(); v != commits {
		t.Fatalf("the counter reads %v, want <c, %d>", last, commits)
	}
	t.Logf("live heap %d B before %d commits, %d B after", before, commits, after)
	if after > before+64<<10 {
		t.Errorf("live heap grew by %d B over %d commits, want <= 64 KiB", after-before, commits)
	}
	s.Assert(tuple.Environment, tuple.New(atom("stop")))
	waitDone(t, rt, 10*time.Second)
}
