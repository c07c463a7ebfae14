package process

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/dataspace"
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
// under its restricted view, in steady state, allocates at most one block
// amortized and nothing per solution: its two grounded tuples' fields are
// cut from the record's fields block, which takes a new block of 63 values
// every seven swaps; the answer's rows, the window and the effects are
// pooled, the statement reads its solution in place, and no environment map
// is built (a map is two allocations, more than the constant allows).
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
		scope: expr.Env{"a": a, "b": b}}
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
		commits := rt.engine.Stats().Commits
		if out := p.transact(swap); out != boundary || rt.engine.Stats().Commits != commits+1 {
			t.Fatalf("swap: outcome %d, %d commits, err %v", out, rt.engine.Stats().Commits-commits, p.err)
		}
	}
	for i := 0; i < 64; i++ {
		run() // warm the answer, matcher and journal pools
	}
	got := testing.AllocsPerRun(200, run)
	if got > 1 {
		t.Errorf("swap statement: %.0f allocations, want <= 1 (amortized: a fields block of 63 values per 7 swaps)", got)
	}
}

// TestSpawnAllocates pins what a process costs to be born and to die, in
// steady state: its record, which holds its parameters, its consensus
// member and offer and its first frames, and is the scope its statements
// read. The live set's map slot, the run queue and the society's
// bookkeeping are amortized.
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
	if got := testing.AllocsPerRun(200, spawn); got > 1 {
		t.Errorf("Spawn of a one-parameter process: %.1f allocations, want <= 1 (the record)", got)
	}
	if n, want := rt.SpawnCount(), uint64(64+201); n != want {
		t.Errorf("SpawnCount = %d, want %d", n, want)
	}
}

// TestRecordSizeClass pins a process record to the 640-byte size class: a
// blocked process costs its record, so a field that crosses into the next
// class (704 B) costs every blocked process of a large society — an inline
// consensus request in the member record would take it to 800 B. The
// record holds pointers and is larger than 512 B, so the allocator puts an
// 8-byte malloc header in front of it: the record itself must fit 632 B.
func TestRecordSizeClass(t *testing.T) {
	const class, header = 640, 8
	if size := unsafe.Sizeof(proc{}); size+header > class {
		t.Errorf("a process record is %d B and its malloc header %d B, want <= %d (its size class)", size, header, class)
	}
}

// TestSpawnListAllocates pins that a list of spawns pays for its records
// once: an action list of 64 spawns allocates their records as one block
// and its list of them, and SpawnGroup of 64 the block, its list and the
// returned IDs — not one record per spawn.
func TestSpawnListAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	const n = 64
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{Name: "Nop", Params: []string{"i"}}); err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(atom("go")))
	p := &proc{rt: rt, pid: 1, def: &Definition{Name: "Main"}, view: view.Universal()}
	p.scope = p
	list := Transact{Kind: Immediate, Query: pattern.Q(pattern.P(pattern.C(atom("go"))))}
	reqs := make([]SpawnReq, n)
	for i := range reqs {
		arg := tuple.Int(int64(i))
		list.Actions = append(list.Actions, &Spawn{Type: "Nop", Args: []expr.Expr{expr.Const(arg)}})
		reqs[i] = SpawnReq{Type: "Nop", Args: []tuple.Value{arg}}
	}
	runList := func() {
		if out := p.transact(list); out != boundary {
			t.Fatalf("spawn list: outcome %d, err %v", out, p.err)
		}
		rt.Wait()
	}
	runGroup := func() {
		if _, err := rt.SpawnGroup(reqs); err != nil {
			t.Fatal(err)
		}
		rt.Wait()
	}
	for i := 0; i < 16; i++ {
		runList() // warm the live map, the consensus member table and the pools
		runGroup()
	}
	if got := testing.AllocsPerRun(50, runList); got > 2 {
		t.Errorf("action list of %d spawns: %.1f allocations, want <= 2 (the block and its list)", n, got)
	}
	if got := testing.AllocsPerRun(50, runGroup); got > 3 {
		t.Errorf("SpawnGroup of %d: %.1f allocations, want <= 3 (the block, its list and the IDs)", n, got)
	}
	if got, want := rt.SpawnCount(), uint64(2*n*(16+51)); got != want {
		t.Errorf("SpawnCount = %d, want %d", got, want)
	}
}

// TestLetAllocates pins what a let-constant costs a process: one node over
// its scope. A warmed process runs a statement whose action list lets N,
// then a statement whose query reads N; the pair allocates at most the let's
// node (the answers, rows and windows are pooled, and the read grounds
// nothing), where a copy of a map-shaped scope would cost two or more.
func TestLetAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s, rt := newRuntime(t)
	s.Assert(tuple.Environment,
		tuple.New(atom("year"), tuple.Int(90)),
		tuple.New(atom("const"), tuple.Int(7), tuple.Int(90)))
	p := &proc{rt: rt, pid: 1, def: &Definition{Name: "P", Params: []string{"k"}}, view: view.Universal()}
	p.args = append(p.argBuf[:0], tuple.Int(7))
	p.scope = p
	let := Transact{
		Kind:    Immediate,
		Query:   pattern.Q(pattern.P(pattern.C(atom("year")), pattern.V("a"))),
		Actions: []Action{Let{Name: "N", Expr: expr.V("a")}},
	}
	read := Transact{ // holds only while N is 90 and the parameter k is 7
		Kind: Immediate,
		Query: pattern.Q(pattern.P(pattern.C(atom("const")), pattern.V("k"), pattern.V("x"))).
			Where(expr.Eq(expr.V("x"), expr.V("N"))),
	}
	run := func() {
		failures := rt.engine.Stats().Failures
		if p.transact(let) != boundary || p.transact(read) != boundary || rt.engine.Stats().Failures != failures {
			t.Fatalf("let then read: err %v, %d failed", p.err, rt.engine.Stats().Failures-failures)
		}
	}
	for i := 0; i < 64; i++ {
		run() // warm the answer and matcher pools
	}
	if got := testing.AllocsPerRun(200, run); got > 1 {
		t.Errorf("let then read: %.1f allocations, want <= 1 (the let's node)", got)
	}
	if l, ok := p.scope.(*expr.Let); !ok || l.Under != expr.Scope(p) {
		t.Errorf("scope after repeated lets of N = %#v, want one Let over the record", p.scope)
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

// TestParkWakeAllocates pins what a parked process costs to wake and park
// again: nothing. A warmed process repeats a selection over a delayed guard
// and a consensus guard; a commit enables the delayed guard, which the
// process commits, and its next selection re-arms the record's subscription,
// re-offers through the record's offer and parks. The consensus community
// has a second member that never offers, so the gate never attempts it.
func TestParkWakeAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s, rt := newRuntime(t)
	// <base> keeps the universal imports overlapping, <keep, 0> the arity-2
	// index alive across the retractions of <go, 1>.
	s.Assert(tuple.Environment, tuple.New(atom("base")), tuple.New(atom("keep"), tuple.Int(0)))
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{Repeat{Branches: []Branch{
			{Guard: Transact{Kind: Delayed, Query: pattern.Q(pattern.R(pattern.C(atom("go")), pattern.V("k")))}},
			{Guard: Transact{Kind: Consensus, Query: pattern.Q(pattern.P(pattern.C(atom("never"))))}},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	rt.Consensus().Register(1<<40, view.Universal(), nil) // the member that never offers
	pid, err := rt.Spawn("P")
	if err != nil {
		t.Fatal(err)
	}
	rt.liveMu.Lock()
	p := rt.live[pid]
	rt.liveMu.Unlock()
	goTuple := tuple.New(atom("go"), tuple.Int(1))
	release := func(w dataspace.Writer) error { w.Insert(goTuple, tuple.Environment); return nil }
	deadline := time.Now().Add(10 * time.Second)
	parkedAfter := func(commits uint64) {
		for rt.engine.Stats().Commits < commits || p.wake.Load() != asleep || !p.offered {
			if time.Now().After(deadline) {
				t.Fatalf("process not parked again: %d commits, want %d", rt.engine.Stats().Commits, commits)
			}
			runtime.Gosched()
		}
	}
	parkedAfter(0)
	cycle := func() {
		commits := rt.engine.Stats().Commits
		if err := s.Update(tuple.Environment, release); err != nil {
			t.Fatal(err)
		}
		parkedAfter(commits + 1) // the guard's retraction of <go, 1>
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the pools, the offer table and the run queue
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("wake, commit, re-arm and park: %.1f allocations, want 0", got)
	}
	if n := rt.Consensus().Fires(); n != 0 {
		t.Errorf("%d consensus fires, want 0", n)
	}
}

// TestParkedWaitAfterCollectionAllocates pins that a parked process costs
// its record and its wait, and that neither is a pool's to lose. A round
// spawns a list of Waiters, <go, i> => skip, which park; one commit of their
// tuples wakes them all, each through its own delta. After warm rounds, two
// collections empty the pools before each measured round, and the 64 waiters
// a round of 128 has over a round of 64 must cost fewer than one allocation
// each: their records are one block, their subscriptions are cut from the
// runtime's block and take their one delta inline, and each evaluation takes
// an answer for its own length, so what the collections emptied is refilled
// once per worker and per commit, not once per waiter — where a parked
// waiter that held a pooled answer took a fresh answer, subscription and
// delta buffer. (The round of 64 reads ≈ 96 allocations, ≈ 60 of them the
// journal, matcher and answer pools' refills.)
func TestParkedWaitAfterCollectionAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	const n, rounds = 64, 5
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name:   "Waiter",
		Params: []string{"i"},
		Body:   []Stmt{Transact{Kind: Delayed, Query: pattern.Q(pattern.P(pattern.C(atom("go")), pattern.V("i")))}},
	}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]SpawnReq, 2*n)
	release := make([]tuple.Tuple, 2*n)
	for i := range reqs {
		arg := tuple.Int(int64(i))
		reqs[i] = SpawnReq{Type: "Waiter", Args: []tuple.Value{arg}}
		release[i] = tuple.New(atom("go"), arg)
	}
	s.Assert(tuple.Environment, tuple.New(atom("go"), tuple.Int(-1))) // keeps the bucket, and its index entries, populated
	live := s.Metrics().SubscriptionsLive()
	var released []tuple.ID
	retract := func(w dataspace.Writer) error {
		for _, id := range released {
			if err := w.Delete(id); err != nil {
				return err
			}
		}
		return nil
	}
	// round runs k waiters from spawn to end, after two collections when
	// collect is set, and returns what it allocated.
	round := func(k int, collect bool) uint64 {
		if collect {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rt.SpawnGroup(reqs[:k]); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for live.Value() != int64(k) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d waiters parked", live.Value(), k)
			}
			runtime.Gosched()
		}
		released = s.Assert(tuple.Environment, release[:k]...)
		rt.Wait()
		runtime.ReadMemStats(&after)
		if err := s.Update(tuple.Environment, retract); err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 16; i++ {
		round(n, false) // warm the live map, the consensus member table and the store's buckets
		round(2*n, false)
	}
	var small, large uint64
	for i := 0; i < rounds; i++ {
		small += round(n, true)
		large += round(2*n, true)
	}
	perWaiter := (float64(large) - float64(small)) / rounds / n
	t.Logf("after two collections: %d waiters %.1f allocations, %d waiters %.1f", n, float64(small)/rounds, 2*n, float64(large)/rounds)
	if perWaiter >= 1 {
		t.Errorf("a waiter spawned, parked and woken after two collections: %.2f allocations, want < 1", perWaiter)
	}
	if n := s.Len(); n != 1 {
		t.Errorf("%d tuples left, want the bucket's keeper", n)
	}
}
