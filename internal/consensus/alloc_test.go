package consensus

import (
	"context"
	"runtime"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// Count-exact allocation guards of the consensus gate: what a society pays
// for its consensus sets is paid per partition and per set, not per member.
// An offer re-arms the member's record and a slot cut from a block the
// society shares; a repartition cuts a few blocks and reuses the drain's
// scratch; a registration builds at most its import's bucket list.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("the race detector allocates on its own and sync.Pool drops Puts; allocation counts are not exact")
	}
}

// sortView is a Sort(a, b) process's view from the paper's section 3.2:
// import <a, *, *, *>; <b, *, *, *>, a and b taken from the scope.
func sortView() view.View {
	imp := view.Union(
		view.Pat(pattern.P(pattern.V("a"), pattern.W(), pattern.W(), pattern.W())),
		view.Pat(pattern.P(pattern.V("b"), pattern.W(), pattern.W(), pattern.W())),
	)
	return view.New(imp, imp)
}

// sortSociety registers n-1 Sort members over a store holding the n
// elements <i, n_i, v_i, next>, so the members form one consensus set.
func sortSociety(t *testing.T, n int) (*dataspace.Store, *Manager, []Member) {
	s, _, m := newManager(t)
	for i := 1; i <= n; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i)), tuple.Atom("n"), tuple.Int(int64(10*i)), tuple.Int(int64(i+1))))
	}
	recs := make([]Member, n-1)
	for i := range recs {
		env := expr.Env{"a": tuple.Int(int64(i + 1)), "b": tuple.Int(int64(i + 2))}
		m.RegisterMember(&recs[i], tuple.ProcessID(i+1), sortView(), env)
	}
	return s, m, recs
}

// pendingReq is a consensus transaction of member pid that waits for <go>
// under the member's own view and scope.
func pendingReq(rec *Member, pid tuple.ProcessID) []txn.Request {
	return []txn.Request{{
		Proc:  pid,
		View:  rec.m.view,
		Env:   rec.m.env,
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("go")))),
	}}
}

// TestOfferAllocatesNothing: a member's first offer takes a slot from the
// society's block and its record's offer, and a later offer re-arms both,
// so neither allocates — once some member's offer has cut the block and the
// partition is current.
func TestOfferAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	const n = 40
	_, m, recs := sortSociety(t, n)
	var w wakeCount
	reqs := make([][]txn.Request, len(recs))
	for i := range recs {
		reqs[i] = pendingReq(&recs[i], tuple.ProcessID(i+1))
	}
	offer := func(i int) {
		if err := m.Rearm(recs[i].Offer(), reqs[i], &w); err != nil {
			t.Fatal(err)
		}
	}
	offer(0) // cuts the block and partitions the society
	next := 1
	first := testing.AllocsPerRun(n-4, func() { offer(next); next++ })
	if first != 0 {
		t.Errorf("a member's first offer allocated %.0f times, want 0", first)
	}
	later := testing.AllocsPerRun(100, func() {
		if !recs[0].Offer().Withdraw() {
			t.Fatal("the pending offer did not withdraw")
		}
		offer(0)
	})
	if later != 0 {
		t.Errorf("a member's later offer allocated %.0f times, want 0", later)
	}
	if w.n.Load() != 0 {
		t.Fatalf("%d offers woke, want none: no <go> was asserted", w.n.Load())
	}
}

// TestRepartitionAllocatesPerSet: recomputing the partition of a society
// whose members form one set costs the same at 24 members as at 96 (± 2):
// install cuts its blocks, and the drain's scratch is cleared, not remade.
func TestRepartitionAllocatesPerSet(t *testing.T) {
	skipUnderRace(t)
	cost := func(n int) float64 {
		_, m, recs := sortSociety(t, n)
		var w wakeCount
		if err := m.Rearm(recs[0].Offer(), pendingReq(&recs[0], 1), &w); err != nil {
			t.Fatal(err)
		}
		if len(m.comms) != 1 {
			t.Fatalf("%d Sort members form %d sets, want 1", n-1, len(m.comms))
		}
		return testing.AllocsPerRun(20, func() {
			m.mu.Lock()
			m.valid = false
			m.mu.Unlock()
			m.repartition()
		})
	}
	small, large := cost(24), cost(96)
	t.Logf("a repartition allocates %.0f times at 24 members, %.0f at 96", small, large)
	if large > small+2 || large < small-2 {
		t.Errorf("a repartition allocates %.0f times at 24 members and %.0f at 96, want the same ± 2", small, large)
	}
	if small > 7 {
		t.Errorf("a repartition allocates %.0f times, want <= 7: the partition's four blocks and the union-find's closures", small)
	}
}

// TestRegisterMemberAllocatesAtMostItsKeys: a registration builds the
// member's import shape and nothing else: one bucket list for a Sort
// member, whose leads come from its scope.
func TestRegisterMemberAllocatesAtMostItsKeys(t *testing.T) {
	skipUnderRace(t)
	_, m, _ := sortSociety(t, 8)
	env := expr.Env{"a": tuple.Int(1), "b": tuple.Int(2)}
	v := sortView()
	recs := make([]Member, 101)
	next := 0
	got := testing.AllocsPerRun(100, func() {
		m.RegisterMember(&recs[next], 1000, v, env)
		m.Unregister(1000)
		next++
	})
	if got > 1 {
		t.Errorf("RegisterMember allocated %.0f times, want <= 1", got)
	}
}

// TestRegisterGroupAllocates: a group spawned together reserves its
// registrations (Reserve), so the member table grows once: registering 256
// members under the universal view, whose import has no bucket list,
// allocates at most the table's own few blocks.
func TestRegisterGroupAllocates(t *testing.T) {
	skipUnderRace(t)
	const n = 256
	v := view.Universal()
	best := ^uint64(0)
	for trial := 0; trial < 5; trial++ { // the least of five: another goroutine may allocate meanwhile
		_, _, m := newManager(t)
		m.Register(1, v, nil) // a society's main process
		recs := make([]Member, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Reserve(n)
		for i := range recs {
			m.RegisterMember(&recs[i], tuple.ProcessID(i+2), v, nil)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
		if len(m.members) != n+1 {
			t.Fatalf("%d members registered, want %d", len(m.members), n+1)
		}
	}
	t.Logf("registering a %d-member group allocates %d times", n, best)
	if best > 4 {
		t.Errorf("registering a %d-member group allocated %d times, want <= 4: the member table, grown once", n, best)
	}
}

// TestRegisterOneByOneAllocates: a society grown one spawn at a time, each
// announced by Reserve(1), copies its member table O(log n) times, not once a
// spawn: registering 10⁴ members so allocates about what the map's own
// doublings would, far below one table per registration.
func TestRegisterOneByOneAllocates(t *testing.T) {
	skipUnderRace(t)
	const n = 10_000
	v := view.Universal()
	recs := make([]Member, n)
	grow := func(reserve bool) uint64 {
		best := ^uint64(0)
		for trial := 0; trial < 3; trial++ { // the least of three: another goroutine may allocate meanwhile
			_, _, m := newManager(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range recs {
				if reserve {
					m.Reserve(1)
				}
				m.RegisterMember(&recs[i], tuple.ProcessID(i+1), v, nil)
			}
			runtime.ReadMemStats(&after)
			if len(m.members) != n {
				t.Fatalf("%d members registered, want %d", len(m.members), n)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	reserved, plain := grow(true), grow(false)
	t.Logf("registering %d members one at a time allocates %d times with Reserve(1) each, %d without", n, reserved, plain)
	if reserved > 4*plain+64 {
		t.Errorf("registering %d members through Reserve(1) allocated %d times, %d without: want the table copied O(log n) times", n, reserved, plain)
	}
}

// TestOfferSlotCleared: Unregister clears a leaving member's request slot,
// also while a drain pass runs, so the society's slot block keeps nothing
// of the leaver alive; a member that leaves with its offer armed keeps its
// request, and can still withdraw the offer.
func TestOfferSlotCleared(t *testing.T) {
	_, m, recs := sortSociety(t, 4)
	var w wakeCount
	for i, running := range []bool{false, true} {
		pid := tuple.ProcessID(i + 1)
		if err := m.Rearm(recs[i].Offer(), pendingReq(&recs[i], pid), &w); err != nil {
			t.Fatal(err)
		}
		slot := &recs[i].o.reqs[0]
		if !recs[i].Offer().Withdraw() {
			t.Fatal("the pending offer did not withdraw")
		}
		m.mu.Lock()
		m.draining, m.firing = running, running // a pass firing: Unregister does not wait for it
		m.mu.Unlock()
		m.Unregister(pid)
		m.mu.Lock()
		m.draining, m.firing = false, false
		m.mu.Unlock()
		if slot.Env != nil {
			t.Errorf("pass running %v: Unregister left the slot holding the leaver's request", running)
		}
	}

	if err := m.Rearm(recs[2].Offer(), pendingReq(&recs[2], 3), &w); err != nil {
		t.Fatal(err)
	}
	armed := &recs[2].o.reqs[0]
	m.Unregister(3)
	if armed.Env == nil {
		t.Error("a member leaving with its offer armed lost its request")
	}
	if !recs[2].Offer().Withdraw() {
		t.Error("the armed offer of a member that left did not withdraw")
	}
	runtime.KeepAlive(recs)
}

// TestFireGroundsOneBlock: a fire grounds every member's assertions into
// one fields block for the attempt (pattern.Block), not a heap block per
// tuple. A 64-member barrier round whose members assert <passed, id>, id
// from each member's scope, allocates at most 3 blocks more than the same
// round asserting the same tuples built ahead (pattern.Literal, which
// grounds nothing): its 128 values take blocks of 63, 63 and 4 values.
func TestFireGroundsOneBlock(t *testing.T) {
	skipUnderRace(t)
	const n = 64
	passed := tuple.Atom("passed")
	round := func(literal bool) float64 {
		s, e, m := newManager(t)
		s.Assert(tuple.Environment, goTuple) // every member imports it: one set
		recs := make([]Member, n)
		reqs := make([][]txn.Request, n)
		for i := range recs {
			pid := tuple.ProcessID(i + 1)
			env := expr.Env{"id": tuple.Int(int64(pid))}
			m.RegisterMember(&recs[i], pid, view.Universal(), env)
			assert := pattern.P(pattern.C(passed), pattern.V("id"))
			if literal {
				assert = pattern.P(pattern.C(passed), pattern.C(tuple.Int(int64(pid)))).Literal(make([]tuple.Value, 2))
			}
			reqs[i] = []txn.Request{{Proc: pid, View: view.Universal(), Env: env,
				Query: goReq(pid).Query, Asserts: []pattern.Pattern{assert}}}
		}
		clean := txn.Request{Proc: tuple.Environment, View: view.Universal(),
			Query: pattern.Query{Quant: pattern.ForAll, Patterns: []pattern.Pattern{pattern.R(pattern.C(passed), pattern.W())}}}
		var w wakeCount
		fire := func() {
			fires := m.Fires()
			for i := range recs {
				if err := m.Rearm(recs[i].Offer(), reqs[i], &w); err != nil {
					t.Fatal(err)
				}
			}
			if m.Fires() != fires+1 {
				t.Fatalf("the barrier did not fire: %d fires, want %d", m.Fires(), fires+1)
			}
			for i := range recs {
				a, err := recs[i].Offer().Answer()
				if err != nil {
					t.Fatalf("member %d: %v", i+1, err)
				}
				if len(a.Asserted) != 1 || !a.Asserted[0].Tuple.Equal(tuple.New(passed, tuple.Int(int64(i+1)))) {
					t.Fatalf("member %d asserted %v, want <passed, %d>", i+1, a.Asserted, i+1)
				}
				a.Release()
			}
			a, err := e.Run(context.Background(), clean, metrics.TxnImmediate)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Retracted) != n {
				t.Fatalf("retracted %d of the barrier's tuples, want %d", len(a.Retracted), n)
			}
			a.Release()
		}
		for i := 0; i < 8; i++ {
			fire() // warm the partition, the slot block and the pools
		}
		return testing.AllocsPerRun(20, fire)
	}
	grounded, built := round(false), round(true)
	t.Logf("a 64-member barrier round: %.0f allocations grounding its tuples, %.0f with them built ahead", grounded, built)
	if grounded > built+3 {
		t.Errorf("a 64-member barrier round grounding <passed, id> allocates %.0f times, %.0f more than with its tuples built ahead; want <= 3 more (one fields block of 63 values per 31 tuples)", grounded, grounded-built)
	}
}

// TestFireAllocates: a warm 64-member barrier fire — every member issuing
// one statement whose query reads all 64 announcements, evaluated once and
// shared — allocates at most 2 times besides the blocks it grounds its
// members' <passed, id> into: the claims, picks, source, lock plan and
// sharing memo are the drain's scratch, cleared by each attempt.
func TestFireAllocates(t *testing.T) {
	skipUnderRace(t)
	const n, rounds = 64, 20
	passed, ready := tuple.Atom("passed"), tuple.Atom("ready")
	s, e, m := newManager(t)
	pats := make([]pattern.Pattern, n)
	for i := range pats {
		id := tuple.Int(int64(i + 1))
		pats[i] = pattern.P(pattern.C(ready), pattern.C(id))
		s.Assert(tuple.Environment, tuple.New(ready, id))
	}
	query := pattern.Q(pats...)
	asserts := []pattern.Pattern{pattern.P(pattern.C(passed), pattern.V("id"))}
	recs := make([]Member, n)
	reqs := make([][]txn.Request, n)
	for i := range recs {
		pid := tuple.ProcessID(i + 1)
		env := expr.Env{"id": tuple.Int(int64(pid))}
		m.RegisterMember(&recs[i], pid, view.Universal(), env)
		reqs[i] = []txn.Request{{Proc: pid, View: view.Universal(), Env: env,
			Query: query, Asserts: asserts, Pos: metrics.Pos{Line: 3, Col: 3}}}
	}
	// The bucket the fire asserts into keeps a floor of tuples, so that the
	// store's index of it stays warm too: an emptied bucket gives its index
	// memory back, and refilling it is the store's cost, not the fire's.
	floor := tuple.New(passed, tuple.Atom("floor"))
	for i := 0; i < 2*n; i++ {
		s.Assert(tuple.Environment, floor)
	}
	clean := txn.Request{Proc: tuple.Environment, View: view.Universal(),
		Query: pattern.QAll(pattern.R(pattern.C(passed), pattern.V("x"))).Where(expr.Ne(expr.V("x"), expr.Const(tuple.Atom("floor"))))}
	var w wakeCount
	var total uint64
	for r := 0; r < 8+rounds; r++ { // 8 rounds warm the partition, the scratch and the pools
		fires := m.Fires()
		for i := range recs[:n-1] {
			if err := m.Rearm(recs[i].Offer(), reqs[i], &w); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.Rearm(recs[n-1].Offer(), reqs[n-1], &w); err != nil { // completes the set: fires
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if r >= 8 {
			total += after.Mallocs - before.Mallocs
		}
		if m.Fires() != fires+1 {
			t.Fatalf("the barrier did not fire: %d fires, want %d", m.Fires(), fires+1)
		}
		for i := range recs {
			a, err := recs[i].Offer().Answer()
			if err != nil {
				t.Fatalf("member %d: %v", i+1, err)
			}
			if len(a.Asserted) != 1 || !a.Asserted[0].Tuple.Equal(tuple.New(passed, tuple.Int(int64(i+1)))) {
				t.Fatalf("member %d asserted %v, want <passed, %d>", i+1, a.Asserted, i+1)
			}
			a.Release()
		}
		a, err := e.Run(context.Background(), clean, metrics.TxnImmediate)
		if err != nil {
			t.Fatal(err)
		}
		a.Release()
	}
	const blocks = 3 // 64 tuples of 2 values, 31 to a block of 63
	got := float64(total) / rounds
	t.Logf("a warm 64-member barrier fire allocates %.1f times, %d of them its fields blocks", got, blocks)
	if got > 2+blocks {
		t.Errorf("a warm 64-member barrier fire allocates %.1f times, want <= %d: 2 besides its %d fields blocks", got, 2+blocks, blocks)
	}
}
