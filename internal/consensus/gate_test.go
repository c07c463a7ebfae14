package consensus

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// rounds returns the firing attempts the gate has run on s.
func rounds(s *dataspace.Store) uint64 { return s.Metrics().Snapshot().ConsensusRounds }

// TestConsensusQueryUsesFieldIndex: a query evaluated for a firing attempt
// gets the access paths the same query gets in a transaction. A lead-unknown
// pattern with a constant field must visit that field's bucket once the
// shape is promoted, not the whole arity.
func TestConsensusQueryUsesFieldIndex(t *testing.T) {
	const records, groups = 400, 20
	s, e, m := newManager(t, dataspace.WithShards(1))
	rec := tuple.Atom("rec")
	for i := 0; i < records; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i)), rec, tuple.Int(int64(i%groups))))
	}
	byGroup := func(g int64) pattern.Query {
		return pattern.Q(pattern.P(pattern.V("x"), pattern.C(rec), pattern.C(tuple.Int(g))))
	}
	// Scan pressure through the engine promotes the (3, pos 1/2) shapes.
	for i := 0; i < 4; i++ {
		if res, err := e.Immediate(txn.Request{Proc: 9, View: view.Universal(), Query: byGroup(int64(i))}); err != nil || !res.OK {
			t.Fatalf("warm-up read: res=%+v err=%v", res, err)
		}
	}
	before := s.Metrics().Snapshot()
	m.Register(1, view.Universal(), nil)
	o, err := m.StartOffer(txn.Request{Proc: 1, View: view.Universal(), Query: byGroup(7)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-o.Done():
	default:
		t.Fatal("the offer did not fire")
	}
	after := s.Metrics().Snapshot()
	if got := after.SecondaryIndexedScans - before.SecondaryIndexedScans; got != 1 {
		t.Errorf("%d indexed field scans during the fire, want 1", got)
	}
	if got, max := after.SecondaryTuplesVisited-before.SecondaryTuplesVisited, uint64(records/groups); got > max {
		t.Errorf("the fire visited %d tuples, want at most the %d of the field bucket (the arity holds %d)", got, max, records)
	}
}

// TestWithdrawParksOnClaim: Withdraw of a claimed offer blocks — on the
// attempt's outcome, not in a spin — until the attempt settles it.
func TestWithdrawParksOnClaim(t *testing.T) {
	_, _, m := newManager(t)
	m.Register(1, view.Universal(), nil)
	o, err := m.StartOffer(goReq(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := o.load()
	o.move(gen, stateOffered, stateClaimed) // a firing attempt owns the offer
	done := make(chan bool)
	go func() { done <- o.Withdraw() }()
	select {
	case <-done:
		t.Fatal("Withdraw returned while the offer was claimed")
	case <-time.After(20 * time.Millisecond):
	}
	// The attempt reverts, exactly as tryFire does.
	o.move(gen, stateClaimed, stateOffered)
	m.mu.Lock()
	m.settled.Broadcast()
	m.mu.Unlock()
	select {
	case ok := <-done:
		if !ok {
			t.Error("Withdraw of a reverted offer reported it fired")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Withdraw never woke after the attempt reverted")
	}
}

// TestWithdrawDuringStretchedClaim races a withdrawal against the firing
// attempt the set's last offer runs, its claim window stretched by the
// exploration controller at every PointConsensusClaim. Each round either
// withdraws both offers or fires both — never one of each, never a hang.
// Run under -race.
func TestWithdrawDuringStretchedClaim(t *testing.T) {
	sc := sched.New(3, sched.Faults{Yield: 255})
	s := dataspace.New(dataspace.WithScheduler(sc))
	m := NewManager(txn.New(s))
	defer m.Close()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("x")))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)
	var fired, withdrawn int
	for round := 0; round < 200; round++ {
		o1, err := m.StartOffer(barrierReq(1))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var got [2]bool
		wg.Add(2)
		go func() { // offers 2: its drain attempts the fire
			defer wg.Done()
			o2, err := m.StartOffer(barrierReq(2))
			if err != nil {
				t.Error(err)
				return
			}
			if got[1] = o2.Withdraw(); !got[1] {
				<-o2.Done()
			}
		}()
		go func() {
			defer wg.Done()
			for y := round % 8; y > 0; y-- {
				runtime.Gosched() // vary where the withdrawal lands in the attempt
			}
			if got[0] = o1.Withdraw(); !got[0] {
				<-o1.Done()
			}
		}()
		wg.Wait()
		switch {
		case got[0] && got[1]:
			withdrawn++
		case !got[0] && !got[1]:
			fired++
		default:
			// One withdrew, so the set could not have fired with it — unless
			// the other fired alone, which would split the consensus set.
			t.Fatalf("round %d: offer 1 withdrawn=%v, offer 2 withdrawn=%v: half a consensus set fired", round, got[0], got[1])
		}
	}
	t.Logf("%d rounds fired, %d withdrew", fired, withdrawn)
}

// TestCloseDuringStretchedClaim races Close against the firing attempt the
// set's last offer runs, its claims held across a claim window the
// exploration controller stretches at every PointConsensusClaim. The
// attempt runs on the offering goroutine: an offer that returns before Close
// began has fired. Close waits for the attempt to settle, so every offer
// resolves — both fired, or both failed with ErrClosed — and nothing hangs.
// Run under -race.
func TestCloseDuringStretchedClaim(t *testing.T) {
	wait := func(what string, c <-chan struct{}) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: hung", what)
		}
	}
	var fired, closed int
	for round := uint64(0); round < 64; round++ {
		s := dataspace.New(dataspace.WithScheduler(sched.New(round, sched.Faults{Yield: 255})))
		m := NewManager(txn.New(s))
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("x")))
		m.Register(1, view.Universal(), nil)
		m.Register(2, view.Universal(), nil)
		o1, err := m.StartOffer(barrierReq(1))
		if err != nil {
			t.Fatal(err)
		}
		var o2 *Offer
		var closing atomic.Bool
		offered, done := make(chan struct{}), make(chan struct{})
		go func() { // offers 2: its drain attempts the fire
			defer close(offered)
			var err error
			o2, err = m.StartOffer(barrierReq(2))
			switch {
			case err != nil && !errors.Is(err, ErrClosed):
				t.Error(err)
			case err == nil && !closing.Load() && !o2.Fired():
				t.Errorf("round %d: the set's last offer returned unfired before Close began", round)
			}
		}()
		go func() {
			defer close(done)
			for y := round % 8; y > 0; y-- {
				runtime.Gosched() // vary where Close lands in the attempt
			}
			closing.Store(true)
			m.Close()
		}()
		wait("the offer", offered)
		wait("Close", done)
		wait("offer 1", o1.Done())
		_, err1 := o1.Result()
		switch {
		case o2 == nil: // offered after Close
			if !errors.Is(err1, ErrClosed) {
				t.Fatalf("round %d: offer 1 alone resolved with %v, want ErrClosed", round, err1)
			}
			closed++
		default:
			wait("offer 2", o2.Done())
			_, err2 := o2.Result()
			if (err1 == nil) != (err2 == nil) || (err1 != nil && !errors.Is(err1, ErrClosed)) || (err2 != nil && !errors.Is(err2, ErrClosed)) {
				t.Fatalf("round %d: offer 1 resolved with %v, offer 2 with %v: want both fired or both ErrClosed", round, err1, err2)
			}
			if err1 == nil {
				fired++
			} else {
				closed++
			}
		}
	}
	t.Logf("%d rounds fired, %d closed first", fired, closed)
}

// TestRegisterDuringStretchedAttempt races a registration against the
// firing attempt a set's last offer runs, stretched by the exploration
// controller at every decision point. The newcomer imports nothing the set
// does, but it invalidates the partition, which stands the attempt down;
// the drain must recompute the partition and fire the set with no further
// event — no commit, offer or member leaving comes to run it. Run under
// -race.
func TestRegisterDuringStretchedAttempt(t *testing.T) {
	elsewhere := view.New(view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom("y"))))), view.Everything())
	for round := uint64(0); round < 64; round++ {
		s := dataspace.New(dataspace.WithScheduler(sched.New(round, sched.Faults{Yield: 255})))
		m := NewManager(txn.New(s))
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("x")))
		m.Register(1, view.Universal(), nil)
		var o *Offer
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the set's only offer: its drain attempts the fire
			defer wg.Done()
			var err error
			if o, err = m.StartOffer(barrierReq(1)); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for y := round % 8; y > 0; y-- {
				runtime.Gosched() // vary where the registration lands in the attempt
			}
			m.Register(2, elsewhere, nil)
		}()
		wg.Wait()
		if o != nil && !o.Fired() {
			t.Fatalf("round %d: a registration during the attempt left the ready set unfired", round)
		}
		m.Close()
	}
}

// TestManagerStartsNoGoroutine: the gate's work runs on its callers. A
// manager that registers, offers, fires and closes leaves the goroutine
// count where it found it.
func TestManagerStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := dataspace.New()
	m := NewManager(txn.New(s))
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("x")))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after NewManager and Register, want <= %d", got, base)
	}
	o1, err1 := m.StartOffer(barrierReq(1))
	o2, err2 := m.StartOffer(barrierReq(2))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for _, o := range []*Offer{o1, o2} {
		if !o.Fired() {
			t.Fatal("the last offer returned before its set fired")
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after a fire, want <= %d", got, base)
	}
	m.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after Close, want <= %d", got, base)
	}
}

// countingMatcher admits every <ready, *> tuple and counts how many it was
// asked about: the tuples a member's scans visit, whichever access path
// delivered them.
type countingMatcher struct{ visits *atomic.Int64 }

var readyAtom = tuple.Atom("ready")

func (c countingMatcher) Admits(_ dataspace.Reader, _ expr.Scope, t tuple.Tuple) bool {
	c.visits.Add(1)
	return t.Arity() == 2 && t.Field(0).Equal(readyAtom)
}
func (c countingMatcher) Restriction(_ expr.Scope, arity int, leads []tuple.Value) ([]tuple.Value, bool, bool) {
	if arity != 2 {
		return leads, false, true
	}
	return append(leads, readyAtom), true, true
}
func (c countingMatcher) Arities() (int, bool) { return 2, false }

// barrierFire builds an n-member barrier — every member's guard names all n
// <ready, i> tuples — lets all but the last member offer, and returns the
// evaluations and the tuples visited by the one fire the last offer
// triggers.
func barrierFire(t *testing.T, n int) (evaluations uint64, visited int64) {
	t.Helper()
	s, _, m := newManager(t, dataspace.WithShards(1))
	var visits atomic.Int64
	v := view.New(view.Union(countingMatcher{&visits}), view.Everything())
	guard := pattern.Query{Quant: pattern.Exists}
	for i := 1; i <= n; i++ {
		s.Assert(tuple.Environment, tuple.New(readyAtom, tuple.Int(int64(i))))
		guard.Patterns = append(guard.Patterns, pattern.P(pattern.C(readyAtom), pattern.C(tuple.Int(int64(i)))))
	}
	offers := make([]*Offer, n)
	offer := func(i int) {
		pid := tuple.ProcessID(i + 1)
		o, err := m.StartOffer(txn.Request{Proc: pid, View: v, Query: guard,
			Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("passed")), pattern.C(tuple.Int(int64(pid))))}})
		if err != nil {
			t.Fatal(err)
		}
		offers[i] = o
	}
	for i := 0; i < n; i++ {
		m.Register(tuple.ProcessID(i+1), v, nil)
	}
	for i := 0; i < n-1; i++ {
		offer(i)
	}
	if rounds(s) != 0 {
		t.Fatalf("n=%d: %d evaluations before the last member offered", n, rounds(s))
	}
	visits.Store(0)
	offer(n - 1)
	for i, o := range offers {
		select {
		case <-o.Done():
		default:
			t.Fatalf("n=%d: member %d did not pass the barrier", n, i+1)
		}
	}
	if m.Fires() != 1 {
		t.Fatalf("n=%d: %d fires, want 1", n, m.Fires())
	}
	return rounds(s), visits.Load()
}

// TestBarrierFireCost: one n-member, n-leg barrier fire is evaluated once
// and visits tuples in proportion to members × legs. Before plan-once and
// the in-bucket field lookup every leg scanned the whole n-tuple bucket —
// members × legs × n/2 visits, a ratio of 8 between n=32 and n=64.
func TestBarrierFireCost(t *testing.T) {
	e32, v32 := barrierFire(t, 32)
	e64, v64 := barrierFire(t, 64)
	if e32 > 4 || e64 > 4 {
		t.Errorf("evaluations per fire: %d at n=32, %d at n=64; want <= 4", e32, e64)
	}
	if ratio := float64(v64) / float64(v32); ratio > 4.5 {
		t.Errorf("tuples visited per fire: %d at n=32, %d at n=64: ratio %.2f, want <= 4.5 (members x legs)", v32, v64, ratio)
	}
	t.Logf("evaluations %d/%d, tuples visited %d/%d at n=32/64", e32, e64, v32, v64)
	if max := int64(3 * 64 * 64); v64 > max {
		t.Errorf("n=64 fire visited %d tuples, want <= %d", v64, max)
	}
}

// TestSortTerminationEvaluations drives the paper's §3.2 sort at L=24 at
// the Manager API: 23 adjacent-pair members over a chain of nodes, each
// offering "my pair is in order". While the chain holds an inversion the
// fully offered community is evaluated once and fails; commits outside its
// imports, and withdraw/re-offer churn that leaves a member missing, cost
// no evaluation; the swap that sorts the chain touches its buckets and the
// next evaluation fires all 23.
func TestSortTerminationEvaluations(t *testing.T) {
	const n = 24
	s, e, m := newManager(t, dataspace.WithShards(4))
	node := func(i int) pattern.Field { return pattern.C(tuple.Int(int64(i))) }
	for i := 1; i <= n; i++ {
		val := int64(10 * i)
		switch i { // one inversion, between nodes 11 and 12
		case 11:
			val = 120
		case 12:
			val = 110
		}
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i)), tuple.Int(val)))
	}
	pairView := func(a int) view.View {
		return view.New(view.Union(
			view.Pat(pattern.P(node(a), pattern.W())),
			view.Pat(pattern.P(node(a+1), pattern.W())),
		), view.Everything())
	}
	views := make([]view.View, n)
	offers := make([]*Offer, n)
	offer := func(a int) {
		o, err := m.StartOffer(txn.Request{Proc: tuple.ProcessID(a), View: views[a],
			Query: pattern.Q(
				pattern.P(node(a), pattern.V("v1")),
				pattern.P(node(a+1), pattern.V("v2")),
			).Where(expr.Le(expr.V("v1"), expr.V("v2")))})
		if err != nil {
			t.Fatal(err)
		}
		offers[a] = o
	}
	for a := 1; a < n; a++ {
		views[a] = pairView(a)
		m.Register(tuple.ProcessID(a), views[a], nil)
	}
	for a := 1; a < n; a++ {
		offer(a)
	}
	if got := rounds(s); got != 1 {
		t.Fatalf("%d evaluations after the 23rd offer over an unsorted chain, want 1 (failed)", got)
	}
	// Noise outside every import, then churn that leaves the set one offer
	// short: nothing to evaluate.
	for i := 0; i < 50; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("noise"), tuple.Int(int64(i))))
	}
	if !offers[5].Withdraw() {
		t.Fatal("withdraw refused")
	}
	if got := rounds(s); got != 1 {
		t.Fatalf("%d evaluations after noise and a withdrawal, want still 1", got)
	}
	// The swap that sorts the chain: not fully offered, so no evaluation yet.
	res, err := e.Immediate(txn.Request{Proc: 11, View: views[11],
		Query: pattern.Q(pattern.R(node(11), pattern.V("v1")), pattern.R(node(12), pattern.V("v2"))),
		Asserts: []pattern.Pattern{
			pattern.P(node(11), pattern.V("v2")),
			pattern.P(node(12), pattern.V("v1")),
		}})
	if err != nil || !res.OK {
		t.Fatalf("swap: res=%+v err=%v", res, err)
	}
	if got := rounds(s); got != 1 {
		t.Fatalf("%d evaluations while member 5 was not offering, want still 1", got)
	}
	offer(5)
	if got, fires := rounds(s), m.Fires(); got != 2 || fires != 1 {
		t.Fatalf("%d evaluations and %d fires once the chain was sorted and fully offered, want 2 and 1", got, fires)
	}
	for a := 1; a < n; a++ {
		select {
		case <-offers[a].Done():
		default:
			t.Fatalf("member %d did not terminate", a)
		}
	}
}

// wakeCount is a Waker that counts its wakes.
type wakeCount struct{ n atomic.Int32 }

func (w *wakeCount) Wake() { w.n.Add(1) }

// TestRearmDropsStaleFire is the offer's analogue of the subscription's
// re-arm rule: a firing attempt aimed at an incarnation its owner has since
// withdrawn does nothing to the incarnation the owner re-armed. A drain
// found the first incarnation in the offer table; the owner withdraws it and
// re-arms the same record before the attempt claims. The attempt must
// neither claim, fire nor wake the re-armed offer, which then fires normally
// once its query holds.
func TestRearmDropsStaleFire(t *testing.T) {
	s, _, m := newManager(t)
	m.Register(1, view.Universal(), nil)
	var (
		o Offer
		w wakeCount
	)
	if err := m.Rearm(&o, []txn.Request{goReq(1)}, &w); err != nil {
		t.Fatal(err)
	}
	c := m.members[1].m.comm
	gen, _ := o.load()
	stale := []claim{{&o, gen}} // what a drain took from the offer table
	if !o.Withdraw() {
		t.Fatal("the first incarnation did not withdraw")
	}
	if err := m.Rearm(&o, []txn.Request{goReq(1)}, &w); err != nil {
		t.Fatal(err)
	}
	if m.tryFire(c, stale) {
		t.Fatal("a firing attempt aimed at the withdrawn incarnation fired")
	}
	if g, st := o.load(); g != gen+1 || st != stateOffered {
		t.Fatalf("re-armed offer is incarnation %d in state %d, want %d offered", g, st, gen+1)
	}
	if o.Fired() || w.n.Load() != 0 || m.Fires() != 0 {
		t.Fatalf("stale attempt touched the re-armed offer: fired %t, %d wakes, %d fires", o.Fired(), w.n.Load(), m.Fires())
	}
	s.Assert(tuple.Environment, goTuple)
	if !o.Fired() || w.n.Load() != 1 || m.Fires() != 1 {
		t.Fatalf("re-armed offer: fired %t, %d wakes, %d fires; want it fired once and woken once", o.Fired(), w.n.Load(), m.Fires())
	}
	a, err := o.Answer()
	if err != nil || !a.OK() {
		t.Fatalf("re-armed offer's answer: %v, %v", a, err)
	}
	a.Release()
}
