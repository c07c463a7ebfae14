package consensus

import (
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

// stepped returns a manager whose gate the test steps itself.
func stepped(t *testing.T, opts ...dataspace.Option) (*dataspace.Store, *txn.Engine, *Manager) {
	t.Helper()
	s := dataspace.New(opts...)
	e := txn.New(s)
	m := newUnstarted(e)
	t.Cleanup(m.Close)
	return s, e, m
}

func drive(m *Manager) {
	for m.step() {
	}
}

// TestConsensusQueryUsesFieldIndex: a query evaluated for a firing attempt
// gets the access paths the same query gets in a transaction. A lead-unknown
// pattern with a constant field must visit that field's bucket once the
// shape is promoted, not the whole arity.
func TestConsensusQueryUsesFieldIndex(t *testing.T) {
	const records, groups = 400, 20
	s, e, m := stepped(t, dataspace.WithShards(1))
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
	drive(m)
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
	_, _, m := stepped(t)
	m.Register(1, view.Universal(), nil)
	o, err := m.StartOffer(barrierReq(1))
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

// TestWithdrawDuringStretchedClaim races withdrawals against firing
// attempts whose claim window the exploration controller stretches at every
// PointConsensusClaim. Each round either withdraws both offers or fires
// both — never one of each, never a hang. Run under -race.
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
		o1, err1 := m.StartOffer(barrierReq(1))
		o2, err2 := m.StartOffer(barrierReq(2))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		var wg sync.WaitGroup
		var got [2]bool
		for i, o := range []*Offer{o1, o2} {
			wg.Add(1)
			go func(i int, o *Offer) {
				defer wg.Done()
				for y := round % 8; y > 0; y-- {
					runtime.Gosched() // vary where the withdrawal lands in the attempt
				}
				got[i] = o.Withdraw()
				if !got[i] {
					<-o.Done()
				}
			}(i, o)
		}
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
	s, _, m := stepped(t, dataspace.WithShards(1))
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
	drive(m) // partition settled; nothing is ready
	if m.attempts.Load() != 0 {
		t.Fatalf("n=%d: %d evaluations before the last member offered", n, m.attempts.Load())
	}
	visits.Store(0)
	offer(n - 1)
	drive(m)
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
	return m.attempts.Load(), visits.Load()
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
	s, e, m := stepped(t, dataspace.WithShards(4))
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
		drive(m)
	}
	if got := m.attempts.Load(); got != 1 {
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
	drive(m)
	if got := m.attempts.Load(); got != 1 {
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
	drive(m)
	if got := m.attempts.Load(); got != 1 {
		t.Fatalf("%d evaluations while member 5 was not offering, want still 1", got)
	}
	offer(5)
	drive(m)
	if got, fires := m.attempts.Load(), m.Fires(); got != 2 || fires != 1 {
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
// withdrawn does nothing to the incarnation the owner re-armed. The detector
// found the first incarnation in the offer table; the owner withdraws it and
// re-arms the same record before the attempt claims. The attempt must
// neither claim, fire nor wake the re-armed offer, which then fires normally.
func TestRearmDropsStaleFire(t *testing.T) {
	_, _, m := stepped(t)
	m.Register(1, view.Universal(), nil)
	var (
		o Offer
		w wakeCount
	)
	if err := m.Rearm(&o, []txn.Request{barrierReq(1)}, &w); err != nil {
		t.Fatal(err)
	}
	m.repartition()
	c := m.members[1].comm
	gen, _ := o.load()
	stale := []claim{{&o, gen}} // what the detector took from the offer table
	if !o.Withdraw() {
		t.Fatal("the first incarnation did not withdraw")
	}
	if err := m.Rearm(&o, []txn.Request{barrierReq(1)}, &w); err != nil {
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
	drive(m)
	if !o.Fired() || w.n.Load() != 1 || m.Fires() != 1 {
		t.Fatalf("re-armed offer: fired %t, %d wakes, %d fires; want it fired once and woken once", o.Fired(), w.n.Load(), m.Fires())
	}
	a, err := o.Answer()
	if err != nil || !a.OK() {
		t.Fatalf("re-armed offer's answer: %v, %v", a, err)
	}
	a.Release()
}
