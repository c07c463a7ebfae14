package dataspace

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func waitFired(t *testing.T, ch <-chan struct{}) bool {
	t.Helper()
	select {
	case <-ch:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

func assertNotFired(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
		t.Error("subscription fired unexpectedly")
	case <-time.After(20 * time.Millisecond):
	}
}

var yearKey = []InterestKey{{Arity: 2, Lead: tuple.Atom("year"), LeadKnown: true}}

// filterFunc adapts a function to DeltaFilter.
type filterFunc func(Delta) bool

func (f filterFunc) AcceptDelta(d Delta) bool { return f(d) }

// chanWaker is a test owner's Waker: a cap-1 channel the test waits on.
type chanWaker chan struct{}

func (c chanWaker) Wake() {
	select {
	case c <- struct{}{}:
	default:
	}
}

// testSub is a subscription whose owner, the test, waits on a channel.
type testSub struct {
	*Subscription
	ready chanWaker
}

// subscribe arms a subscription whose deliveries wake the returned
// testSub's channel.
func subscribe(s *Store, keys []InterestKey, filter DeltaFilter, sels ...pattern.FieldSel) testSub {
	ready := make(chanWaker, 1)
	return testSub{s.Subscribe(ready, keys, filter, sels...), ready}
}

// Ready returns the channel the subscription's deliveries wake.
func (t testSub) Ready() <-chan struct{} { return t.ready }

// forget takes back a wake the test did not receive.
func (t testSub) forget() {
	select {
	case <-t.ready:
	default:
	}
}

// Drain forgets an unreceived wake, then drains the subscription: a
// delivery racing with it lands in this batch, or wakes again after it.
func (t testSub) Drain() ([]Delta, bool) {
	t.forget()
	return t.Subscription.Drain()
}

// Cancel cancels the subscription and forgets an unreceived wake.
func (t testSub) Cancel() {
	t.Subscription.Cancel()
	t.forget()
}

// arm re-arms the cancelled subscription on s, waking the same channel.
func (t testSub) arm(s *Store, keys []InterestKey, filter DeltaFilter) {
	t.forget()
	s.Arm(t.Subscription, t.ready, keys, filter)
}

// assertRegistriesEmpty checks that no shard still indexes a subscription
// and the live gauge is back to zero.
func assertRegistriesEmpty(t *testing.T, s *Store) {
	t.Helper()
	for i, sh := range s.shards {
		r := &sh.waiters
		r.mu.Lock()
		if len(r.byKey) != 0 || len(r.byArity) != 0 || len(r.bySel) != 0 {
			t.Errorf("shard %d registry not empty: %d keyed, %d arity-wide, %d field-indexed buckets",
				i, len(r.byKey), len(r.byArity), len(r.bySel))
		}
		r.mu.Unlock()
	}
	if n := s.Metrics().Snapshot().ReactiveSubscriptions; n != 0 {
		t.Errorf("live subscription gauge = %d, want 0", n)
	}
}

func TestSubscribeWakesOnMatchingInsert(t *testing.T) {
	s := New()
	sub := subscribe(s, yearKey, nil)
	defer sub.Cancel()
	s.Assert(tuple.Environment, year(90))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("subscription not fired by matching insert")
	}
}

func TestSubscribeIgnoresIrrelevantCommit(t *testing.T) {
	s := New()
	sub := subscribe(s, yearKey, nil)
	defer sub.Cancel()
	// Different lead and different arity must not fire the subscription.
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("month"), tuple.Int(1)))
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("year"), tuple.Int(1), tuple.Int(2)))
	assertNotFired(t, sub.Ready())
}

func TestSubscribeWakesOnDelete(t *testing.T) {
	// Deletes matter for negated patterns: retraction can enable a query.
	s := New()
	ids := s.Assert(tuple.Environment, year(90))
	sub := subscribe(s, yearKey, nil)
	defer sub.Cancel()
	_ = s.Update(tuple.Environment, func(w Writer) error { return w.Delete(ids[0]) })
	if !waitFired(t, sub.Ready()) {
		t.Fatal("subscription not fired by delete")
	}
}

func TestSubscribeArityOnlyKey(t *testing.T) {
	s := New()
	sub := subscribe(s, []InterestKey{{Arity: 2}}, nil)
	defer sub.Cancel()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("anything"), tuple.Int(1)))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("arity-wide subscription not fired")
	}
}

func TestSubscribeArityZeroKey(t *testing.T) {
	s := New(WithShards(8))
	sub := subscribe(s, []InterestKey{{Arity: 0}}, nil)
	defer sub.Cancel()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("x")))
	assertNotFired(t, sub.Ready())
	s.Assert(tuple.Environment, tuple.New())
	if !waitFired(t, sub.Ready()) {
		t.Fatal("arity-0 subscription missed the empty tuple")
	}
}

func TestSubscribeNumericLeadCanonical(t *testing.T) {
	s := New()
	sub := subscribe(s, []InterestKey{{Arity: 2, Lead: tuple.Float(2.0), LeadKnown: true}}, nil)
	defer sub.Cancel()
	s.Assert(tuple.Environment, tuple.New(tuple.Int(2), tuple.Int(9)))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("canonical numeric lead missed wakeup")
	}
}

func TestCancelRemovesRegistration(t *testing.T) {
	s := New(WithShards(8))
	sub := subscribe(s, append([]InterestKey{{Arity: 3}, {Arity: 0}}, yearKey...), nil)
	if n := s.Metrics().Snapshot().ReactiveSubscriptions; n != 1 {
		t.Errorf("live subscription gauge = %d, want 1", n)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	s.Assert(tuple.Environment, year(1))
	assertNotFired(t, sub.Ready())
	assertRegistriesEmpty(t, s)
}

func TestFiredImpliesDrainNonEmpty(t *testing.T) {
	s := New()
	filtered := subscribe(s, yearKey, filterFunc(func(d Delta) bool { return d.Asserted }))
	defer filtered.Cancel()
	unfiltered := subscribe(s, yearKey, nil)
	defer unfiltered.Cancel()
	ids := s.Assert(tuple.Environment, year(1))
	s.Assert(tuple.Environment, year(2)) // a second publish before Drain must not panic

	if !waitFired(t, filtered.Ready()) || !waitFired(t, unfiltered.Ready()) {
		t.Fatal("not fired")
	}
	deltas, full := filtered.Drain()
	if full || len(deltas) != 2 || deltas[0].Inst.ID != ids[0] || !deltas[0].Asserted {
		t.Errorf("filtered Drain = %v, full=%t; want the two asserted deltas in commit order", deltas, full)
	}
	if deltas, full := unfiltered.Drain(); !full || len(deltas) != 0 {
		t.Errorf("nil-filter Drain = %v, full=%t; want full with no deltas", deltas, full)
	}
	// Drained: nothing buffered, channel re-armed and unfired.
	if deltas, full := filtered.Drain(); full || len(deltas) != 0 {
		t.Errorf("second Drain = %v, full=%t; want empty", deltas, full)
	}
	assertNotFired(t, filtered.Ready())
}

// countWaker counts its wakes.
type countWaker struct{ n atomic.Int32 }

func (w *countWaker) Wake() { w.n.Add(1) }

// TestPublishAfterDrainFiresRearmedChannel pins the re-arm-in-place
// contract: a publish wakes the owner once, later publishes do not wake it
// again until it drains, and a publish after Drain wakes it again — the
// owner's one channel or record serves the subscription's whole life.
func TestPublishAfterDrainFiresRearmedChannel(t *testing.T) {
	s := New()
	var w countWaker
	sub := s.Subscribe(&w, yearKey, nil)
	defer sub.Cancel()
	wakes := func(want int32, when string) {
		t.Helper()
		if got := w.n.Load(); got != want {
			t.Fatalf("%s: %d wakes, want %d", when, got, want)
		}
	}
	s.Assert(tuple.Environment, year(1))
	wakes(1, "first publish")
	s.Assert(tuple.Environment, year(2))
	wakes(1, "publish before Drain")
	if _, full := sub.Drain(); !full {
		t.Error("woken but Drain reported nothing")
	}
	sub.Drain()
	wakes(1, "Drain")
	s.Assert(tuple.Environment, year(3))
	wakes(2, "publish after Drain")
	if _, full := sub.Drain(); !full {
		t.Error("Drain lost the publish after the last Drain")
	}
}

func TestFilterRejectedCommitIsSuppressed(t *testing.T) {
	s := New()
	sub := subscribe(s, yearKey, filterFunc(func(d Delta) bool {
		return d.Asserted && d.Inst.Tuple.Field(1).Equal(tuple.Int(7))
	}))
	defer sub.Cancel()
	s.Assert(tuple.Environment, year(1), year(2)) // same bucket, every delta rejected
	assertNotFired(t, sub.Ready())
	snap := s.Metrics().Snapshot()
	if snap.ReactiveSignals != 1 || snap.ReactiveSuppressed != 1 {
		t.Errorf("signals=%d suppressed=%d, want 1/1", snap.ReactiveSignals, snap.ReactiveSuppressed)
	}
	s.Assert(tuple.Environment, year(3), year(7))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("accepted delta did not fire")
	}
	if deltas, full := sub.Drain(); full || len(deltas) != 1 {
		t.Errorf("Drain = %v, full=%t; want exactly the accepted delta", deltas, full)
	}
	snap = s.Metrics().Snapshot()
	if snap.ReactiveSignals != 2 || snap.ReactiveSuppressed != 1 {
		t.Errorf("signals=%d suppressed=%d, want 2/1", snap.ReactiveSignals, snap.ReactiveSuppressed)
	}
}

// TestBroadWakeupsForceFullRequery: the spurious-wakeup fault is the broad
// wakeup a naive implementation would do — a commit wakes every
// subscription in every shard for a full re-query, covered or not. Seed 1
// draws the fault on the first commit.
func TestBroadWakeupsForceFullRequery(t *testing.T) {
	s := New(WithShards(4), WithScheduler(sched.New(1, sched.Faults{SpuriousWakeup: 255})))
	sub := subscribe(s, yearKey, filterFunc(func(Delta) bool { return false }))
	defer sub.Cancel()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("unrelated")))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("the spurious-wakeup fault did not wake an uncovered subscription")
	}
	if deltas, full := sub.Drain(); !full || len(deltas) != 0 {
		t.Errorf("Drain = %v, full=%t; want full", deltas, full)
	}
}

func TestNoLostWakeupProtocol(t *testing.T) {
	// Subscribe-then-evaluate on ONE subscription: a commit racing with the
	// evaluation (or with Drain) is caught because it fires whichever
	// channel is current.
	s := New()
	sub := subscribe(s, yearKey, nil)
	defer sub.Cancel()
	for i := 0; i < 200; i++ {
		done := make(chan struct{})
		go func() {
			s.Assert(tuple.Environment, year(int64(i)))
			close(done)
		}()
		// Evaluate (find nothing or something — irrelevant); then wait.
		if !waitFired(t, sub.Ready()) {
			t.Fatal("lost wakeup")
		}
		<-done
		if _, full := sub.Drain(); !full {
			t.Fatal("fired with nothing to drain")
		}
	}
}

func TestMultipleSubscriptionsAllWoken(t *testing.T) {
	s := New()
	subs := make([]testSub, 10)
	for i := range subs {
		subs[i] = subscribe(s, yearKey, nil)
		defer subs[i].Cancel()
	}
	s.Assert(tuple.Environment, year(90))
	for i, sub := range subs {
		if !waitFired(t, sub.Ready()) {
			t.Fatalf("subscription %d not fired", i)
		}
	}
	if got := s.Metrics().Snapshot().ReactiveSignals; got != uint64(len(subs)) {
		t.Errorf("signals = %d, want %d", got, len(subs))
	}
}

func TestCancelConcurrentWithPublish(t *testing.T) {
	s := New(WithShards(4))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Assert(tuple.Environment, year(i))
			}
		}
	}()
	for i := 0; i < 300; i++ {
		sub := subscribe(s, append([]InterestKey{{Arity: 2}}, yearKey...), filterFunc(func(Delta) bool { return true }))
		if i%2 == 0 {
			<-sub.Ready()
			sub.Drain()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub.Cancel()
		}()
		sub.Cancel()
	}
	close(stop)
	wg.Wait()
	assertRegistriesEmpty(t, s)
}

// TestWaitAllocs pins what a wait costs the heap: Subscribe allocates the
// subscription — its registrations fit an inline array, and the owner brings
// its Waker — re-arming a cancelled subscription allocates nothing, a Drain
// allocates nothing, and a steady-state commit that routes a delta to the
// subscription allocates nothing at all: the routing state lives in the
// commit's pooled journal, the delta lands in the subscription's buffer,
// Drain hands that buffer out and takes the last one back.
func TestWaitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s := New(WithShards(4))
	a := leadOnShard(t, s, 0)
	keys := []InterestKey{InterestOf(2, a, true)}
	// A second subscription in the bucket keeps its registry entry alive and
	// is a candidate of every commit whose filter rejects the delta.
	idle := subscribe(s, keys, filterFunc(func(Delta) bool { return false }))
	defer idle.Cancel()
	asserted := filterFunc(func(d Delta) bool { return d.Asserted })
	w := make(chanWaker, 1)
	if n := testing.AllocsPerRun(200, func() { s.Subscribe(w, keys, asserted).Cancel() }); n > 1 {
		t.Errorf("Subscribe+Cancel: %.1f allocations, want <= 1", n)
	}

	sub := subscribe(s, keys, asserted)
	defer sub.Cancel()
	if n := testing.AllocsPerRun(200, func() { sub.Cancel(); sub.arm(s, keys, asserted) }); n != 0 {
		t.Errorf("Cancel+Arm: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sub.Drain() }); n != 0 {
		t.Errorf("Drain: %.1f allocations, want 0", n)
	}
	tup := tuple.New(a, tuple.Int(1))
	ids := s.Assert(1, tup, tup) // the second keeps the bucket populated
	cur := ids[0]
	swap := func(w Writer) error {
		if err := w.Delete(cur); err != nil {
			return err
		}
		cur = w.Insert(tup, 1)
		return nil
	}
	sub.Drain()
	if n := testing.AllocsPerRun(200, func() {
		if err := s.UpdateCommuting(1, keys, swap); err != nil {
			t.Fatal(err)
		}
		<-sub.Ready()
		if deltas, full := sub.Drain(); full || len(deltas) != 1 || deltas[0].Inst.ID != cur {
			t.Fatalf("Drain = %v, full=%t; want the one asserted delta", deltas, full)
		}
	}); n != 0 {
		t.Errorf("commit routed to a waiter, then Drain: %.1f allocations, want 0", n)
	}
}

// TestRearmDropsStaleDelivery pins the re-arm rule: a commit that found a
// subscription in one incarnation and is still delivering when its owner
// cancels and re-arms it delivers nothing to the new incarnation. The commit
// is held inside the filter of another subscription of the same bucket —
// delivered to first, being first in the bucket — after it has collected
// both, while the owner re-arms the second with an accept-everything filter
// on the same bucket. Without the incarnation check the stale delta would
// land in the new incarnation's buffer.
func TestRearmDropsStaleDelivery(t *testing.T) {
	s := New(WithShards(2))
	entered, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once // only the first commit is held
	holder := subscribe(s, yearKey, filterFunc(func(Delta) bool {
		hold.Do(func() {
			close(entered)
			<-release
		})
		return true
	}))
	defer holder.Cancel()
	sub := subscribe(s, yearKey, filterFunc(func(Delta) bool { return false }))
	committed := make(chan struct{})
	go func() {
		s.Assert(tuple.Environment, year(1))
		close(committed)
	}()
	<-entered // the commit has collected both subscriptions and is delivering
	sub.Cancel()
	sub.arm(s, yearKey, filterFunc(func(Delta) bool { return true }))
	defer sub.Cancel()
	close(release)
	<-committed
	if deltas, full := sub.Drain(); full || len(deltas) != 0 {
		t.Errorf("re-armed subscription drained %v, full=%t: a delivery collected in the previous incarnation landed", deltas, full)
	}
	assertNotFired(t, sub.Ready())
	if !waitFired(t, holder.Ready()) {
		t.Fatal("the holding subscription was never delivered to")
	}
	// The new incarnation still receives what is committed after it armed.
	s.Assert(tuple.Environment, year(2))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("the re-armed subscription missed a commit after its Arm")
	}
	if deltas, _ := sub.Drain(); len(deltas) != 1 || !deltas[0].Inst.Tuple.Field(1).Equal(tuple.Int(2)) {
		t.Errorf("re-armed subscription drained %v, want the one delta committed after its Arm", deltas)
	}
}

// TestTokenChannelNoLostWakeup stresses the one-wake-per-Drain rule:
// several publishers commit into a subscription's bucket while one waiter
// runs the waiting protocol — drain, check, wait on its channel. Every
// published delta must be drained exactly once, and whenever the waiter is
// about to block with deltas buffered, a wake must be outstanding (blocking
// without one would lose the wakeup). Meant for -race -count=20.
func TestTokenChannelNoLostWakeup(t *testing.T) {
	const publishers, each = 4, 250
	s := New(WithShards(4))
	lead := tuple.Atom("job")
	sub := subscribe(s, []InterestKey{InterestOf(2, lead, true)}, filterFunc(func(d Delta) bool { return d.Asserted }))
	defer sub.Cancel()
	for p := 0; p < publishers; p++ {
		go func() {
			for i := 0; i < each; i++ {
				s.Assert(tuple.Environment, tuple.New(lead, tuple.Int(int64(p*each+i))))
			}
		}()
	}
	seen := make(map[int64]bool, publishers*each)
	for {
		deltas, full := sub.Drain()
		if full {
			t.Fatal("a filtered subscription was marked for a full re-query")
		}
		for _, d := range deltas {
			v, _ := d.Inst.Tuple.Field(1).AsInt()
			if seen[v] {
				t.Fatalf("delta %d drained twice", v)
			}
			seen[v] = true
		}
		if len(seen) == publishers*each {
			break
		}
		sub.mu.Lock()
		buffered, fired := len(sub.deltas), sub.fired
		sub.mu.Unlock()
		if buffered > 0 && !fired {
			t.Fatalf("about to block with %d deltas buffered and no wake outstanding", buffered)
		}
		select {
		case <-sub.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("lost wakeup: %d of %d deltas drained", len(seen), publishers*each)
		}
	}
	if deltas, full := sub.Drain(); full || len(deltas) != 0 || len(sub.Ready()) != 0 {
		t.Errorf("after the last delta: Drain = %d deltas, full=%t, %d tokens; want nothing", len(deltas), full, len(sub.Ready()))
	}
}
