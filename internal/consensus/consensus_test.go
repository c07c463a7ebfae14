package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

func newManager(t *testing.T, opts ...dataspace.Option) (*dataspace.Store, *txn.Engine, *Manager) {
	t.Helper()
	s := dataspace.New(opts...)
	e := txn.New(s)
	m := NewManager(e)
	t.Cleanup(m.Close)
	return s, e, m
}

// barrierReq is a trivial always-true consensus transaction (pure
// synchronization, like Sum1's phase barrier).
func barrierReq(pid tuple.ProcessID) txn.Request {
	return txn.Request{
		Proc:  pid,
		View:  view.Universal(),
		Query: pattern.Query{Quant: pattern.Exists},
	}
}

var goTuple = tuple.New(tuple.Atom("go"))

// goReq is a consensus transaction that waits for <go>: it stays pending
// until goTuple is asserted.
func goReq(pid tuple.ProcessID) txn.Request {
	return txn.Request{
		Proc:  pid,
		View:  view.Universal(),
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("go")))),
	}
}

func TestBarrierAllProcessesSynchronize(t *testing.T) {
	s, _, m := newManager(t)
	// Non-empty dataspace so universal imports overlap.
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))

	const n = 5
	for i := 1; i <= n; i++ {
		m.Register(tuple.ProcessID(i), view.Universal(), nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger arrival to exercise partial-readiness states.
			time.Sleep(time.Duration(i) * 5 * time.Millisecond)
			res, err := m.Offer(context.Background(), barrierReq(tuple.ProcessID(i)))
			if err != nil {
				errs <- err
				return
			}
			if !res.OK {
				errs <- errors.New("offer result not OK")
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier never fired")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Fires() != 1 {
		t.Errorf("fires = %d, want 1 (single composite)", m.Fires())
	}
}

func TestConsensusWaitsForWholeSet(t *testing.T) {
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)

	o, err := m.StartOffer(barrierReq(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-o.Done():
		t.Fatal("consensus fired with a member process not offering")
	case <-time.After(50 * time.Millisecond):
	}
	// The second member arrives: now the set is complete.
	res, err := m.Offer(context.Background(), barrierReq(2))
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	select {
	case <-o.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("first offer never resolved")
	}
}

func TestDisjointCommunitiesFireIndependently(t *testing.T) {
	// Two communities with disjoint imports: {1,2} over region a tuples,
	// {3} over region b tuples. Community {1,2} must fire without 3.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment,
		tuple.New(tuple.Atom("a"), tuple.Int(1)),
		tuple.New(tuple.Atom("b"), tuple.Int(2)),
	)
	viewFor := func(tag string) view.View {
		return view.New(
			view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom(tag)), pattern.W()))),
			view.Everything(),
		)
	}
	m.Register(1, viewFor("a"), nil)
	m.Register(2, viewFor("a"), nil)
	m.Register(3, viewFor("b"), nil)

	mkReq := func(pid tuple.ProcessID, tag string) txn.Request {
		return txn.Request{
			Proc:  pid,
			View:  viewFor(tag),
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom(tag)), pattern.W())),
		}
	}
	var wg sync.WaitGroup
	for _, pid := range []tuple.ProcessID{1, 2} {
		wg.Add(1)
		go func(pid tuple.ProcessID) {
			defer wg.Done()
			if res, err := m.Offer(context.Background(), mkReq(pid, "a")); err != nil || !res.OK {
				t.Errorf("pid %d: res=%+v err=%v", pid, res, err)
			}
		}(pid)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("community {1,2} did not fire while 3 was busy")
	}
}

func TestConsensusQueryMustSucceed(t *testing.T) {
	// A member whose query fails blocks its set even when everyone offers.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)

	okReq := barrierReq(1)
	failReq := txn.Request{
		Proc:  2,
		View:  view.Universal(),
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("missing")))),
	}
	o1, err := m.StartOffer(okReq)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := m.StartOffer(failReq)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-o1.Done():
		t.Fatal("fired although member 2's query fails")
	case <-time.After(50 * time.Millisecond):
	}
	// Enabling member 2's query lets the composite fire.
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("missing")))
	for _, o := range []*Offer{o1, o2} {
		select {
		case <-o.Done():
			if res, err := o.Result(); err != nil || !res.OK {
				t.Errorf("res=%+v err=%v", res, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("consensus did not fire after enabling")
		}
	}
}

func TestCompositeEffectRetractionsThenAssertions(t *testing.T) {
	// Two processes each retract their own token and assert a result; the
	// composite applies all retractions before all assertions.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment,
		tuple.New(tuple.Atom("tok"), tuple.Int(1)),
		tuple.New(tuple.Atom("tok"), tuple.Int(2)),
	)
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)

	mkReq := func(pid tuple.ProcessID, n int64) txn.Request {
		return txn.Request{
			Proc:  pid,
			View:  view.Universal(),
			Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("tok")), pattern.C(tuple.Int(n)))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Atom("done")), pattern.C(tuple.Int(n))),
			},
		}
	}
	var wg sync.WaitGroup
	for i := int64(1); i <= 2; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			res, err := m.Offer(context.Background(), mkReq(tuple.ProcessID(i), i))
			if err != nil || !res.OK {
				t.Errorf("res=%+v err=%v", res, err)
				return
			}
			if len(res.Retracted) != 1 || len(res.Asserted) != 1 {
				t.Errorf("per-member effect = %+v", res)
			}
		}(i)
	}
	wg.Wait()
	if m.Fires() != 1 {
		t.Errorf("fires = %d", m.Fires())
	}
	// Dataspace: two done tuples, no tok tuples.
	var toks, dones int
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, tuple.Atom("tok"), true, func(tuple.ID, tuple.Tuple) bool { toks++; return true })
		r.Scan(2, tuple.Atom("done"), true, func(tuple.ID, tuple.Tuple) bool { dones++; return true })
	})
	if toks != 0 || dones != 2 {
		t.Errorf("toks=%d dones=%d", toks, dones)
	}
}

func TestRetractionDistinctAcrossParticipants(t *testing.T) {
	// Both participants want to retract "the" token, but there is only one
	// instance: the composite must not fire on the same instance twice.
	// With a second instance added, it fires.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("tok")))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)

	mkReq := func(pid tuple.ProcessID) txn.Request {
		return txn.Request{
			Proc:  pid,
			View:  view.Universal(),
			Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("tok")))),
		}
	}
	o1, _ := m.StartOffer(mkReq(1))
	o2, _ := m.StartOffer(mkReq(2))
	select {
	case <-o1.Done():
		t.Fatal("fired with a single shared instance")
	case <-o2.Done():
		t.Fatal("fired with a single shared instance")
	case <-time.After(50 * time.Millisecond):
	}
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("tok")))
	for _, o := range []*Offer{o1, o2} {
		select {
		case <-o.Done():
		case <-time.After(2 * time.Second):
			t.Fatal("did not fire after second instance")
		}
	}
	if s.Len() != 0 {
		t.Errorf("store len = %d", s.Len())
	}
}

func TestWithdraw(t *testing.T) {
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)

	o1, err := m.StartOffer(barrierReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !o1.Withdraw() {
		t.Fatal("withdraw before firing should succeed")
	}
	// After withdrawal, the set is not ready even when 2 offers.
	o2, _ := m.StartOffer(barrierReq(2))
	select {
	case <-o2.Done():
		t.Fatal("fired with a withdrawn member")
	case <-time.After(50 * time.Millisecond):
	}
	if !o2.Withdraw() {
		t.Fatal("second withdraw failed")
	}
}

func TestOfferContextCancel(t *testing.T) {
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil) // never offers

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.Offer(ctx, barrierReq(1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Offer did not observe cancellation")
	}
}

func TestUnregisteredOfferRejected(t *testing.T) {
	_, _, m := newManager(t)
	if _, err := m.StartOffer(barrierReq(9)); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("err = %v", err)
	}
}

func TestClosedManager(t *testing.T) {
	s := dataspace.New()
	e := txn.New(s)
	m := NewManager(e)
	m.Register(1, view.Universal(), nil)
	// A query nothing satisfies keeps the offer pending until Close: a
	// barrier alone in an empty dataspace could fire first.
	o, err := m.StartOffer(txn.Request{Proc: 1, View: view.Universal(),
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("never"))))})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	select {
	case <-o.Done():
		if _, err := o.Result(); !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending offer not resolved on Close")
	}
	if _, err := m.StartOffer(barrierReq(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("offer after close: err = %v", err)
	}
}

func TestEmptyDataspaceSingletonSets(t *testing.T) {
	// With an empty dataspace no imports overlap: every process is its own
	// consensus set and a sole offer fires alone.
	_, _, m := newManager(t)
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil) // not offering; different set

	res, err := m.Offer(context.Background(), barrierReq(1))
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestUnregisterUnblocksSet(t *testing.T) {
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)

	o, err := m.StartOffer(barrierReq(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-o.Done():
		t.Fatal("fired while member 2 was registered and idle")
	case <-time.After(50 * time.Millisecond):
	}
	// Member 2 terminates: the set shrinks to {1} and fires.
	m.Unregister(2)
	select {
	case <-o.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("did not fire after unregister")
	}
}

// The paper's distributed sort termination: each Sort(i, i+1) process
// offers a consensus transaction asserting that its adjacent pair is
// ordered. When the whole chain is ordered, all exit together.
func TestSortStyleTerminationConsensus(t *testing.T) {
	s, e, m := newManager(t)
	// Chain of nodes <id, value, next>: initially out of order.
	s.Assert(tuple.Environment,
		tuple.New(tuple.Int(1), tuple.Int(30), tuple.Int(2)),
		tuple.New(tuple.Int(2), tuple.Int(10), tuple.Int(3)),
		tuple.New(tuple.Int(3), tuple.Int(20), tuple.Atom("nil")),
	)
	nodeView := func(a, b int64) view.View {
		return view.New(view.Union(
			view.Pat(pattern.P(pattern.C(tuple.Int(a)), pattern.W(), pattern.W())),
			view.Pat(pattern.P(pattern.C(tuple.Int(b)), pattern.W(), pattern.W())),
		), view.Everything())
	}
	orderedQuery := func(a, b int64) pattern.Query {
		return pattern.Q(
			pattern.P(pattern.C(tuple.Int(a)), pattern.V("v1"), pattern.W()),
			pattern.P(pattern.C(tuple.Int(b)), pattern.V("v2"), pattern.W()),
		).Where(expr.Le(expr.V("v1"), expr.V("v2")))
	}
	swap := func(pid tuple.ProcessID, a, b int64) bool {
		res, err := e.Immediate(txn.Request{
			Proc: pid,
			View: nodeView(a, b),
			Query: pattern.Q(
				pattern.R(pattern.C(tuple.Int(a)), pattern.V("v1"), pattern.V("n1")),
				pattern.R(pattern.C(tuple.Int(b)), pattern.V("v2"), pattern.V("n2")),
			).Where(expr.Gt(expr.V("v1"), expr.V("v2"))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Int(a)), pattern.V("v2"), pattern.V("n1")),
				pattern.P(pattern.C(tuple.Int(b)), pattern.V("v1"), pattern.V("n2")),
			},
		})
		if err != nil {
			t.Error(err)
		}
		return res.OK
	}

	pairs := [][2]int64{{1, 2}, {2, 3}}
	// The whole society registers before any member runs, as a spawn list
	// does: a member that offered while it was registered alone would form
	// a consensus set of its own, fire alone and leave the other waiting.
	for i, pr := range pairs {
		m.Register(tuple.ProcessID(i+1), nodeView(pr[0], pr[1]), nil)
	}
	var wg sync.WaitGroup
	for i, pr := range pairs {
		pid := tuple.ProcessID(i + 1)
		wg.Add(1)
		go func(pid tuple.ProcessID, a, b int64) {
			defer wg.Done()
			for {
				if swap(pid, a, b) {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				res, err := m.Offer(ctx, txn.Request{
					Proc:  pid,
					View:  nodeView(a, b),
					Query: orderedQuery(a, b),
				})
				cancel()
				if err != nil {
					continue // timed out (a neighbour swapped); retry loop
				}
				if res.OK {
					return // consensus: the whole chain is sorted
				}
			}
		}(pid, pr[0], pr[1])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sort did not terminate")
	}
	// Verify sortedness.
	vals := map[int64]int64{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			id, _ := inst.Tuple.Field(0).AsInt()
			v, _ := inst.Tuple.Field(1).AsInt()
			vals[id] = v
			return true
		})
	})
	if !(vals[1] <= vals[2] && vals[2] <= vals[3]) {
		t.Errorf("not sorted: %v", vals)
	}
}

func TestRepeatedBarrierRounds(t *testing.T) {
	// The same society synchronizes repeatedly (phase-barrier churn):
	// every round must fire exactly once, in order.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	const procs, rounds = 6, 15
	for i := 1; i <= procs; i++ {
		m.Register(tuple.ProcessID(i), view.Universal(), nil)
	}
	var wg sync.WaitGroup
	for i := 1; i <= procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := m.Offer(context.Background(), barrierReq(tuple.ProcessID(i)))
				if err != nil || !res.OK {
					t.Errorf("proc %d round %d: %v %v", i, r, res.OK, err)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("barrier churn stalled")
	}
	if m.Fires() != rounds {
		t.Errorf("fires = %d, want %d", m.Fires(), rounds)
	}
}

func TestOfferAlternativesDirect(t *testing.T) {
	// One process offers two alternatives; the first satisfiable one is
	// chosen at firing time.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("b")))
	m.Register(1, view.Universal(), nil)

	o, err := m.StartOfferAlts([]txn.Request{
		{Proc: 1, View: view.Universal(),
			Query:   pattern.Q(pattern.P(pattern.C(tuple.Atom("a")))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("chose_a")))}},
		{Proc: 1, View: view.Universal(),
			Query:   pattern.Q(pattern.R(pattern.C(tuple.Atom("b")))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("chose_b")))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-o.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("alternatives offer never fired")
	}
	res, err := o.Result()
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if o.Chosen() != 1 {
		t.Errorf("chosen = %d, want 1 (only b satisfiable)", o.Chosen())
	}
	var chose string
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(1, tuple.Atom("chose_b"), true, func(tuple.ID, tuple.Tuple) bool {
			chose = "b"
			return false
		})
		r.Scan(1, tuple.Atom("chose_a"), true, func(tuple.ID, tuple.Tuple) bool {
			chose = "a"
			return false
		})
	})
	if chose != "b" {
		t.Errorf("effect = %q", chose)
	}
}

func TestOfferAltsValidation(t *testing.T) {
	_, _, m := newManager(t)
	m.Register(1, view.Universal(), nil)
	if _, err := m.StartOfferAlts(nil); err == nil {
		t.Error("empty alternatives accepted")
	}
	if _, err := m.StartOfferAlts([]txn.Request{
		{Proc: 1, View: view.Universal(), Query: pattern.Query{Quant: pattern.Exists}},
		{Proc: 2, View: view.Universal(), Query: pattern.Query{Quant: pattern.Exists}},
	}); err == nil {
		t.Error("mixed-process alternatives accepted")
	}
}

func BenchmarkBarrierRound(b *testing.B) {
	s := dataspace.New()
	e := txn.New(s)
	m := NewManager(e)
	defer m.Close()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	const procs = 8
	for i := 1; i <= procs; i++ {
		m.Register(tuple.ProcessID(i), view.Universal(), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for p := 1; p <= procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				_, _ = m.Offer(context.Background(), barrierReq(tuple.ProcessID(p)))
			}(p)
		}
		wg.Wait()
	}
}

// BenchmarkCommitBesideUnboundedMember times commits while a member whose
// import is unbounded (its pattern leaves the lead open) has an offer
// pending that none of them satisfies. Each such commit invalidates the
// partition, and its committer recomputes it before the attempt rules the
// offer out. The store holds size <bulk, i, 0> tuples; each commit swaps
// the committer's probe tuple, which the unbounded import admits, for a new
// one. Alone, the unbounded member overlaps nobody; beside a second member
// whose complete import is the bulk bucket, the recomputation probes that
// bucket for a tuple the unbounded import admits (it holds none).
func BenchmarkCommitBesideUnboundedMember(b *testing.B) {
	fill, bulk := tuple.Atom("fill"), tuple.Atom("bulk")
	for _, size := range []int{256, 4096} {
		for _, beside := range []bool{false, true} {
			b.Run(fmt.Sprintf("size=%d/beside=%t", size, beside), func(b *testing.B) {
				s := dataspace.New(dataspace.WithShards(4))
				m := NewManager(txn.New(s))
				defer m.Close()
				for i := 0; i < size; i++ {
					s.Assert(tuple.Environment, tuple.New(bulk, tuple.Int(int64(i)), tuple.Int(0)))
				}
				v := view.New(view.Union(view.Pat(pattern.P(pattern.W(), pattern.C(fill), pattern.W()))), view.Everything())
				m.Register(1, v, nil)
				if beside {
					m.Register(2, view.New(view.Union(view.Pat(pattern.P(pattern.C(bulk), pattern.W(), pattern.W()))), view.Everything()), nil)
				}
				if _, err := m.StartOffer(txn.Request{Proc: 1, View: v, Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("go"))))}); err != nil {
					b.Fatal(err)
				}
				var prev tuple.ID
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := s.Update(tuple.Environment, func(w dataspace.Writer) error {
						if prev != 0 {
							if err := w.Delete(prev); err != nil {
								return err
							}
						}
						prev = w.Insert(tuple.New(tuple.Int(int64(-i)), fill, tuple.Int(1)), tuple.Environment)
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestBoundedImportCacheInvalidation(t *testing.T) {
	// Two members whose bounded views cover the <g, *> bucket. With an
	// empty dataspace their imports are empty (cached as such): disjoint
	// singleton sets, but their queries fail, so nothing fires. Asserting
	// <g, ready> touches their bucket: the caches must be invalidated so
	// the gate sees the overlap and fires ONE composite for both —
	// a stale cache would fire two singletons (or none).
	s, _, m := newManager(t)
	gView := view.New(
		view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom("g")), pattern.W()))),
		view.Everything(),
	)
	m.Register(1, gView, nil)
	m.Register(2, gView, nil)
	req := func(pid tuple.ProcessID) txn.Request {
		return txn.Request{
			Proc:  pid,
			View:  gView,
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("g")), pattern.C(tuple.Atom("ready")))),
		}
	}
	o1, err := m.StartOffer(req(1))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := m.StartOffer(req(2))
	if err != nil {
		t.Fatal(err)
	}
	// Give the gate a chance to evaluate (and cache empty imports).
	time.Sleep(30 * time.Millisecond)
	select {
	case <-o1.Done():
		t.Fatal("fired with failing query")
	default:
	}
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("g"), tuple.Atom("ready")))
	for _, o := range []*Offer{o1, o2} {
		select {
		case <-o.Done():
			if res, err := o.Result(); err != nil || !res.OK {
				t.Fatalf("res=%+v err=%v", res, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stale import cache: consensus never fired")
		}
	}
	if m.Fires() != 1 {
		t.Errorf("fires = %d, want 1 (one community after overlap appears)", m.Fires())
	}
}

func TestUnrelatedCommitsDoNotBreakBoundedConsensus(t *testing.T) {
	// Noise in other buckets must neither fire nor wedge a bounded-view
	// community.
	s, _, m := newManager(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("g"), tuple.Int(1)))
	gView := view.New(
		view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom("g")), pattern.W()))),
		view.Everything(),
	)
	m.Register(1, gView, nil)
	m.Register(2, gView, nil)
	o1, _ := m.StartOffer(txn.Request{Proc: 1, View: gView,
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("g")), pattern.C(tuple.Atom("go"))))})
	for i := 0; i < 50; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("noise"), tuple.Int(int64(i))))
	}
	select {
	case <-o1.Done():
		t.Fatal("noise fired the consensus")
	case <-time.After(30 * time.Millisecond):
	}
	o2, _ := m.StartOffer(txn.Request{Proc: 2, View: gView,
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("g")), pattern.C(tuple.Atom("go"))))})
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("g"), tuple.Atom("go")))
	for _, o := range []*Offer{o1, o2} {
		select {
		case <-o.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("consensus wedged after noise")
		}
	}
}
