package txn

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
	"github.com/sdl-lang/sdl/internal/view"
)

// TestApplyAllocatesFixedCosts pins the engine's own share of a mutating
// transaction: what it allocates does not grow with how the one solution was
// found, and a composite of one solution builds no de-duplication map — its
// retract-tagged matches are pairwise distinct by construction — so the ∀
// form of an upsert costs exactly the ∃ form: both append their solutions to
// a pooled buffer.
func TestApplyAllocatesFixedCosts(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s := dataspace.New()
	for k := int64(0); k < 64; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(k), tuple.Int(0)))
	}
	e := New(s)
	upsert := func(quant pattern.Quantifier) Request {
		k := pattern.C(tuple.Int(7))
		return Request{Proc: 1, View: view.Universal(),
			Query:   pattern.Query{Quant: quant, Patterns: []pattern.Pattern{pattern.R(k, pattern.V("v"))}},
			Asserts: []pattern.Pattern{pattern.P(k, pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))))}}
	}
	measure := func(req Request) float64 {
		return testing.AllocsPerRun(200, func() {
			if res, err := e.Immediate(req); err != nil || !res.OK || len(res.Retracted) != 1 || len(res.Asserted) != 1 {
				t.Fatalf("upsert: %+v, err %v", res, err)
			}
		})
	}
	exists, forall := measure(upsert(pattern.Exists)), measure(upsert(pattern.ForAll))
	// Measured 5, every one of them the transaction's own: the grounded
	// tuple, and the public Result built from the pooled answer — the
	// solution's environment (two), Solutions, and the one array Retracted
	// and Asserted are carved from. The solution row and its retract-tagged
	// match live in the answer's pooled table, the footprint keys on the
	// caller's stack, and the store's commit path — pooled journal, latch
	// plan, group-commit slot — allocates nothing
	// (TestSteadyCommitAllocatesNothing in internal/dataspace). Earlier
	// engines measured 6, 22 and 40.
	if max := 5.0; exists > max {
		t.Errorf("∃ upsert: %.0f allocations, want <= %.0f", exists, max)
	}
	if forall != exists {
		t.Errorf("∀ upsert with one solution: %.0f allocations, the ∃ form %.0f: want the same", forall, exists)
	}
}

// TestReleasedAnswerPinsNothingBig: an answer that carried more than
// maxPooledEffects effects, or deduplicated more retractions than that, goes
// back to the pool without its effect arrays and dedup map; a small one keeps
// its arrays, emptied.
func TestReleasedAnswerPinsNothingBig(t *testing.T) {
	const n = 2 * maxPooledEffects
	s := dataspace.New()
	for k := int64(0); k < n; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("item"), tuple.Int(k)))
	}
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("flag")))
	e := New(s)
	run := func(q pattern.Query) *Answer {
		a, err := e.Run(context.Background(), Request{Proc: 1, View: view.Universal(), Query: q}, metrics.TxnImmediate)
		if err != nil || !a.OK() {
			t.Fatalf("%v: ok %v, err %v", q, a != nil && a.OK(), err)
		}
		return a
	}
	// ∀ <item, k>! <flag>! retracts n items and the flag, n times over.
	a := run(pattern.QAll(pattern.R(pattern.C(tuple.Atom("item")), pattern.V("k")), pattern.R(pattern.C(tuple.Atom("flag")))))
	if len(a.Retracted) != n+1 || len(a.seen) != n+1 {
		t.Fatalf("retracted %d (seen %d), want %d", len(a.Retracted), len(a.seen), n+1)
	}
	a.Release()
	if a.Retracted != nil || a.Asserted != nil || a.ground != nil || a.seen != nil {
		t.Errorf("released answer kept caps %d/%d/%d and a seen map of %d", cap(a.Retracted), cap(a.Asserted), cap(a.ground), len(a.seen))
	}
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("item"), tuple.Int(0)), tuple.New(tuple.Atom("item"), tuple.Int(1)))
	a = run(pattern.QAll(pattern.R(pattern.C(tuple.Atom("item")), pattern.V("k"))))
	a.Release()
	if cap(a.Retracted) == 0 || len(a.Retracted) != 0 || a.seen == nil || len(a.seen) != 0 {
		t.Errorf("small answer: Retracted len %d cap %d, seen %v", len(a.Retracted), cap(a.Retracted), a.seen)
	}
}

// TestDelayedWaitAllocates pins what a delayed transaction's wait costs: a
// request that blocks, is woken by a matching commit and then commits
// allocates nothing in steady state. The answer is pooled and owns the
// subscription it re-arms for every wait, the answer itself is the delta
// filter, the commit lands its delta straight in the subscription's buffer
// and Drain hands out one buffer and takes the other back.
func TestDelayedWaitAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s := dataspace.New(dataspace.WithShards(4))
	e := New(s)
	job := tuple.New(tuple.Atom("job"), tuple.Int(1))
	req := Request{Proc: 1, View: view.Universal(),
		Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("job")), pattern.C(tuple.Int(1))))}
	keys := []dataspace.InterestKey{dataspace.InterestOf(2, tuple.Atom("job"), true)}
	insert := func(w dataspace.Writer) error { w.Insert(job, tuple.Environment); return nil }
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("job"), tuple.Int(2))) // keeps the bucket, and its index entries, populated

	start, done := make(chan struct{}, 1), make(chan error, 1)
	go func() {
		for range start {
			a, err := e.Run(context.Background(), req, metrics.TxnDelayed)
			if err == nil {
				if !a.OK() || len(a.Retracted) != 1 {
					t.Errorf("woken wait committed %v with %d retractions", a.OK(), len(a.Retracted))
				}
				a.Release()
			}
			done <- err
		}
	}()
	defer close(start)
	wait := func() {
		failures := e.Stats().Failures
		start <- struct{}{}
		for e.Stats().Failures == failures {
			runtime.Gosched() // until the first evaluation has failed: the waiter is subscribed
		}
		if err := s.UpdateCommuting(tuple.Environment, keys, insert); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		wait() // warm the answer, its subscription and buffers, and the journals
	}
	wakeups := e.Stats().Wakeups
	if got := testing.AllocsPerRun(200, wait); got != 0 {
		t.Errorf("block, wake, commit: %.1f allocations, want 0", got)
	}
	if n := e.Stats().Wakeups - wakeups; n != 201 {
		t.Errorf("%d wakeups over 201 waits, want one each", n)
	}
}
