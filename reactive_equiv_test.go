package sdl

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/refmodel"
)

// Delta-driven wakeups are a pure scheduling optimization: a confluent
// workload must reach its one closed-form final content multiset however
// the wakeups interleave. The workload mixes delta-filtered waiters, whose
// irrelevant-commit wakeups the publisher suppresses, and retract-pattern
// consumers that race for the same tokens, so a consumer woken by a token
// another one takes blocks again — under churn that lands in the waiters'
// own index buckets without ever matching them.
func TestReactiveWakeupsConfluent(t *testing.T) {
	const (
		waiters = 6
		tokens  = 8
		noise   = 5
	)
	// The noise and release tuples survive, every waiter acked, and every
	// token was consumed and converted.
	var want refmodel.Model
	for i := 0; i < waiters; i++ {
		for k := 0; k < noise; k++ {
			want.Assert(Environment, NewTuple(Atom("job"), Int(int64(i)), Int(int64(-1-k))))
		}
		want.Assert(Environment, NewTuple(Atom("job"), Int(int64(i)), Int(1)))
		want.Assert(Environment, NewTuple(Atom("ack"), Int(int64(i))))
	}
	for v := 0; v < tokens; v++ {
		want.Assert(Environment, NewTuple(Atom("did"), Int(int64(v))))
	}

	run := func(t *testing.T, shards int) {
		sys := New(Options{Shards: shards})
		defer sys.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		var wg sync.WaitGroup
		// Delta-safe waiters: block on the constant tuple <job, i, 1> and
		// acknowledge it. The guard is pure-positive with a known lead, so
		// it compiles to a delta filter.
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := sys.Delayed(ctx, Request{
					Proc:    ProcessID(i + 1),
					View:    Universal(),
					Query:   Q(P(C(Atom("job")), C(Int(int64(i))), C(Int(1)))),
					Asserts: []Pattern{P(C(Atom("ack")), C(Int(int64(i))))},
				})
				if err != nil || !res.OK {
					t.Errorf("waiter %d: res=%+v err=%v", i, res, err)
				}
			}(i)
		}
		// Retract consumers: each consumes one <tok, v> and converts it.
		// A retract tag keeps the guard delta-safe: only an asserted
		// token can wake a consumer.
		for i := 0; i < tokens; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := sys.Delayed(ctx, Request{
					Proc:    ProcessID(100 + i),
					View:    Universal(),
					Query:   Q(R(C(Atom("tok")), V("v"))),
					Asserts: []Pattern{P(C(Atom("did")), V("v"))},
				})
				if err != nil || !res.OK {
					t.Errorf("consumer %d: res=%+v err=%v", i, res, err)
				}
			}(i)
		}
		// Producer: noise first — same <job, ...> buckets the waiters watch,
		// but never matching their guards — then the releases and tokens.
		for i := 0; i < waiters; i++ {
			for k := 0; k < noise; k++ {
				sys.Store.Assert(Environment, NewTuple(Atom("job"), Int(int64(i)), Int(int64(-1-k))))
			}
		}
		for i := 0; i < waiters; i++ {
			sys.Store.Assert(Environment, NewTuple(Atom("job"), Int(int64(i)), Int(1)))
		}
		for i := 0; i < tokens; i++ {
			sys.Store.Assert(Environment, NewTuple(Atom("tok"), Int(int64(i))))
		}
		wg.Wait()

		if !refmodel.SameContent(&want, sys.Store) {
			t.Errorf("final content (%d tuples) differs from the closed form's %d tuples",
				sys.Store.Len(), want.Len())
		}
		snap := sys.Snapshot()
		if got := snap.ReactiveHits + snap.ReactiveFallbacks; got != snap.ReactiveEvals {
			t.Errorf("reactive evals %d != hits %d + fallbacks %d",
				snap.ReactiveEvals, snap.ReactiveHits, snap.ReactiveFallbacks)
		}
		if snap.ReactiveSuppressed > snap.ReactiveSignals {
			t.Errorf("reactive suppressed %d > signals %d", snap.ReactiveSuppressed, snap.ReactiveSignals)
		}
		if blocks := snap.Txn["delayed"].Blocks; snap.ReactiveEvals != blocks {
			t.Errorf("reactive evals %d != delayed blocks %d", snap.ReactiveEvals, blocks)
		}
		if snap.ReactiveSubscriptions != 0 {
			t.Errorf("%d subscriptions still live after every waiter returned", snap.ReactiveSubscriptions)
		}
	}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { run(t, shards) })
	}
}

// TestFanoutWakeupCost pins what a commit costs the fan-out shape at the
// public API: P delayed transactions blocked in ONE index bucket, each on
// its own <job, i, 1>, read or retract-tagged. Their subscriptions are filed
// under (field 1 = i), so a noise commit into the bucket offers its tuple to
// at most 2 of them and the releasing commit's P tuples to at most 2P — not
// to all P and P². ReactiveSignals counts the subscriptions a commit offered
// deltas to.
func TestFanoutWakeupCost(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query Query
	}{
		{"P=%d", Q(P(C(Atom("job")), V("i"), C(Int(1))))},
		{"P=%d-retract", Q(R(C(Atom("job")), V("i"), C(Int(1))))},
	} {
		for _, p := range []int{64, 128, 256} {
			t.Run(fmt.Sprintf(tc.name, p), func(t *testing.T) { fanoutWakeupCost(t, p, tc.query) })
		}
	}
}

func fanoutWakeupCost(t *testing.T, p int, query Query) {
	sys := New(Options{})
	defer sys.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.Delayed(ctx, Request{
				Proc:  ProcessID(i + 1),
				View:  Universal(),
				Env:   Env{"i": Int(int64(i))},
				Query: query,
			})
			if err != nil || !res.OK {
				t.Errorf("waiter %d: res=%+v err=%v", i, res, err)
			}
		}(i)
	}
	for sys.Snapshot().ReactiveSubscriptions < int64(p) || sys.Snapshot().Txn["delayed"].Blocks < uint64(p) {
		time.Sleep(time.Millisecond)
	}
	signals := func() uint64 { return sys.Snapshot().ReactiveSignals }
	for k := 0; k < 8; k++ {
		before := signals()
		sys.Store.Assert(Environment, NewTuple(Atom("job"), Int(int64(p+k)), Int(0)))
		if got := signals() - before; got > 2 {
			t.Errorf("noise commit %d offered its tuple to %d subscriptions, want <= 2", k, got)
		}
	}
	release := make([]Tuple, p)
	for i := range release {
		release[i] = NewTuple(Atom("job"), Int(int64(i)), Int(1))
	}
	before := signals()
	sys.Store.Assert(Environment, release...)
	if got := signals() - before; got > uint64(2*p) {
		t.Errorf("the releasing commit offered deltas to %d subscriptions, want <= %d", got, 2*p)
	}
	wg.Wait()
	// Every waiter wakes once, on its own tuple, and no commit meets a
	// filter that rejects it: a retracting waiter's own commit, which
	// retracts the tuple its filter is indexed on, skips the waiter's
	// subscription, which the waiter cancels right after.
	snap := sys.Snapshot()
	if snap.ReactiveHits != uint64(p) || snap.ReactiveSuppressed != 0 {
		t.Errorf("%d delta hits and %d suppressed candidates, want %d and 0", snap.ReactiveHits, snap.ReactiveSuppressed, p)
	}
}
