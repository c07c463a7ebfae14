package sdl

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// exclusive sums the acquisitions only a mutating commit should make:
// exclusive shard locks (shard-mode intent+mu, group-commit and direct
// publication), key latches, and the store commits they publish.
func exclusive(s MetricsSnapshot) uint64 {
	_, writes := s.ShardLockTotals()
	return writes + s.KeyLockTotal() + s.StoreCommits
}

// A statically read-only transaction takes no exclusive lock, whatever the
// shard count, the shape of its footprint or the view it reads through —
// and a delayed read-only guard adds none to those of the commit that
// releases it.
func TestReadOnlyTakesNoExclusiveLock(t *testing.T) {
	ctr, rec, link := C(Atom("ctr")), C(Atom("rec")), C(Atom("link"))
	ctrOnly := Union(Pat(P(ctr, W())))
	impure := Union(Dyn(2, func(Reader, Env, Tuple) bool { return true }))
	cases := []struct {
		name string
		req  Request
		want int // solutions; 0 = the query fails
	}{
		{"planned point read", Request{View: Universal(), Query: Q(P(ctr, V("n")))}, 1},
		{"unplanned join", Request{View: Universal(),
			Query: QAll(P(C(Int(1)), link, V("g")), P(V("y"), rec, V("g")))}, 8},
		{"forall group fetch", Request{View: Universal(), Query: QAll(P(V("x"), rec, C(Int(2))))}, 8},
		{"failing query", Request{View: Universal(), Query: Q(P(C(Atom("absent")), V("n")))}, 0},
		{"failing unplanned query", Request{View: Universal(), Query: Q(P(V("x"), rec, C(Int(99))))}, 0},
		{"plannable restricted view", Request{View: NewView(ctrOnly, ctrOnly), Query: Q(P(ctr, V("n")))}, 1},
		{"impure-matcher view", Request{View: NewView(impure, Everything()), Query: Q(P(ctr, V("n")))}, 1},
	}
	for _, name := range stableIDs {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/%d", name, shards), func(t *testing.T) {
				sys := New(Options{Shards: shards})
				defer sys.Close()
				sys.Store.Assert(Environment, NewTuple(Atom("ctr"), Int(7)))
				for i := 0; i < 32; i++ {
					sys.Store.Assert(Environment, NewTuple(Int(int64(i)), Atom("rec"), Int(int64(i%4))))
				}
				for g := 0; g < 4; g++ {
					sys.Store.Assert(Environment, NewTuple(Int(int64(g)), Atom("link"), Int(int64(g))))
				}
				const repeats = 4 // enough scans to promote the group fetch's field index
				for _, c := range cases {
					c.req.Proc = 1
					before := sys.Snapshot()
					for i := 0; i < repeats; i++ {
						res, err := sys.Immediate(c.req)
						if err != nil || res.OK != (c.want > 0) || len(res.Solutions) != c.want {
							t.Fatalf("%s: ok=%v with %d solutions, err=%v; want %d solutions",
								c.name, res.OK, len(res.Solutions), err, c.want)
						}
					}
					after := sys.Snapshot()
					if d := exclusive(after) - exclusive(before); d != 0 {
						t.Errorf("%s: %d exclusive acquisitions over %d reads, want 0", c.name, d, repeats)
					}
					if d := after.SharedReads - before.SharedReads; d != repeats {
						t.Errorf("%s: %d of %d executions took the shared read path", c.name, d, repeats)
					}
				}
				if sys.Snapshot().SecondaryIndexedScans == 0 {
					t.Error("the group fetch never read through the secondary index")
				}

				// A delayed read-only guard, parked, then released by one
				// commit: the phase costs exactly what the same commit costs
				// with nobody waiting.
				done := make(chan error, 1)
				commit := func(tup Tuple, guarded bool) uint64 {
					before := sys.Snapshot()
					sys.Store.Assert(Environment, tup)
					if guarded {
						if err := <-done; err != nil {
							t.Fatalf("delayed guard: %v", err)
						}
					}
					return exclusive(sys.Snapshot()) - exclusive(before)
				}
				alone := commit(NewTuple(Atom("idle"), Int(0)), false)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				go func() {
					res, err := sys.Delayed(ctx, Request{Proc: 2, View: Universal(),
						Query: Q(P(C(Atom("job")), V("v")))})
					if err == nil && !res.OK {
						err = fmt.Errorf("delayed guard returned without success")
					}
					done <- err
				}()
				for sys.Snapshot().Txn["delayed"].Blocks == 0 {
					if ctx.Err() != nil {
						t.Fatal("delayed guard never parked")
					}
					time.Sleep(time.Millisecond)
				}
				if withGuard := commit(NewTuple(Atom("job"), Int(1)), true); withGuard != alone {
					t.Errorf("releasing a delayed read-only guard took %d exclusive acquisitions, the commit alone takes %d",
						withGuard, alone)
				}
			})
		}
	}
}

// Readers share the read path: a reader parked in the middle of its
// evaluation — here inside a dynamic import matcher — must not hold up
// another reader of the same shards.
func TestParkedReaderDoesNotBlockReaders(t *testing.T) {
	for _, name := range stableIDs {
		t.Run(name, func(t *testing.T) {
			sys := New(Options{Shards: 4})
			defer sys.Close()
			sys.Store.Assert(Environment, NewTuple(Atom("ctr"), Int(7)))

			entered, release := make(chan struct{}), make(chan struct{})
			first := true
			parking := Union(Dyn(2, func(Reader, Env, Tuple) bool {
				if first { // only reader A evaluates through this matcher
					first = false
					close(entered)
					<-release
				}
				return true
			}))
			query := Q(P(C(Atom("ctr")), V("n")))
			aDone := make(chan error, 1)
			go func() {
				res, err := sys.Immediate(Request{Proc: 1, View: NewView(parking, Everything()), Query: query})
				if err == nil && !res.OK {
					err = fmt.Errorf("parked reader's query failed")
				}
				aDone <- err
			}()
			<-entered

			// Reader B, once over the same bucket and once over every shard.
			bDone := make(chan error, 1)
			go func() {
				for _, q := range []Query{query, Q(P(V("k"), V("n")))} {
					res, err := sys.Immediate(Request{Proc: 2, View: Universal(), Query: q})
					if err == nil && !res.OK {
						err = fmt.Errorf("second reader's query failed")
					}
					if err != nil {
						bDone <- err
						return
					}
				}
				bDone <- nil
			}()
			select {
			case err := <-bDone:
				if err != nil {
					t.Error(err)
				}
				close(release)
			case <-time.After(5 * time.Second):
				t.Error("a reader parked inside its evaluation blocked a second reader of the same shards")
				close(release)
				<-bDone
			}
			if err := <-aDone; err != nil {
				t.Error(err)
			}
		})
	}
}
