package sdl

import (
	"context"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/lang"
)

// An SDL process with import/export clauses, compiled by plain
// lang.Compile, is planned at run time like any other: the compiler builds
// its view from pure pattern matchers, so transactions whose leads come
// from its parameters commit on the key-latch path, and its delayed guard
// is woken only by the asserted tuple that matches it (a delta hit, never a
// full re-query).
func TestRestrictedViewPlansAtRunTime(t *testing.T) {
	prog, err := lang.Parse(`
process Worker(k)
import <k, *>; <go, k>
export <k, *>; <done, k>
behavior
  exists v: <k, ?v>! -> <k, ?v + 1>;
  exists v: <k, ?v>! -> <k, ?v + 1>;
  <go, k> => <done, k>
end
`)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Options{Shards: 4})
	defer sys.Close()
	if err := compiled.Install(sys.Runtime); err != nil {
		t.Fatal(err)
	}
	sys.Store.Assert(Environment, NewTuple(Int(1), Int(0)))
	if _, err := sys.SpawnVals("Worker", Int(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for sys.Snapshot().Txn["delayed"].Blocks == 0 {
		if ctx.Err() != nil {
			t.Fatal("the delayed guard never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// (a) Both increments are planned from the parameter k and commit under
	// key latches; the environment's seed is the only coarse commit.
	parked := sys.Snapshot()
	if parked.KeyCommits != 2 || parked.CoarseCommits != 1 {
		t.Errorf("increments: %d key-latched, %d coarse commits, want 2 and 1 (the seed)",
			parked.KeyCommits, parked.CoarseCommits)
	}

	// (b) The parked guard is delta-filtered: the one commit that asserts
	// <go, 1> wakes it with that tuple in hand.
	sys.Store.Assert(Environment, NewTuple(Atom("go"), Int(1)))
	if err := sys.Runtime.WaitCtx(ctx); err != nil {
		t.Fatalf("worker did not finish: %v", err)
	}
	if errs := sys.Runtime.Errors(); len(errs) > 0 {
		t.Fatalf("process errors: %v", errs)
	}
	done := sys.Snapshot()
	if done.ReactiveEvals == 0 || done.ReactiveHits != done.ReactiveEvals {
		t.Errorf("guard wakeups: %d evaluations, %d delta hits, want every evaluation a hit",
			done.ReactiveEvals, done.ReactiveHits)
	}
	if done.KeyCommits != 3 || done.CoarseCommits != 2 {
		t.Errorf("after the guard: %d key-latched, %d coarse commits, want 3 and 2",
			done.KeyCommits, done.CoarseCommits)
	}
	if got := sys.CollectInt(Int(1)); len(got) != 1 || got[0] != 2 {
		t.Errorf("counter <1, *> holds %v, want [2]", got)
	}
}
