package sdl

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/lang"
)

// runProgram parses, compiles and runs an SDL program to completion on a
// fresh system and returns its final metrics.
func runProgram(t *testing.T, src string) (*System, MetricsSnapshot) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Options{})
	t.Cleanup(func() { _ = sys.Close() }) // in-memory system: Close has nothing to flush
	if err := compiled.Install(sys.Runtime); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := sys.Runtime.Spawn(lang.MainProcess); err != nil {
		t.Fatal(err)
	}
	if err := sys.Runtime.WaitCtx(ctx); err != nil {
		t.Fatalf("program did not finish: %v", err)
	}
	if errs := sys.Runtime.Errors(); len(errs) > 0 {
		t.Fatalf("process errors: %v", errs)
	}
	return sys, sys.Snapshot()
}

// barrierSource is the k-way consensus barrier in SDL: k workers announce
// themselves, then all run the one consensus statement whose query reads
// every announcement.
func barrierSource(k int) string {
	var b strings.Builder
	b.WriteString("process Worker(id)\nbehavior\n  -> <ready, id>;\n  ")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "<ready, %d>", i)
		if i < k {
			b.WriteString(", ")
		}
	}
	b.WriteString(" @> <passed, id>\nend\nmain\n  ")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "spawn Worker(%d)", i)
		if i < k {
			b.WriteString(", ")
		}
	}
	b.WriteString("\nend\n")
	return b.String()
}

// TestBarrierProgramEvaluations: the 64-way consensus barrier, written in
// SDL and run through the whole stack, costs the consensus gate a handful of
// evaluations — the last arrival's, plus at most the few that race main's
// exit — where a gate that re-evaluates on every event needs one per
// commit, offer and membership change (over a hundred).
func TestBarrierProgramEvaluations(t *testing.T) {
	const k = 64
	sys, snap := runProgram(t, barrierSource(k))
	if fires := sys.Cons.Fires(); fires != 1 {
		t.Fatalf("%d consensus fires, want 1", fires)
	}
	if snap.ConsensusRounds > 4 {
		t.Errorf("%d gate evaluations for one 64-way fire, want <= 4", snap.ConsensusRounds)
	}
	if snap.ConsensusCommunity.Sum != k {
		t.Errorf("fired community of %d, want %d", snap.ConsensusCommunity.Sum, k)
	}
	// Every commit was a worker announcing itself or the composite; none of
	// them found a fully offered community to re-evaluate except the last.
	if snap.ConsensusKicksSuppressed+snap.ConsensusRounds < snap.StoreCommits-1 {
		t.Errorf("%d kicks suppressed + %d evaluations over %d commits: commits are leaving the gate work for nothing",
			snap.ConsensusKicksSuppressed, snap.ConsensusRounds, snap.StoreCommits)
	}
}

// TestSortProgramEvaluations: the paper's §3.2 sort at L=24 through the
// whole stack. Here the count is not exact — a Sort process withdraws its
// offer only when it wakes, so an attempt can find a stale offer whose query
// no longer holds — but every such attempt needs a swap to have staled an
// offer first: evaluations stay below the commit count, where the
// re-evaluate-on-every-event gate ran about two per commit. The
// count-exact version of this guard, with the race taken out, is
// internal/consensus TestSortTerminationEvaluations.
func TestSortProgramEvaluations(t *testing.T) {
	const n = 24
	var b strings.Builder
	b.WriteString(`process Sort(a, b)
import <a, *, *, *>; <b, *, *, *>
export <a, *, *, *>; <b, *, *, *>
behavior
  rep {
    <a, ?n1, ?v1, ?x>!, <b, ?n2, ?v2, ?y>! where ?v1 > ?v2
      -> <a, ?n2, ?v2, ?x>, <b, ?n1, ?v1, ?y>
  | <a, *, ?v1, *>, <b, *, ?v2, *> where ?v1 <= ?v2
      @> exit
  }
end
main
  -> `)
	for i := 1; i <= n; i++ {
		next := fmt.Sprint(i + 1)
		if i == n {
			next = "nil"
		}
		// Descending values: the worst case, n(n-1)/2 swaps.
		fmt.Fprintf(&b, "<%d, n%d, %d, %s>", i, i, 10*(n+1-i), next)
		if i < n {
			b.WriteString(", ")
		}
	}
	b.WriteString(";\n  ")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "spawn Sort(%d, %d)", i, i+1)
		if i < n-1 {
			b.WriteString(", ")
		}
	}
	b.WriteString("\nend\n")
	sys, snap := runProgram(t, b.String())
	if fires := sys.Cons.Fires(); fires != 1 {
		t.Fatalf("%d consensus fires, want 1 (the whole chain)", fires)
	}
	if snap.ConsensusCommunity.Sum != n-1 {
		t.Errorf("fired community of %d, want %d", snap.ConsensusCommunity.Sum, n-1)
	}
	if snap.ConsensusRounds >= snap.StoreCommits {
		t.Errorf("%d gate evaluations over %d commits: the gate is polling", snap.ConsensusRounds, snap.StoreCommits)
	}
	t.Logf("%d evaluations, %d commits", snap.ConsensusRounds, snap.StoreCommits)
}

// BenchmarkBarrierFire runs the compiled k-way barrier program on a fresh
// system per iteration: k spawns and announcements, then one consensus fire
// whose members all issue the same k-pattern query. The fire evaluates that
// query once, so the program's time grows linearly in k.
func BenchmarkBarrierFire(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			prog, err := lang.Parse(barrierSource(k))
			if err != nil {
				b.Fatal(err)
			}
			compiled, err := lang.Compile(prog)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				sys := New(Options{})
				if err := compiled.Install(sys.Runtime); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Runtime.Spawn(lang.MainProcess); err != nil {
					b.Fatal(err)
				}
				sys.Runtime.Wait()
				if fires := sys.Cons.Fires(); fires != 1 {
					b.Fatalf("%d consensus fires, want 1", fires)
				}
				_ = sys.Close()
			}
		})
	}
}

// TestFireSharesIdenticalQueries: the members of the compiled 64-way barrier
// all issue one statement, and its query reads no binding of theirs, so a
// fire evaluates the 64-pattern query once and copies its solution to the
// other 63: the store's field scans deliver about k candidates for the fire,
// not the k² of one evaluation per member. One evaluation is k scans, one
// candidate each once the field index is promoted; the scans before that
// walk the bucket, up to k candidates each, so the bound is 4k.
func TestFireSharesIdenticalQueries(t *testing.T) {
	const k = 64
	sys, snap := runProgram(t, barrierSource(k))
	if fires := sys.Cons.Fires(); fires != 1 {
		t.Fatalf("%d consensus fires, want 1", fires)
	}
	t.Logf("%d tuples visited, %d field scans (%d arity walks), %d gate evaluations", snap.SecondaryTuplesVisited, snap.SecondaryFieldScans, snap.SecondaryArityScans, snap.ConsensusRounds)
	if v := snap.SecondaryTuplesVisited; v > 4*k {
		t.Errorf("the barrier's fire visited %d tuples, want <= %d: one evaluation of its %d patterns", v, 4*k, k)
	}
}
