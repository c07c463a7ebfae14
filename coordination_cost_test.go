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

// TestBarrierProgramEvaluations: the 64-way consensus barrier, written in
// SDL and run through the whole stack, costs the consensus gate a handful of
// evaluations — the last arrival's, plus at most the few that race main's
// exit — where a gate that re-evaluates on every event needs one per
// commit, offer and membership change (over a hundred).
func TestBarrierProgramEvaluations(t *testing.T) {
	const k = 64
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
	sys, snap := runProgram(t, b.String())
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
