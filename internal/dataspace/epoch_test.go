package dataspace

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// An epoch snapshot copies its whole shard, so it is rebuilt only once the
// reads that found it stale have earned the copy — one read per tuple the
// shard holds — and every commit to the shard restarts the count. Until
// then the read is declined without running, for the caller to take the
// shared-lock path.
func TestEpochRebuildIsEarned(t *testing.T) {
	const n = 8
	s := New(WithShards(1))
	item := tuple.Atom("item")
	for i := 0; i < n; i++ {
		s.Assert(tuple.Environment, tuple.New(item, tuple.Int(int64(i))))
	}
	keys := []InterestKey{{Arity: 2, Lead: item, LeadKnown: true}}
	count := func() (seen int, ok bool) {
		ok = s.SnapshotKeysEpoch(keys, func(r Reader) {
			r.Scan(2, item, true, func(tuple.ID, tuple.Tuple) bool { seen++; return true })
		})
		return seen, ok
	}
	expect := func(tuples int) {
		t.Helper()
		for i := 1; i < tuples; i++ {
			if seen, ok := count(); ok || seen != 0 {
				t.Fatalf("stale read %d of a %d-tuple shard: ok=%v after scanning %d tuples, want it declined unrun",
					i, tuples, ok, seen)
			}
		}
		for i := 0; i < 3; i++ {
			if seen, ok := count(); !ok || seen != tuples {
				t.Fatalf("earned read %d: ok=%v with %d tuples, want %d", i, ok, seen, tuples)
			}
		}
	}
	expect(n)
	if got := s.Metrics().Snapshot(); got.EpochRebuilds != 1 || got.EpochReads != 3 || got.EpochFallbacks != 0 {
		t.Errorf("after the first phase: %d rebuilds, %d epoch reads, %d torn; want 1, 3, 0",
			got.EpochRebuilds, got.EpochReads, got.EpochFallbacks)
	}
	s.Assert(tuple.Environment, tuple.New(item, tuple.Int(n)))
	expect(n + 1)
	if got := s.Metrics().Snapshot().EpochRebuilds; got != 2 {
		t.Errorf("%d rebuilds after one commit and a second earned phase, want 2", got)
	}
}

// A commit to a footprint shard while an epoch read evaluates tears it: the
// read reports false and counts a fallback.
func TestEpochReadTornByCommit(t *testing.T) {
	s := New(WithShards(4))
	item := tuple.Atom("item")
	s.Assert(tuple.Environment, tuple.New(item, tuple.Int(0)))
	keys := []InterestKey{{Arity: 2, Lead: item, LeadKnown: true}}
	if !s.SnapshotKeysEpoch(keys, func(Reader) {}) {
		t.Fatal("quiescent epoch read of a one-tuple shard was not served")
	}
	if s.SnapshotKeysEpoch(keys, func(Reader) { s.Assert(tuple.Environment, tuple.New(item, tuple.Int(1))) }) {
		t.Error("epoch read validated although its shard was written during evaluation")
	}
	if got := s.Metrics().Snapshot().EpochFallbacks; got != 1 {
		t.Errorf("%d epoch fallbacks, want 1", got)
	}
}
