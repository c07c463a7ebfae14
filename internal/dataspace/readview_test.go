package dataspace

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// TestReadViewsAllocateNothing pins both read paths at zero allocations:
// Snapshot, SnapshotKeys and a consistent SnapshotKeysEpoch hand fn a
// pointer into a pooled view — shard set, reader and snapshot table
// included — and the locked reader's JoinEstimator is a view of the reader,
// not a boxed copy. It also checks the pool's hygiene: a pooled view pins no
// store and no snapshot.
func TestReadViewsAllocateNothing(t *testing.T) {
	const n = 16
	s := New(WithShards(4))
	item := tuple.Atom("item")
	for i := 0; i < n; i++ {
		s.Assert(tuple.Environment, tuple.New(item, tuple.Int(int64(i))))
	}
	keys := []InterestKey{InterestOf(2, item, true)}
	seen, estimated := 0, 0.0
	count := func(tuple.ID, tuple.Tuple) bool { seen++; return true }
	fn := func(r Reader) {
		r.Scan(2, item, true, count)
		if ep, ok := r.(pattern.EstimatorProvider); ok {
			estimated += ep.JoinEstimator().LeadValueEstimate(2, item)
		}
	}
	reads := []struct {
		name string
		read func()
	}{
		{"Snapshot", func() { s.Snapshot(fn) }},
		{"SnapshotKeys", func() { s.SnapshotKeys(keys, fn) }},
		{"SnapshotKeysEpoch", func() {
			if !s.SnapshotKeysEpoch(keys, fn) {
				t.Fatal("epoch read declined or torn on a quiescent store")
			}
		}},
	}
	for i := 0; i <= n; i++ {
		s.SnapshotKeysEpoch(keys, fn) // earn the shard's snapshot
	}
	for _, rd := range reads {
		seen, estimated = 0, 0
		rd.read()
		if seen != n {
			t.Fatalf("%s scanned %d tuples, want %d", rd.name, seen, n)
		}
		if rd.name != "SnapshotKeysEpoch" && estimated != n {
			t.Fatalf("%s estimated the bucket at %v, want %d", rd.name, estimated, n)
		}
	}

	var taken []*readView
	for i := 0; i < 4; i++ {
		v := readViews.Get().(*readView)
		taken = append(taken, v)
		if v.locked.s != nil || v.epoch.s != nil || v.locked.ss != &v.ss || v.epoch.ss != &v.ss {
			t.Errorf("pooled view is not empty: %+v", v)
		}
		for si, snap := range v.epoch.snaps {
			if snap != nil {
				t.Errorf("pooled view pins shard %d's snapshot", si)
			}
		}
	}
	for _, v := range taken {
		readViews.Put(v)
	}

	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	for _, rd := range reads {
		if got := testing.AllocsPerRun(200, rd.read); got != 0 {
			t.Errorf("%s: %.1f allocations per read, want 0", rd.name, got)
		}
	}
}
