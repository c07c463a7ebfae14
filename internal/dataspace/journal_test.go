package dataspace

import (
	"errors"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// leadOnShard returns an integer lead whose arity-2 bucket lives on shard si,
// different from every lead in avoid.
func leadOnShard(t *testing.T, s *Store, si uint32, avoid ...tuple.Value) tuple.Value {
	t.Helper()
	for i := 0; i < 1000; i++ {
		lead := tuple.Int(int64(i))
		if s.shardIndex(indexKey{arity: 2, lead: canonLead(lead)}) != si {
			continue
		}
		fresh := true
		for _, a := range avoid {
			fresh = fresh && !a.Equal(lead)
		}
		if fresh {
			return lead
		}
	}
	t.Fatalf("no lead on shard %d", si)
	return tuple.Value{}
}

// TestSteadyCommitAllocatesNothing pins the store's commit path at zero
// allocations in the steady state: a retract+insert — the tuple built
// outside the measured loop, the bucket already populated — costs the store
// nothing on any rung. The journal (effects, deleted-ID set, latch plan,
// group-commit slot and done channel) comes from a pool, the latch plan
// sorts in place, the group-commit queue is double-buffered, and the record
// lent to hooks and the durability sink is a view of the journal. The
// insert refills the slab slot the retract freed — the key path applies
// its buffered delete first, the shard-mode writer deletes before it
// inserts — so the slab does not grow either.
func TestSteadyCommitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s := New(WithShards(4))
	var seen int
	s.OnCommit(func(rec CommitRecord) { seen += len(rec.Inserted) + len(rec.Deleted) })
	a := leadOnShard(t, s, 0)
	b := leadOnShard(t, s, 0, a) // a's shard: one-shard footprint, group commit
	c := leadOnShard(t, s, 1)    // another shard: two-shard footprint, direct commit
	key := func(lead tuple.Value) InterestKey { return InterestOf(2, lead, true) }

	for _, tc := range []struct {
		name   string
		commit func(fn func(Writer) error) error
	}{
		{"key-latch/group-commit", func(fn func(Writer) error) error {
			return s.UpdateCommuting(1, []InterestKey{key(a), key(b)}, fn)
		}},
		{"key-latch/direct-commit", func(fn func(Writer) error) error {
			return s.UpdateCommuting(1, []InterestKey{key(a), key(c)}, fn)
		}},
		{"shard-locked/UpdateKeys", func(fn func(Writer) error) error {
			return s.UpdateKeys(1, []InterestKey{key(a)}, fn)
		}},
		{"shard-locked/Update", func(fn func(Writer) error) error {
			return s.Update(1, fn)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tup := tuple.New(a, tuple.Int(1))
			ids := s.Assert(1, tup, tup) // the second keeps the bucket populated
			cur := ids[0]
			fn := func(w Writer) error {
				if err := w.Delete(cur); err != nil {
					return err
				}
				cur = w.Insert(tup, 1)
				return nil
			}
			before, slots := seen, len(s.shards[0].slab.slots)
			if n := testing.AllocsPerRun(200, func() {
				if err := tc.commit(fn); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("retract+insert: %.1f allocations per commit, want 0", n)
			}
			if got := len(s.shards[0].slab.slots); got != slots {
				t.Errorf("retract+insert grew the slab from %d to %d slots", slots, got)
			}
			if got := seen - before; got != 2*201 {
				t.Errorf("hooks saw %d effects over 201 commits, want %d", got, 2*201)
			}
		})
	}
}

// TestPooledJournalsHoldNothing pins the pool's hygiene: after commits that
// grew a journal past maxPooledEffects (a bulk assert and a 1 000-tuple
// retract, on both write paths, routed to a waiter), rolled one back, or
// failed a Delete, every journal the pool hands out is empty — no instance,
// ID, key, owner or subscription left in it, even past the slices' lengths —
// and within the pooling cap, so the pool pins no retracted tuple, no bulk
// commit's arrays and no waiter. Runs under -race too, where the pool keeps
// fewer journals and the check covers fewer.
func TestPooledJournalsHoldNothing(t *testing.T) {
	s := New(WithShards(2))
	bulk := make([]tuple.Tuple, 3*maxPooledEffects)
	for i := range bulk {
		bulk[i] = tuple.New(tuple.Atom("item"), tuple.Int(int64(i)))
	}
	item := []InterestKey{InterestOf(2, tuple.Atom("item"), true)}
	sub := subscribe(s, item, filterFunc(func(Delta) bool { return true }))
	defer sub.Cancel()
	ids := s.Assert(1, bulk...)
	retractAll := func(w Writer) error {
		for _, id := range ids {
			if err := w.Delete(id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.UpdateCommuting(1, item, retractAll); err != nil {
		t.Fatal(err)
	}
	ids = s.Assert(1, bulk...)
	if err := s.Update(1, retractAll); err != nil {
		t.Fatal(err)
	}
	kept := s.Assert(1, bulk[0])[0]
	boom := errors.New("boom")
	rollback := func(w Writer) error {
		w.Insert(bulk[1], 2)
		if err := w.Delete(kept); err != nil {
			return err
		}
		return boom
	}
	missing := func(w Writer) error {
		w.Insert(bulk[1], 2)
		return w.Delete(kept + 1000)
	}
	for _, fn := range []func(Writer) error{rollback, missing} {
		if err := s.UpdateCommuting(2, item, fn); err == nil {
			t.Fatal("failing commit reported success")
		}
		if err := s.Update(2, fn); err == nil {
			t.Fatal("failing commit reported success")
		}
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d tuples, want the 1 kept", s.Len())
	}

	var taken []*journal
	for i := 0; i < 8; i++ {
		j := journals.Get().(*journal)
		taken = append(taken, j)
		if cap(j.inserted) > maxPooledEffects || cap(j.deleted) > maxPooledEffects || cap(j.lp.keys) > maxPooledEffects {
			t.Errorf("pooled journal kept capacity %d/%d/%d past the cap %d", cap(j.inserted), cap(j.deleted), cap(j.lp.keys), maxPooledEffects)
		}
		for _, inst := range append(j.inserted[:cap(j.inserted)], j.deleted[:cap(j.deleted)]...) {
			if inst.ID != 0 || inst.Owner != 0 || inst.Tuple.Arity() != 0 {
				t.Errorf("pooled journal still holds %v", inst)
			}
		}
		for _, k := range j.lp.keys[:cap(j.lp.keys)] {
			if k != (indexKey{}) {
				t.Errorf("pooled journal still holds bucket %v", k)
			}
		}
		if cap(j.dl.list) > maxPooledEffects || cap(j.matched) > maxPooledEffects || len(j.dl.list)+len(j.dl.index)+len(j.matched) != 0 {
			t.Errorf("pooled journal kept routing state: %d candidates (cap %d), %d indexed, %d matched (cap %d)",
				len(j.dl.list), cap(j.dl.list), len(j.dl.index), len(j.matched), cap(j.matched))
		}
		for _, sd := range j.dl.list[:cap(j.dl.list)] {
			if sd != (subDelivery{}) {
				t.Errorf("pooled journal still routes to %p", sd.sub)
			}
		}
		for _, m := range j.matched[:cap(j.matched)] {
			if m != (collected{}) {
				t.Errorf("pooled journal still holds subscription %p", m.sub)
			}
		}
		if len(j.inserted)+len(j.insShard)+len(j.deleted)+len(j.delShard)+len(j.delIDs)+len(j.lp.latches)+len(j.lp.keys) != 0 ||
			j.lp.ss.count() != 0 || j.s != nil || j.owner != 0 || j.dtok != 0 || len(j.done) != 0 || j.ss != &j.lp.ss {
			t.Errorf("pooled journal is not empty: %+v", j)
		}
	}
	for _, j := range taken {
		journals.Put(j)
	}
}

// TestConcurrentGroupCommitJournals drives one shard's group commit from
// several goroutines on disjoint keys, so leaders apply and publish
// followers' pooled journals and hand them back through their done
// channels while other commits take them from the pool again. Every record
// must carry exactly its own commit's retract+insert of one key, and every
// key must end at its goroutine's commit count.
func TestConcurrentGroupCommitJournals(t *testing.T) {
	const workers, commits = 8, 300
	s := New(WithShards(1))
	ids := make([]tuple.ID, workers)
	for g := range ids {
		ids[g] = s.Assert(1, tuple.New(tuple.Int(int64(g)), tuple.Int(0)))[0]
	}
	var bad sync.Once
	s.OnCommit(func(rec CommitRecord) {
		if len(rec.Inserted) != 1 || len(rec.Deleted) != 1 {
			bad.Do(func() { t.Errorf("record %+v: want one insert and one delete", rec) })
			return
		}
		ins, del := rec.Inserted[0].Tuple, rec.Deleted[0].Tuple
		v, _ := ins.Field(1).AsInt()
		w, _ := del.Field(1).AsInt()
		if !ins.Field(0).Equal(del.Field(0)) || v != w+1 {
			bad.Do(func() { t.Errorf("record mixes commits: deletes %v, inserts %v", del, ins) })
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lead, cur := tuple.Int(int64(g)), ids[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := []InterestKey{InterestOf(2, lead, true)}
			for n := int64(1); n <= commits; n++ {
				err := s.UpdateCommuting(tuple.ProcessID(g+1), keys, func(w Writer) error {
					if err := w.Delete(cur); err != nil {
						return err
					}
					cur = w.Insert(tuple.New(lead, tuple.Int(n)), tuple.ProcessID(g+1))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, inst := range s.All() {
		if v, _ := inst.Tuple.Field(1).AsInt(); v != commits {
			t.Errorf("%v: want %d commits applied", inst.Tuple, commits)
		}
	}
	if n := s.Len(); n != workers {
		t.Errorf("store holds %d tuples, want %d", n, workers)
	}
	t.Logf("group-commit batches: mean %.2f", s.Metrics().Snapshot().GroupBatch.Mean())
}

// TestDirectCommitLocksWrittenShards: a commit that applies on its own
// write-locks the shards it writes, not its whole footprint. An Update's
// footprint is every shard of the store; on 8 shards, one that inserts a
// tuple write-locks one, and one that moves a tuple between two shards
// write-locks two.
func TestDirectCommitLocksWrittenShards(t *testing.T) {
	s := New(WithShards(8))
	writes := func() (n uint64) {
		for _, sc := range s.Metrics().Snapshot().Shards {
			n += sc.WriteLocks
		}
		return n
	}
	var a, b tuple.Tuple
	for i := int64(0); b.Arity() == 0; i++ {
		switch t := tuple.New(tuple.Int(i)); {
		case i == 0:
			a = t
		case s.shardIndex(indexKeyOf(t)) != s.shardIndex(indexKeyOf(a)):
			b = t
		}
	}
	var id tuple.ID
	before := writes()
	if err := s.Update(1, func(w Writer) error { id = w.Insert(a, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := writes() - before; got != 1 {
		t.Errorf("a one-tuple Update on 8 shards write-locked %d shards, want 1", got)
	}
	before = writes()
	if err := s.Update(1, func(w Writer) error { w.Insert(b, 1); return w.Delete(id) }); err != nil {
		t.Fatal(err)
	}
	if got := writes() - before; got != 2 {
		t.Errorf("an Update moving a tuple between two of 8 shards write-locked %d shards, want 2", got)
	}
	checkSlab(t, s)
}
