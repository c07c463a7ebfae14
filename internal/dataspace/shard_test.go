package dataspace

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/tuple"
)

func TestShardCountNormalization(t *testing.T) {
	cases := []struct {
		in   int
		want int
	}{
		{1, 1},
		{2, 2},
		{3, 4},
		{4, 4},
		{5, 8},
		{16, 16},
		{200, 256},
		{100000, 256},
	}
	for _, c := range cases {
		if got := New(WithShards(c.in)).NumShards(); got != c.want {
			t.Errorf("WithShards(%d) → %d shards, want %d", c.in, got, c.want)
		}
	}
	if got := New().NumShards(); got < 1 || got&(got-1) != 0 {
		t.Errorf("default shard count %d is not a power of two ≥ 1", got)
	}
}

// leadsOnDistinctShards returns two int leads of the given arity that hash
// to different shards (the store must have ≥ 2 shards).
func leadsOnDistinctShards(t *testing.T, s *Store, arity int) (int64, int64) {
	t.Helper()
	first := int64(0)
	si0 := s.shardIndex(indexKey{arity: arity, lead: canonLead(tuple.Int(first))})
	for v := int64(1); v < 4096; v++ {
		if s.shardIndex(indexKey{arity: arity, lead: canonLead(tuple.Int(v))}) != si0 {
			return first, v
		}
	}
	t.Fatal("no pair of leads on distinct shards found")
	return 0, 0
}

func TestShardRoutingIsByBucket(t *testing.T) {
	s := New(WithShards(8))
	// Every tuple of one (arity, lead) bucket must land in one shard, and
	// an arity-wide scan must see tuples across all shards.
	for i := int64(0); i < 64; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(i%8), tuple.Int(i)))
	}
	for lead := int64(0); lead < 8; lead++ {
		k := indexKey{arity: 2, lead: canonLead(tuple.Int(lead))}
		sh := s.shards[s.shardIndex(k)]
		if got := sh.leadSet(2, k.lead).len(); got != 8 {
			t.Errorf("bucket lead=%d has %d tuples in its shard, want 8", lead, got)
		}
	}
	s.Snapshot(func(r Reader) {
		if got := len(collect(r, 2, tuple.Value{}, false)); got != 64 {
			t.Errorf("arity scan across shards = %d, want 64", got)
		}
		if got := r.Len(); got != 64 {
			t.Errorf("Len across shards = %d", got)
		}
	})
}

func TestUpdateKeysSingleShardFootprint(t *testing.T) {
	s := New(WithShards(8))
	keys := []InterestKey{{Arity: 2, Lead: tuple.Int(7), LeadKnown: true}}
	err := s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
		w.Insert(tuple.New(tuple.Int(7), tuple.Atom("a")), tuple.Environment)
		w.Insert(tuple.New(tuple.Int(7), tuple.Atom("b")), tuple.Environment)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []tuple.ID
	s.SnapshotKeys(keys, func(r Reader) {
		r.Scan(2, tuple.Int(7), true, func(id tuple.ID, _ tuple.Tuple) bool {
			ids = append(ids, id)
			return true
		})
		if len(ids) != 2 {
			t.Fatalf("keyed scan = %d", len(ids))
		}
	})
	err = s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
		return w.Delete(ids[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after keyed delete", s.Len())
	}
}

// TestShardCommitAdmitsReaders: a shard or coarse commit evaluates under
// its shards' read locks, so a reader of those shards completes while the
// commit's fn runs; and it holds their intent locks exclusive from its
// evaluation through its apply, so a key-mode commit on a bucket of them
// publishes only after it.
func TestShardCommitAdmitsReaders(t *testing.T) {
	keys := []InterestKey{InterestOf(2, tuple.Atom("a"), true)}
	for name, update := range map[string]func(s *Store, fn func(Writer) error) error{
		"Update":     func(s *Store, fn func(Writer) error) error { return s.Update(1, fn) },
		"UpdateKeys": func(s *Store, fn func(Writer) error) error { return s.UpdateKeys(1, keys, fn) },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(WithShards(4))
			s.Assert(1, tuple.New(tuple.Atom("a"), tuple.Int(0)))
			var owners []tuple.ProcessID
			s.OnCommit(func(rec CommitRecord) { owners = append(owners, rec.Owner) })
			entered, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				done <- update(s, func(w Writer) error {
					close(entered)
					<-release
					w.Insert(tuple.New(tuple.Atom("a"), tuple.Int(1)), 1)
					return nil
				})
			}()
			<-entered

			read := make(chan int, 1)
			go s.SnapshotKeys(keys, func(r Reader) { read <- r.Len() })
			select {
			case n := <-read:
				if n != 1 {
					t.Errorf("the reader saw %d instances, want 1", n)
				}
			case <-time.After(5 * time.Second):
				t.Error("a reader of the commit's shards waited for its fn")
			}

			keyed := make(chan error, 1)
			go func() {
				keyed <- s.UpdateCommuting(2, keys, func(w Writer) error {
					w.Insert(tuple.New(tuple.Atom("a"), tuple.Int(2)), 2)
					return nil
				})
			}()
			// Once the key-mode commit holds its latch it waits only on the
			// shard's intent lock; it must not publish before fn returns.
			ik, _ := keys[0].bucket()
			latch := &s.shards[s.shardIndex(ik)].latches[stripeOf(ik)]
			for deadline := time.Now().Add(5 * time.Second); latch.TryLock(); {
				latch.Unlock()
				if time.Now().After(deadline) {
					t.Fatal("the key-mode commit never took its latch")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case <-keyed:
				t.Error("a key-mode commit on the shard published while the shard commit's fn ran")
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := <-keyed; err != nil {
				t.Fatal(err)
			}
			if len(owners) != 2 || owners[0] != 1 {
				t.Errorf("commits published by owners %v, want the shard commit's (1) first", owners)
			}
		})
	}
}

func TestKeyedReaderScopedToFootprint(t *testing.T) {
	s := New(WithShards(8))
	a, b := leadsOnDistinctShards(t, s, 2)
	s.Assert(tuple.Environment, tuple.New(tuple.Int(a), tuple.Int(1)))
	ids := s.Assert(tuple.Environment, tuple.New(tuple.Int(b), tuple.Int(2)))
	keys := []InterestKey{{Arity: 2, Lead: tuple.Int(a), LeadKnown: true}}
	s.SnapshotKeys(keys, func(r Reader) {
		if got := len(collect(r, 2, tuple.Int(a), true)); got != 1 {
			t.Errorf("covered bucket scan = %d", got)
		}
		if got := len(collect(r, 2, tuple.Int(b), true)); got != 0 {
			t.Errorf("uncovered bucket scan = %d, want 0", got)
		}
		if _, ok := r.Get(ids[0]); ok {
			t.Error("Get found an instance outside the footprint")
		}
	})
}

func TestInsertOutsideFootprintPanics(t *testing.T) {
	s := New(WithShards(8))
	a, b := leadsOnDistinctShards(t, s, 2)
	keys := []InterestKey{{Arity: 2, Lead: tuple.Int(a), LeadKnown: true}}
	defer func() {
		if recover() == nil {
			t.Error("Insert outside the planned footprint did not panic")
		}
	}()
	_ = s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
		w.Insert(tuple.New(tuple.Int(b), tuple.Int(1)), tuple.Environment)
		return nil
	})
}

// dump captures the full observable store state: every instance plus every
// per-bucket scan result, for exact before/after comparison.
func dump(s *Store) string {
	var b bytes.Buffer
	insts := s.All()
	sort.Slice(insts, func(i, j int) bool { return insts[i].ID < insts[j].ID })
	for _, inst := range insts {
		fmt.Fprintf(&b, "%d %s %d\n", inst.ID, inst.Tuple, inst.Owner)
	}
	s.Snapshot(func(r Reader) {
		arities := r.Arities()
		sort.Ints(arities)
		for _, a := range arities {
			var ids []tuple.ID
			r.Scan(a, tuple.Value{}, false, func(id tuple.ID, _ tuple.Tuple) bool {
				ids = append(ids, id)
				return true
			})
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			fmt.Fprintf(&b, "arity %d: %v\n", a, ids)
		}
	})
	return b.String()
}

func TestCrossShardRollback(t *testing.T) {
	s := New(WithShards(8))
	a, b := leadsOnDistinctShards(t, s, 2)
	idsA := s.Assert(tuple.Environment, tuple.New(tuple.Int(a), tuple.Atom("keep")))
	idsB := s.Assert(tuple.Environment, tuple.New(tuple.Int(b), tuple.Atom("keep")))
	before := dump(s)
	v0 := s.Version()

	sentinel := errors.New("boom")
	keys := []InterestKey{
		{Arity: 2, Lead: tuple.Int(a), LeadKnown: true},
		{Arity: 2, Lead: tuple.Int(b), LeadKnown: true},
	}
	err := s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
		// Mutate both shards, then fail: inserts on each shard, deletes on
		// each shard — rollback must restore every one.
		w.Insert(tuple.New(tuple.Int(a), tuple.Atom("new")), 9)
		w.Insert(tuple.New(tuple.Int(b), tuple.Atom("new")), 9)
		if err := w.Delete(idsA[0]); err != nil {
			return err
		}
		if err := w.Delete(idsB[0]); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s.Version() != v0 {
		t.Error("failed multi-shard update bumped version")
	}
	if after := dump(s); after != before {
		t.Errorf("state changed across rollback:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// Indexes must still serve the restored instances.
	s.Snapshot(func(r Reader) {
		for _, lead := range []int64{a, b} {
			if got := len(collect(r, 2, tuple.Int(lead), true)); got != 1 {
				t.Errorf("lead %d bucket = %d after rollback", lead, got)
			}
		}
	})
	// The store must be fully usable after rollback.
	s.Assert(tuple.Environment, tuple.New(tuple.Int(a), tuple.Atom("post")))
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSubscriptionCancelAfterFire(t *testing.T) {
	s := New(WithShards(8))
	sub := subscribe(s, []InterestKey{{Arity: 2, Lead: tuple.Int(1), LeadKnown: true}}, nil)
	s.Assert(tuple.Environment, tuple.New(tuple.Int(1), tuple.Int(0)))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("subscription not fired")
	}
	sub.Cancel() // after fire: must not panic or corrupt the registry
	sub.Cancel() // and stays idempotent
	assertRegistriesEmpty(t, s)
}

func TestCommitOnOtherShardDoesNotWake(t *testing.T) {
	s := New(WithShards(8))
	a, b := leadsOnDistinctShards(t, s, 2)
	sub := subscribe(s, []InterestKey{{Arity: 2, Lead: tuple.Int(a), LeadKnown: true}}, nil)
	defer sub.Cancel()
	// A keyed commit on a different shard never even inspects the
	// subscription's registry; it must not wake.
	keys := []InterestKey{{Arity: 2, Lead: tuple.Int(b), LeadKnown: true}}
	_ = s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
		w.Insert(tuple.New(tuple.Int(b), tuple.Int(1)), tuple.Environment)
		return nil
	})
	assertNotFired(t, sub.Ready())
	if got := s.Metrics().Snapshot().ReactiveSignals; got != 0 {
		t.Errorf("other-shard commit inspected %d subscriptions, want 0", got)
	}
	// The matching commit still wakes it.
	s.Assert(tuple.Environment, tuple.New(tuple.Int(a), tuple.Int(1)))
	if !waitFired(t, sub.Ready()) {
		t.Fatal("subscription missed its own shard's commit")
	}
}

func TestAritySubscriptionRegisteredInAllShards(t *testing.T) {
	s := New(WithShards(8))
	_, b := leadsOnDistinctShards(t, s, 2)
	// A lead-unknown subscription must be woken by a commit on ANY shard.
	sub := subscribe(s, []InterestKey{{Arity: 2}}, nil)
	defer sub.Cancel()
	keys := []InterestKey{{Arity: 2, Lead: tuple.Int(b), LeadKnown: true}}
	_ = s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
		w.Insert(tuple.New(tuple.Int(b), tuple.Int(1)), tuple.Environment)
		return nil
	})
	if !waitFired(t, sub.Ready()) {
		t.Fatal("arity-wide subscription missed a keyed commit")
	}
}

func TestConcurrentSubscribeUpdateSnapshotStress(t *testing.T) {
	// Cross-shard stress under -race: keyed updates on per-worker buckets,
	// full snapshots, multi-shard updates, and subscription churn,
	// concurrently.
	s := New(WithShards(8))
	const workers = 8
	const iters = 150
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			lead := tuple.Int(int64(wkr))
			keys := []InterestKey{{Arity: 2, Lead: lead, LeadKnown: true}}
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // keyed insert+delete on this worker's bucket
					_ = s.UpdateKeys(tuple.ProcessID(wkr+1), keys, func(w Writer) error {
						id := w.Insert(tuple.New(lead, tuple.Int(int64(i))), tuple.ProcessID(wkr+1))
						return w.Delete(id)
					})
				case 1: // full snapshot sweeping all shards
					s.Snapshot(func(r Reader) {
						n := 0
						r.Each(func(Instance) bool { n++; return true })
						if n != r.Len() {
							t.Errorf("Each saw %d, Len %d", n, r.Len())
						}
					})
				case 2: // subscription churn: register, commit, await, cancel
					// An insert deleted in its own commit changes nothing and
					// wakes no one, so the woken commit asserts and a second
					// one retracts.
					sub := subscribe(s, keys, nil)
					var id tuple.ID
					_ = s.UpdateKeys(tuple.ProcessID(wkr+1), keys, func(w Writer) error {
						id = w.Insert(tuple.New(lead, tuple.Int(-1)), tuple.ProcessID(wkr+1))
						return nil
					})
					<-sub.Ready()
					sub.Cancel()
					_ = s.UpdateKeys(tuple.ProcessID(wkr+1), keys, func(w Writer) error { return w.Delete(id) })
				default: // multi-shard update touching a neighbor's bucket too
					other := tuple.Int(int64((wkr + 1) % workers))
					mk := []InterestKey{
						{Arity: 2, Lead: lead, LeadKnown: true},
						{Arity: 2, Lead: other, LeadKnown: true},
					}
					_ = s.UpdateKeys(tuple.ProcessID(wkr+1), mk, func(w Writer) error {
						a := w.Insert(tuple.New(lead, tuple.Int(0)), tuple.ProcessID(wkr+1))
						b := w.Insert(tuple.New(other, tuple.Int(0)), tuple.ProcessID(wkr+1))
						if err := w.Delete(a); err != nil {
							return err
						}
						return w.Delete(b)
					})
				}
			}
		}(wkr)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Errorf("Len = %d after stress, want 0", s.Len())
	}
	st := s.Stats()
	if st.Asserts != st.Retracts {
		t.Errorf("asserts %d != retracts %d", st.Asserts, st.Retracts)
	}
	if s.Version() != st.Commits {
		t.Errorf("version %d != commits %d", s.Version(), st.Commits)
	}
}

func TestCheckpointAcrossShardCounts(t *testing.T) {
	// A checkpoint written by a many-shard store restores into stores of
	// any shard count: routing is by content, not by ID.
	src := New(WithShards(16))
	for i := int64(0); i < 40; i++ {
		src.Assert(tuple.ProcessID(i%3+1), tuple.New(tuple.Int(i%10), tuple.Int(i)))
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		dst := New(WithShards(n))
		if err := dst.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore into %d shards: %v", n, err)
		}
		if got, want := dump(dst), dump(src); got != want {
			t.Errorf("%d-shard restore state differs:\n%s\nvs\n%s", n, got, want)
		}
		if dst.Version() != src.Version() {
			t.Errorf("version = %d, want %d", dst.Version(), src.Version())
		}
		// And the restored store keeps working (fresh IDs don't collide).
		dst.Assert(tuple.Environment, tuple.New(tuple.Int(0), tuple.Int(999)))
		if dst.Len() != src.Len()+1 {
			t.Errorf("Len = %d after post-restore assert", dst.Len())
		}
	}
}

func TestAritiesDedupedAcrossShards(t *testing.T) {
	s := New(WithShards(8))
	// Same arity spread over many shards must appear once.
	for i := int64(0); i < 16; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(i), tuple.Int(i)))
	}
	s.Assert(tuple.Environment, tuple.New(tuple.Int(1), tuple.Int(2), tuple.Int(3)))
	s.Assert(tuple.Environment, tuple.New())
	s.Snapshot(func(r Reader) {
		got := r.Arities()
		sort.Ints(got)
		want := []int{0, 2, 3}
		if len(got) != len(want) {
			t.Fatalf("Arities = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Arities = %v, want %v", got, want)
			}
		}
	})
}

func TestVersionCountsCommitsAcrossShards(t *testing.T) {
	s := New(WithShards(8))
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			lead := tuple.Int(int64(wkr))
			keys := []InterestKey{{Arity: 2, Lead: lead, LeadKnown: true}}
			for i := 0; i < perWorker; i++ {
				_ = s.UpdateKeys(tuple.ProcessID(wkr+1), keys, func(w Writer) error {
					w.Insert(tuple.New(lead, tuple.Int(int64(i))), tuple.ProcessID(wkr+1))
					return nil
				})
			}
		}(wkr)
	}
	wg.Wait()
	if s.Version() != workers*perWorker {
		t.Errorf("version = %d, want %d", s.Version(), workers*perWorker)
	}
	if s.Len() != workers*perWorker {
		t.Errorf("Len = %d", s.Len())
	}
}

func BenchmarkAllInto(b *testing.B) {
	s := New()
	for i := 0; i < 4096; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i%64)), tuple.Int(int64(i))))
	}
	var buf []Instance
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.AllInto(buf)
		if len(buf) != 4096 {
			b.Fatalf("len = %d", len(buf))
		}
	}
}

func BenchmarkArities(b *testing.B) {
	s := New(WithShards(8))
	for i := 0; i < 2048; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i%64)), tuple.Int(int64(i))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Snapshot(func(r Reader) {
			if len(r.Arities()) != 1 {
				b.Fatal("arities")
			}
		})
	}
}

func BenchmarkKeyedUpdateSingleShard(b *testing.B) {
	s := New(WithShards(8))
	lead := tuple.Int(7)
	keys := []InterestKey{{Arity: 2, Lead: lead, LeadKnown: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.UpdateKeys(tuple.Environment, keys, func(w Writer) error {
			id := w.Insert(tuple.New(lead, tuple.Int(int64(i))), tuple.Environment)
			return w.Delete(id)
		})
	}
}
