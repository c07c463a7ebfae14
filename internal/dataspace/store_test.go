package dataspace

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func year(n int64) tuple.Tuple { return tuple.New(tuple.Atom("year"), tuple.Int(n)) }

func collect(r Reader, arity int, lead tuple.Value, known bool) []tuple.Tuple {
	var out []tuple.Tuple
	r.Scan(arity, lead, known, func(_ tuple.ID, t tuple.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func TestAssertAndScanByLead(t *testing.T) {
	s := New()
	s.Assert(tuple.Environment, year(87), year(90), tuple.New(tuple.Atom("month"), tuple.Int(3)))

	s.Snapshot(func(r Reader) {
		got := collect(r, 2, tuple.Atom("year"), true)
		if len(got) != 2 {
			t.Errorf("year scan found %d", len(got))
		}
		got = collect(r, 2, tuple.Atom("month"), true)
		if len(got) != 1 {
			t.Errorf("month scan found %d", len(got))
		}
		got = collect(r, 2, tuple.Value{}, false)
		if len(got) != 3 {
			t.Errorf("arity scan found %d", len(got))
		}
		got = collect(r, 3, tuple.Value{}, false)
		if len(got) != 0 {
			t.Errorf("arity-3 scan found %d", len(got))
		}
	})
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestNumericLeadCanonicalization(t *testing.T) {
	s := New()
	s.Assert(tuple.Environment, tuple.New(tuple.Int(2), tuple.Atom("x")))
	s.Snapshot(func(r Reader) {
		// Scanning with Float(2.0) must find the Int(2)-led tuple.
		got := collect(r, 2, tuple.Float(2.0), true)
		if len(got) != 1 {
			t.Errorf("float lead scan found %d", len(got))
		}
	})
}

func TestMultisetInstances(t *testing.T) {
	s := New()
	ids := s.Assert(tuple.Environment, year(87), year(87))
	if ids[0] == ids[1] {
		t.Error("instances must have distinct IDs")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (multiset)", s.Len())
	}
	// Retracting one instance leaves the other.
	err := s.Update(tuple.Environment, func(w Writer) error {
		return w.Delete(ids[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after one retract", s.Len())
	}
}

func TestOwnershipRecorded(t *testing.T) {
	s := New()
	const owner tuple.ProcessID = 42
	ids := s.Assert(owner, year(87))
	s.Snapshot(func(r Reader) {
		inst, ok := r.Get(ids[0])
		if !ok {
			t.Fatal("instance missing")
		}
		if inst.Owner != owner {
			t.Errorf("owner = %d, want %d", inst.Owner, owner)
		}
	})
	if _, ok := instGet(s, tuple.ID(9999)); ok {
		t.Error("Get of unknown ID should fail")
	}
}

func instGet(s *Store, id tuple.ID) (Instance, bool) {
	var inst Instance
	var ok bool
	s.Snapshot(func(r Reader) { inst, ok = r.Get(id) })
	return inst, ok
}

func TestDeleteMissing(t *testing.T) {
	s := New()
	err := s.Update(tuple.Environment, func(w Writer) error {
		return w.Delete(tuple.ID(5))
	})
	if !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("err = %v, want ErrNoSuchTuple", err)
	}
}

func TestUpdateRollback(t *testing.T) {
	s := New()
	ids := s.Assert(tuple.Environment, year(87))
	v0 := s.Version()
	sentinel := errors.New("boom")
	err := s.Update(tuple.Environment, func(w Writer) error {
		w.Insert(year(99), tuple.Environment)
		if err := w.Delete(ids[0]); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s.Version() != v0 {
		t.Error("failed update bumped version")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after rollback", s.Len())
	}
	if _, ok := instGet(s, ids[0]); !ok {
		t.Error("rollback did not restore deleted tuple")
	}
	s.Snapshot(func(r Reader) {
		if got := collect(r, 2, tuple.Atom("year"), true); len(got) != 1 {
			t.Errorf("index inconsistent after rollback: %d", len(got))
		}
	})
}

func TestVersionBumpsOnlyOnChange(t *testing.T) {
	s := New()
	v0 := s.Version()
	_ = s.Update(tuple.Environment, func(w Writer) error { return nil })
	if s.Version() != v0 {
		t.Error("no-op update bumped version")
	}
	// An insert deleted again in its own update changes nothing, on every
	// path: it publishes no record, which no replay could apply.
	hooked := 0
	s.OnCommit(func(CommitRecord) { hooked++ })
	keys := []InterestKey{InterestOf(2, tuple.Atom("year"), true)}
	for _, update := range []func(func(Writer) error) error{
		func(fn func(Writer) error) error { return s.Update(tuple.Environment, fn) },
		func(fn func(Writer) error) error { return s.UpdateKeys(tuple.Environment, keys, fn) },
		func(fn func(Writer) error) error { return s.UpdateCommuting(tuple.Environment, keys, fn) },
	} {
		if err := update(func(w Writer) error { return w.Delete(w.Insert(year(5), tuple.Environment)) }); err != nil {
			t.Fatal(err)
		}
	}
	if s.Version() != v0 || hooked != 0 || s.Len() != 0 {
		t.Errorf("inserts deleted in their own updates: version %d, %d records, %d instances; want %d, 0, 0", s.Version(), hooked, s.Len(), v0)
	}
	s.Assert(tuple.Environment, year(1))
	if s.Version() != v0+1 {
		t.Errorf("version = %d, want %d", s.Version(), v0+1)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New()
	ids := s.Assert(tuple.Environment, year(1), year(2))
	_ = s.Update(tuple.Environment, func(w Writer) error { return w.Delete(ids[0]) })
	st := s.Stats()
	if st.Asserts != 2 || st.Retracts != 1 || st.Commits != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCommitHookObservesMutations(t *testing.T) {
	s := New()
	var recs []CommitRecord
	s.OnCommit(func(rec CommitRecord) {
		// The record's slices are lent for the call: keep copies.
		recs = append(recs, CommitRecord{Version: rec.Version, Owner: rec.Owner,
			Inserted: slices.Clone(rec.Inserted), Deleted: slices.Clone(rec.Deleted)})
	})
	ids := s.Assert(tuple.Environment, year(1))
	_ = s.Update(7, func(w Writer) error {
		w.Insert(year(2), 7)
		return w.Delete(ids[0])
	})
	if len(recs) != 2 {
		t.Fatalf("hooks fired %d times", len(recs))
	}
	last := recs[1]
	if last.Owner != 7 || len(last.Inserted) != 1 || len(last.Deleted) != 1 ||
		!last.Inserted[0].Tuple.Equal(year(2)) || last.Deleted[0].ID != ids[0] {
		t.Errorf("record = %+v", last)
	}
	if last.Version != s.Version() {
		t.Errorf("record version = %d, store version = %d", last.Version, s.Version())
	}
}

func TestAllSnapshot(t *testing.T) {
	s := New()
	s.Assert(3, year(1), year(2))
	all := s.All()
	if len(all) != 2 {
		t.Fatalf("All = %d", len(all))
	}
	for _, inst := range all {
		if inst.Owner != 3 {
			t.Errorf("owner = %d", inst.Owner)
		}
	}
}

func TestEmptyTupleIndexedByArity(t *testing.T) {
	s := New()
	s.Assert(tuple.Environment, tuple.New())
	s.Snapshot(func(r Reader) {
		if got := collect(r, 0, tuple.Value{}, false); len(got) != 1 {
			t.Errorf("arity-0 scan = %d", len(got))
		}
	})
}

func TestScanEarlyStop(t *testing.T) {
	s := New()
	s.Assert(tuple.Environment, year(1), year(2), year(3))
	count := 0
	s.Snapshot(func(r Reader) {
		r.Scan(2, tuple.Atom("year"), true, func(tuple.ID, tuple.Tuple) bool {
			count++
			return false
		})
	})
	if count != 1 {
		t.Errorf("early stop scanned %d", count)
	}
}

func TestConcurrentUpdatesAreAtomic(t *testing.T) {
	s := New()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Each update retracts the worker's tuple from the one before.
				_ = s.Update(tuple.ProcessID(w+1), func(wr Writer) error {
					var prev tuple.ID
					wr.Scan(3, tuple.Atom("tmp"), true, func(id tuple.ID, t tuple.Tuple) bool {
						if t.Field(1).Equal(tuple.Int(int64(w))) {
							prev = id
						}
						return prev == tuple.NoID
					})
					if prev != tuple.NoID {
						if err := wr.Delete(prev); err != nil {
							return err
						}
					}
					if i < perWorker-1 {
						wr.Insert(tuple.New(tuple.Atom("tmp"), tuple.Int(int64(w)), tuple.Int(int64(i))), tuple.ProcessID(w+1))
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
	st := s.Stats()
	if st.Asserts != workers*(perWorker-1) || st.Retracts != workers*(perWorker-1) {
		t.Errorf("stats = %+v", st)
	}
	if s.Version() != workers*perWorker {
		t.Errorf("version = %d", s.Version())
	}
}

// Property: after a random interleaving of asserts and retracts, Len equals
// asserts minus retracts, and every surviving ID is Get-able; the slab
// invariant holds after every step.
func TestQuickMultisetInvariant(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(testSeed(11))), MaxCount: 30}
	f := func(ops []uint8) bool {
		s := New()
		var live []tuple.ID
		asserts, retracts := 0, 0
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				ids := s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(op%5)), tuple.Int(int64(op))))
				live = append(live, ids[0])
				asserts++
			} else {
				id := live[int(op)%len(live)]
				live = append(live[:int(op)%len(live)], live[int(op)%len(live)+1:]...)
				if err := s.Update(tuple.Environment, func(w Writer) error { return w.Delete(id) }); err != nil {
					return false
				}
				retracts++
			}
			checkSlab(t, s)
		}
		if s.Len() != asserts-retracts {
			return false
		}
		for _, id := range live {
			if _, ok := instGet(s, id); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: index scans agree with a full filter over All().
func TestQuickIndexConsistency(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(testSeed(13))), MaxCount: 25}
	f := func(raw []uint8) bool {
		s := New()
		for _, r := range raw {
			if r%2 == 0 {
				s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(r%4)), tuple.Int(int64(r))))
			} else {
				s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(r%4))))
			}
		}
		checkSlab(t, s)
		for lead := int64(0); lead < 4; lead++ {
			for arity := 1; arity <= 2; arity++ {
				var scanned int
				s.Snapshot(func(rd Reader) {
					scanned = len(collect(rd, arity, tuple.Int(lead), true))
				})
				want := 0
				for _, inst := range s.All() {
					if inst.Tuple.Arity() == arity && inst.Tuple.Field(0).Equal(tuple.Int(lead)) {
						want++
					}
				}
				if scanned != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkScanIndexed(b *testing.B) {
	s := New()
	for i := 0; i < 10000; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Atom(fmt.Sprintf("k%d", i%100)), tuple.Int(int64(i))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Snapshot(func(r Reader) {
			r.Scan(2, tuple.Atom("k42"), true, func(tuple.ID, tuple.Tuple) bool {
				n++
				return true
			})
		})
		if n != 100 {
			b.Fatalf("n = %d", n)
		}
	}
}

func TestLeadIndexNonNumericKinds(t *testing.T) {
	// String, bool, and atom leads index into distinct buckets; empty
	// (invalid) values never match a real lead.
	s := New()
	s.Assert(tuple.Environment,
		tuple.New(tuple.String("s"), tuple.Int(1)),
		tuple.New(tuple.Bool(true), tuple.Int(2)),
		tuple.New(tuple.Bool(false), tuple.Int(3)),
		tuple.New(tuple.Atom("s"), tuple.Int(4)), // same payload, different kind
	)
	s.Snapshot(func(r Reader) {
		if got := collect(r, 2, tuple.String("s"), true); len(got) != 1 {
			t.Errorf("string lead = %d", len(got))
		}
		if got := collect(r, 2, tuple.Atom("s"), true); len(got) != 1 {
			t.Errorf("atom lead = %d", len(got))
		}
		if got := collect(r, 2, tuple.Bool(true), true); len(got) != 1 {
			t.Errorf("bool lead = %d", len(got))
		}
		if got := collect(r, 2, tuple.Value{}, true); len(got) != 0 {
			t.Errorf("invalid lead = %d", len(got))
		}
	})
}

func TestInterestOfHelper(t *testing.T) {
	k := InterestOf(3, tuple.Atom("x"), true)
	if k.Arity != 3 || !k.LeadKnown || k.Lead != tuple.Atom("x") {
		t.Errorf("key = %+v", k)
	}
}

// TestWriterEditInsideScan: a Scan or ScanFields callback may edit, on
// every write path, since every path buffers its edits. An instance the
// callback deletes is gone from the rest of the walk, an instance it inserts
// is not visited by the running scan, and the update commits what the same
// edits made after the scan commit.
func TestWriterEditInsideScan(t *testing.T) {
	year1 := []pattern.FieldSel{{Pos: 0, Val: tuple.Atom("year")}, {Pos: 1, Val: tuple.Int(1)}}
	keys := []InterestKey{InterestOf(2, tuple.Atom("year"), true)}
	for _, tc := range []struct {
		name string
		edit func(w Writer) error
		left int
	}{
		{"Delete in a lead Scan", func(w Writer) error {
			w.Scan(2, tuple.Atom("year"), true, func(id tuple.ID, _ tuple.Tuple) bool { return w.Delete(id) == nil })
			return nil
		}, 0},
		{"Insert in a lead Scan", func(w Writer) error {
			w.Scan(2, tuple.Atom("year"), true, func(tuple.ID, tuple.Tuple) bool { w.Insert(year(3), 1); return true })
			return nil
		}, 8},
		{"Delete in ScanFields", func(w Writer) error {
			w.(pattern.FieldSource).ScanFields(2, year1, func(id tuple.ID, t tuple.Tuple) bool {
				return !t.Field(1).Equal(tuple.Int(1)) || w.Delete(id) == nil
			})
			return nil
		}, 1},
		{"Delete of its own inserts in a Scan", func(w Writer) error {
			w.Insert(year(4), 1)
			w.Insert(year(4), 1)
			w.Scan(2, tuple.Atom("year"), true, func(id tuple.ID, t tuple.Tuple) bool {
				return !t.Field(1).Equal(tuple.Int(4)) || w.Delete(id) == nil
			})
			if n := w.Len(); n != 4 {
				t.Errorf("Len = %d inside the update, want 4", n)
			}
			return nil
		}, 4},
		{"Delete of its own insert, then ScanFields", func(w Writer) error {
			id := w.Insert(year(1), 1)
			if err := w.Delete(id); err != nil {
				return err
			}
			w.(pattern.FieldSource).ScanFields(2, year1, func(got tuple.ID, _ tuple.Tuple) bool {
				if got == id {
					t.Errorf("ScanFields visited the insert the update deleted")
				}
				return true
			})
			if err := w.Delete(id); !errors.Is(err, ErrNoSuchTuple) {
				t.Errorf("second Delete of the deleted insert: %v, want ErrNoSuchTuple", err)
			}
			return nil
		}, 4},
	} {
		for path, update := range []func(s *Store, fn func(Writer) error) error{
			func(s *Store, fn func(Writer) error) error { return s.Update(1, fn) },
			func(s *Store, fn func(Writer) error) error { return s.UpdateKeys(1, keys, fn) },
			func(s *Store, fn func(Writer) error) error { return s.UpdateCommuting(1, keys, fn) },
		} {
			s := New(WithShards(2))
			s.Assert(1, year(1), year(1), year(1), year(2))
			if err := update(s, tc.edit); err != nil || s.Len() != tc.left {
				t.Errorf("%s, path %d: err %v, %d instances left, want %d", tc.name, path, err, s.Len(), tc.left)
			}
			checkSlab(t, s)
		}
	}
}
