package dataspace_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/wal"
)

// TestWideInstanceRoundTrip: instances whose owner (2⁶⁴−1) or arity
// (2¹⁶+1) a slab slot's packed word cannot hold keep both through the
// store's reads — Get, Each, Scan — through a commit that deletes one of
// them, through a checkpoint written and read back, and through WAL
// recovery, first by replaying the log's records and then from the
// checkpoint that recovery re-anchors on.
func TestWideInstanceRoundTrip(t *testing.T) {
	const maxOwner = tuple.ProcessID(math.MaxUint64)
	fields := make([]tuple.Value, 1<<16+1)
	for i := range fields {
		fields[i] = tuple.Int(int64(i))
	}
	long := tuple.New(fields...)
	fields[0] = tuple.Int(-1)
	gone := tuple.New(fields...)
	want := []dataspace.Instance{
		{Tuple: long, Owner: maxOwner},                                  // neither fits
		{Tuple: tuple.New(tuple.Int(0), tuple.Int(1)), Owner: maxOwner}, // the owner does not fit
		{Tuple: tuple.New(fields[1:]...), Owner: 7},                     // the arity does not fit
		{Tuple: tuple.New(tuple.Int(0)), Owner: 1<<48 - 1},              // both fit
	}
	check := func(what string, s *dataspace.Store) {
		t.Helper()
		dataspace.CheckSlab(t, s)
		s.Snapshot(func(r dataspace.Reader) {
			if r.Len() != len(want) {
				t.Fatalf("%s: %d instances, want %d", what, r.Len(), len(want))
			}
			for _, w := range want {
				tup, owner := w.Tuple, w.Owner
				found := 0
				r.Scan(tup.Arity(), tup.Field(0), true, func(id tuple.ID, got tuple.Tuple) bool {
					inst, ok := r.Get(id)
					if !got.Equal(tup) || !ok || inst.Owner != owner || !inst.Tuple.Equal(tup) {
						t.Fatalf("%s: Scan met #%d of arity %d, Get finds %t, owner %d, want owner %d", what, id, got.Arity(), ok, inst.Owner, owner)
					}
					found++
					return true
				})
				if found != 1 {
					t.Fatalf("%s: Scan met %d instances of the arity-%d tuple, want 1", what, found, tup.Arity())
				}
			}
			r.Each(func(inst dataspace.Instance) bool {
				for _, w := range want {
					if inst.Tuple.Equal(w.Tuple) && inst.Owner == w.Owner {
						return true
					}
				}
				t.Fatalf("%s: Each met #%d of arity %d owned by %d", what, inst.ID, inst.Tuple.Arity(), inst.Owner)
				return false
			})
		})
	}

	dir := t.TempDir()
	open := func() (*dataspace.Store, *wal.Log) {
		t.Helper()
		s := dataspace.New(dataspace.WithShards(2))
		l, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recover(s); err != nil {
			t.Fatal(err)
		}
		s.SetDurable(l)
		return s, l
	}
	s, l := open()
	for _, w := range want {
		s.Assert(w.Owner, w.Tuple)
	}
	victim := s.Assert(maxOwner, gone)[0]
	if err := s.Update(maxOwner, func(w dataspace.Writer) error { return w.Delete(victim) }); err != nil {
		t.Fatal(err)
	}
	check("live", s)

	var ck bytes.Buffer
	if err := s.WriteCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	read := dataspace.New(dataspace.WithShards(4))
	if err := read.ReadCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	check("checkpoint", read)

	for _, from := range []string{"records", "checkpoint"} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		s, l = open()
		check("recovered from "+from, s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
