package dataspace_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/tuple"
)

var errFail = errors.New("the update fails")

// slabRun is one FuzzStoreSlab script's state: a 2-shard store and the
// reference model its commit records are replayed into.
type slabRun struct {
	t *testing.T
	s *dataspace.Store
	m *refmodel.Model
}

// open makes a fresh 2-shard store whose every commit replays, verbatim,
// into the model.
func (r *slabRun) open() *dataspace.Store {
	s := dataspace.New(dataspace.WithShards(2))
	s.OnCommit(func(rec dataspace.CommitRecord) {
		if err := r.m.ApplyEffects(rec.Deleted, rec.Inserted); err != nil {
			r.t.Errorf("version %d: %v", rec.Version, err)
		}
	})
	return s
}

// update runs fn on the write path path picks — the whole store, the
// shards of keys, or the key latches of keys — so buffered and immediate
// edits, deletes before inserts and inserts before deletes, all meet the
// slab.
func (r *slabRun) update(path byte, keys []dataspace.InterestKey, fn func(w dataspace.Writer) error) error {
	switch path % 3 {
	case 0:
		return r.s.Update(1, fn)
	case 1:
		return r.s.UpdateKeys(1, keys, fn)
	}
	return r.s.UpdateCommuting(1, keys, fn)
}

// slabTuple is the tuple an argument byte names: arity 1 or 2, one of four
// integer leads, so buckets share leads, spill and empty again.
func slabTuple(arg byte) tuple.Tuple {
	lead := tuple.Int(int64(arg & 3))
	if arg&4 == 0 {
		return tuple.New(lead)
	}
	return tuple.New(lead, tuple.Int(int64(arg>>3)))
}

func keyOf(t tuple.Tuple) dataspace.InterestKey {
	return dataspace.InterestOf(t.Arity(), t.Field(0), true)
}

// step runs one two-byte operation, op then arg; the op's low three bits
// pick the kind and the next two the write path:
//
//	0     insert slabTuple(arg)
//	1     insert slabTuple(arg), then delete, from inside a Scan of its
//	      bucket (its arity if arg's top bit is set), every instance the
//	      scan visits, the new one too; none may be left, and at arity 2
//	      a ScanFields of the same update must not visit its equals
//	2     delete the live instance arg names
//	3     replace it: delete it, then insert its successor, as a
//	      read-modify-write does
//	4, 5  a failing update: insert slabTuple(arg) and slabTuple(arg+1),
//	      delete the live instance arg names and, if arg's top bit is
//	      set, the first of its own inserts, then fail; rollback must
//	      leave the store as it was
//	6     checkpoint the store and restore it into a fresh one
//	7     insert slabTuple(arg) three times in one Assert
func (r *slabRun) step(op, arg byte) {
	live := r.m.All()
	victim := func() (refmodel.Instance, bool) {
		if len(live) == 0 {
			return refmodel.Instance{}, false
		}
		return live[int(arg)%len(live)], true
	}
	path := op >> 3
	switch op & 7 {
	case 1:
		t := slabTuple(arg)
		key := keyOf(t)
		if arg&0x80 != 0 {
			key = dataspace.InterestOf(t.Arity(), tuple.Value{}, false)
		}
		scan := func(r dataspace.Reader, fn func(tuple.ID) bool) {
			r.Scan(key.Arity, key.Lead, key.LeadKnown, func(id tuple.ID, _ tuple.Tuple) bool { return fn(id) })
		}
		left := tuple.NoID
		if err := r.update(path, []dataspace.InterestKey{key}, func(w dataspace.Writer) error {
			w.Insert(t, 1)
			var err error
			scan(w, func(id tuple.ID) bool { err = w.Delete(id); return err == nil })
			if err == nil && t.Arity() == 2 {
				sels := []pattern.FieldSel{{Pos: 1, Val: t.Field(1)}}
				if key.LeadKnown {
					sels = append([]pattern.FieldSel{{Pos: 0, Val: key.Lead}}, sels...)
				}
				w.(pattern.FieldSource).ScanFields(2, sels, func(id tuple.ID, u tuple.Tuple) bool {
					if u.Equal(t) {
						left = id
					}
					return left == tuple.NoID
				})
			}
			return err
		}); err != nil {
			r.t.Fatal(err)
		}
		if left != tuple.NoID {
			r.t.Fatalf("#%d, deleted, is still visited by ScanFields in the update that deleted it", left)
		}
		r.s.Snapshot(func(rd dataspace.Reader) {
			scan(rd, func(id tuple.ID) bool { r.t.Fatalf("#%d survived the scan that deleted its bucket", id); return false })
		})
	case 0:
		t := slabTuple(arg)
		if err := r.update(path, []dataspace.InterestKey{keyOf(t)}, func(w dataspace.Writer) error {
			w.Insert(t, 1)
			return nil
		}); err != nil {
			r.t.Fatal(err)
		}
	case 2, 3:
		v, ok := victim()
		if !ok {
			return
		}
		next := slabTuple(arg + 8)
		if v.Tuple.Arity() == 2 {
			n, _ := v.Tuple.Field(1).AsInt()
			next = tuple.New(v.Tuple.Field(0), tuple.Int(n+1))
		}
		keys := []dataspace.InterestKey{keyOf(v.Tuple), keyOf(next)}
		if err := r.update(path, keys, func(w dataspace.Writer) error {
			if err := w.Delete(v.ID); err != nil {
				return err
			}
			if op&7 == 3 {
				w.Insert(next, 1)
			}
			return nil
		}); err != nil {
			r.t.Fatal(err)
		}
	case 4, 5:
		a, b := slabTuple(arg), slabTuple(arg+1)
		keys := []dataspace.InterestKey{keyOf(a), keyOf(b)}
		v, ok := victim()
		if ok {
			keys = append(keys, keyOf(v.Tuple))
		}
		if err := r.update(path, keys, func(w dataspace.Writer) error {
			own := w.Insert(a, 1)
			w.Insert(b, 1)
			if ok {
				if err := w.Delete(v.ID); err != nil {
					return err
				}
			}
			if arg&0x80 != 0 {
				if err := w.Delete(own); err != nil {
					return err
				}
			}
			return errFail
		}); !errors.Is(err, errFail) {
			r.t.Fatalf("failing update returned %v", err)
		}
	case 6:
		var buf bytes.Buffer
		if err := r.s.WriteCheckpoint(&buf); err != nil {
			r.t.Fatal(err)
		}
		r.s = r.open()
		if err := r.s.ReadCheckpoint(&buf); err != nil {
			r.t.Fatal(err)
		}
	case 7:
		t := slabTuple(arg)
		r.s.Assert(1, t, t, t)
	}
}

// check compares the store with the model, instance for instance, and
// checks the slab invariant.
func (r *slabRun) check(step int) {
	r.t.Helper()
	dataspace.CheckSlab(r.t, r.s)
	want := r.m.All()
	got := make(map[tuple.ID]dataspace.Instance, len(want))
	for _, inst := range r.s.All() {
		got[inst.ID] = inst
	}
	if len(got) != len(want) {
		r.t.Fatalf("step %d: the store holds %d instances, the model %d", step, len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.ID]
		if !ok || !g.Tuple.Equal(w.Tuple) || g.Owner != w.Owner {
			r.t.Fatalf("step %d: #%d is %v in the store (%t), %v in the model", step, w.ID, g.Tuple, ok, w.Tuple)
		}
		if h, ok := instGet(r.s, w.ID); !ok || !h.Tuple.Equal(w.Tuple) {
			r.t.Fatalf("step %d: Get(#%d) = %v, %t", step, w.ID, h.Tuple, ok)
		}
	}
}

func instGet(s *dataspace.Store, id tuple.ID) (inst dataspace.Instance, ok bool) {
	s.Snapshot(func(r dataspace.Reader) { inst, ok = r.Get(id) })
	return inst, ok
}

// FuzzStoreSlab drives a 2-shard store with random inserts, deletes (from
// inside a Scan too), read-modify-writes, failing updates and checkpoint
// restores over all three write paths, replays every commit record into the reference model,
// and after every step compares the two instance for instance and checks
// the slab invariant (checkSlab).
func FuzzStoreSlab(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 2, 0, 3, 1, 4, 0})
	f.Add([]byte{0, 4, 8, 4, 16, 4, 3, 0, 11, 0, 19, 0, 6, 0, 3, 1, 2, 0, 5, 0x80})
	// Fill one bucket past its inline words, restore it, then
	// read-modify-write and fail updates on every path.
	var ramp []byte
	for i := byte(0); i < 20; i++ {
		ramp = append(ramp, 7, 4+8*i)
	}
	ramp = append(ramp, 6, 0)
	for i := byte(0); i < 12; i++ {
		ramp = append(ramp, 3|i<<3, i, 4|i<<3, 0x80|i)
	}
	f.Add(ramp)
	// Fill two buckets of both arities, then empty each from inside a
	// Scan on every path, lead-known and arity-wide.
	f.Add([]byte{7, 4, 7, 12, 7, 0, 7, 1, 1, 4, 9, 0, 17, 0x84, 7, 4, 7, 1, 9, 0x85, 17, 0x80})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := &slabRun{t: t, m: &refmodel.Model{}}
		r.s = r.open()
		for i := 0; i+1 < len(script); i += 2 {
			r.step(script[i], script[i+1])
			r.check(i / 2)
		}
	})
}
