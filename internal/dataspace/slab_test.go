package dataspace

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// checkSlab checks every shard's slab against its ID table, its free list
// and its indexes, under the read locks of the whole store:
//
//   - slot 0 is reserved, and every live slot's ID finds that slot in the
//     ID table, whose count is the live count;
//   - the vacant slots are exactly the free list, each once, and pin no
//     tuple, and the wide map holds exactly the live slots whose entry
//     carries wideMark;
//   - every set of the lead index and of each current hot shape names only
//     live slots whose tuple files under that bucket, and each index files
//     every live tuple of its arity once;
//   - every table (checkTable) reaches each of its cells from the cell's
//     home, and every member of an index set derives its cell's key;
//   - an arity is indexed only while the shard holds a tuple of it;
//   - Len equals the live count.
func checkSlab(t testing.TB, s *Store) {
	t.Helper()
	total := 0
	s.Snapshot(func(r Reader) {
		for si, sh := range s.shards {
			total += checkShardSlab(t, s, uint32(si), sh)
		}
		if r.Len() != total {
			t.Fatalf("Len() = %d, but the slabs hold %d live slots", r.Len(), total)
		}
	})
}

// checkShardSlab is checkSlab for one shard; it returns the live count.
func checkShardSlab(t testing.TB, s *Store, si uint32, sh *shard) int {
	t.Helper()
	slots := sh.slab.slots
	if len(slots) == 0 || !reflect.ValueOf(slots[0]).IsZero() {
		t.Fatalf("shard %d: slot 0 is not reserved", si)
	}
	free := make(map[uint32]bool, len(sh.vacant))
	for _, slot := range sh.vacant {
		if slot == 0 || int(slot) >= len(slots) || free[slot] {
			t.Fatalf("shard %d: the free list holds slot %d twice or outside the %d-slot slab", si, slot, len(slots))
		}
		free[slot] = true
	}
	live, wide, ofArity := 0, 0, map[int]int{}
	for slot := 1; slot < len(slots); slot++ {
		if slots[slot].id == tuple.NoID {
			if !free[uint32(slot)] || !reflect.ValueOf(slots[slot]).IsZero() {
				t.Fatalf("shard %d: vacant slot %d is off the free list (%t) or pins a tuple", si, slot, !free[uint32(slot)])
			}
			continue
		}
		inst := sh.slab.instAt(uint32(slot))
		if free[uint32(slot)] {
			t.Fatalf("shard %d: live slot %d (#%d) is on the free list", si, slot, inst.ID)
		}
		if _, ok := sh.slab.wide[uint32(slot)]; ok != (slots[slot].word>>ownerBits == wideMark) {
			t.Fatalf("shard %d: live slot %d (#%d) is in the wide map %t, its entry's word %#x", si, slot, inst.ID, ok, slots[slot].word)
		} else if ok {
			wide++
		}
		if at, ok := sh.ids.find(&sh.slab, inst.ID); !ok || at != uint32(slot) {
			t.Fatalf("shard %d: #%d sits in slot %d, but the ID table finds it in %d (%t)", si, inst.ID, slot, at, ok)
		}
		if home := s.shardIndex(indexKeyOf(inst.Tuple)); home != si {
			t.Fatalf("shard %d: #%d %v is homed on shard %d", si, inst.ID, inst.Tuple, home)
		}
		live++
		ofArity[inst.Tuple.Arity()]++
	}
	if sh.ids.len() != live || len(sh.slab.wide) != wide {
		t.Fatalf("shard %d: the ID table counts %d IDs and the wide map %d slots, the slab holds %d live slots, %d wide", si, sh.ids.len(), len(sh.slab.wide), live, wide)
	}
	checkTable(t, fmt.Sprintf("shard %d: ID table", si), &sh.ids.table, func(s uint32) uint64 { return uint64(slots[s].id) })

	// filed walks one index of the arity's tuples at field pos (0: the lead
	// index) and checks each set against the slab.
	filed := func(what string, a, pos int, ix *idIndex) {
		if ix.pos != pos {
			t.Fatalf("shard %d: the %s of arity %d at field %d keys field %d", si, what, a, pos, ix.pos)
		}
		checkIndexTable(t, &sh.slab, ix)
		seen := make(map[uint32]bool)
		ix.each(func(set idView) bool {
			k := ix.keyOf(&sh.slab, set.idSet)
			if set.len() == 0 {
				t.Fatalf("shard %d: %s bucket %v is empty but present", si, what, k)
			}
			set.each(func(slot uint32) bool {
				if int(slot) >= len(slots) || slots[slot].id == tuple.NoID || seen[slot] {
					t.Fatalf("shard %d: %s bucket %v names slot %d, vacant, outside the slab or twice", si, what, k, slot)
				}
				seen[slot] = true
				tup := sh.slab.instAt(slot).Tuple
				if tup.Arity() != a || (a > 0 && canonLead(tup.Field(pos)) != k) || (a == 0 && k != leadKey{}) {
					t.Fatalf("shard %d: %s bucket %v of arity %d names slot %d holding %v", si, what, k, a, slot, tup)
				}
				return true
			})
			return true
		})
		if len(seen) != ofArity[a] {
			t.Fatalf("shard %d: the %s files %d tuples of arity %d, the slab holds %d", si, what, len(seen), a, ofArity[a])
		}
	}
	for a, ai := range sh.byArity {
		if ai.n == 0 {
			t.Fatalf("shard %d: arity %d is indexed but holds no tuple", si, a)
		}
		if ai.n != ofArity[a] {
			t.Fatalf("shard %d: arity %d counts %d tuples, the slab holds %d", si, a, ai.n, ofArity[a])
		}
		filed("lead index", a, 0, &ai.leads)
	}
	for a, n := range ofArity {
		if sh.byArity[a] == nil {
			t.Fatalf("shard %d: %d tuples of arity %d and no lead index", si, n, a)
		}
	}
	for a := 2; a <= maxFieldArity; a++ {
		for pos := 1; pos < a; pos++ {
			if idx := sh.sec.shapes[a][pos].idx.Load(); idx != nil && idx.seq == sh.seq.Load() {
				filed("hot shape", a, pos, &idx.buckets)
			}
		}
	}
	return live
}

// checkTable checks a table's shape — no cells, or a power of two of at
// least minTableCells at a load of at most ¾ — its count, and that a probe
// reaches every non-empty cell from the cell's home (hash reads its key)
// without crossing an empty cell.
func checkTable[C comparable](t testing.TB, what string, tb *table[C], hash func(C) uint64) {
	t.Helper()
	var empty C
	size := len(tb.cells)
	if size == 0 {
		if tb.n != 0 {
			t.Fatalf("%s: counts %d keys and has no cells", what, tb.n)
		}
		return
	}
	if size < minTableCells || size&(size-1) != 0 || tb.n*4 > size*3 {
		t.Fatalf("%s: %d keys in %d cells", what, tb.n, size)
	}
	n := 0
	for i, c := range tb.cells {
		if c == empty {
			continue
		}
		n++
		for j := tb.home(hash(c)); j != i; j = tb.next(j) {
			if tb.cells[j] == empty {
				t.Fatalf("%s: cell %d is cut off from its home %d by the empty cell %d", what, i, tb.home(hash(c)), j)
			}
		}
	}
	if n != tb.n {
		t.Fatalf("%s: counts %d keys in %d non-empty cells", what, tb.n, n)
	}
}

// checkIndexTable checks an idIndex's table (checkTable), that every set
// has a key member, whose tuple its key is read from, and that every
// member of each set derives the set's key, which no other set has.
func checkIndexTable(t testing.TB, slab *slab, ix *idIndex) {
	t.Helper()
	ix.each(func(set idView) bool {
		if ix.keySlot(set.idSet) == 0 {
			t.Fatalf("the set %#x holds %d members and no key member", set.idSet, set.len())
		}
		return true
	})
	checkTable(t, "index table", &ix.sets, func(s idSet) uint64 { return leadHash(ix.keyOf(slab, s)) })
	keys := make(map[leadKey]bool, ix.len())
	ix.each(func(set idView) bool {
		k := ix.keyOf(slab, set.idSet)
		if keys[k] {
			t.Fatalf("two sets of one index are filed under %v", k)
		}
		keys[k] = true
		set.each(func(slot uint32) bool {
			if got := leadAt(slab.instAt(slot).Tuple, ix.pos); got != k {
				t.Fatalf("the set filed under %v holds slot %d, whose tuple %v files under %v", k, slot, slab.instAt(slot).Tuple, got)
			}
			return true
		})
		return true
	})
}

// TestRestoredSlabDoesNotGrow: a restored slab is sized to its shard's share
// exactly, and a read-modify-write refills the slot its delete frees, on
// the key path (whose buffered deletes apply first) and on the shard path
// (Delete, then Insert) alike, so the slab keeps its length and array.
func TestRestoredSlabDoesNotGrow(t *testing.T) {
	const n = 1000
	insts := make([]Instance, n)
	for i := range insts {
		insts[i] = Instance{ID: tuple.ID(i + 1), Tuple: tuple.New(tuple.Int(int64(i)), tuple.Int(0)), Owner: 1}
	}
	s := New(WithShards(2))
	if err := s.Restore(insts, 1); err != nil {
		t.Fatal(err)
	}
	type shape struct{ len, cap int }
	before := make([]shape, len(s.shards))
	for si, sh := range s.shards {
		if len(sh.slab.slots) != cap(sh.slab.slots) {
			t.Fatalf("shard %d: restored slab has %d of %d slots in use", si, len(sh.slab.slots), cap(sh.slab.slots))
		}
		before[si] = shape{len(sh.slab.slots), cap(sh.slab.slots)}
	}
	rmw := func(w Writer, k int64) error {
		var id tuple.ID
		var v int64
		w.Scan(2, tuple.Int(k), true, func(got tuple.ID, tup tuple.Tuple) bool {
			id = got
			v, _ = tup.Field(1).AsInt()
			return false
		})
		if err := w.Delete(id); err != nil {
			return err
		}
		w.Insert(tuple.New(tuple.Int(k), tuple.Int(v+1)), 1)
		return nil
	}
	for k := int64(0); k < 100; k++ {
		keys := []InterestKey{InterestOf(2, tuple.Int(k), true)}
		if err := s.UpdateCommuting(1, keys, func(w Writer) error { return rmw(w, k) }); err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateKeys(1, keys, func(w Writer) error { return rmw(w, k) }); err != nil {
			t.Fatal(err)
		}
	}
	for si, sh := range s.shards {
		if got := (shape{len(sh.slab.slots), cap(sh.slab.slots)}); got != before[si] {
			t.Errorf("shard %d: slab went from %+v to %+v slots over read-modify-writes", si, before[si], got)
		}
	}
	checkSlab(t, s)
}

// TestRestoreSizesTables: Restore sizes each shard's ID table and lead
// index once for its share, so a keyed store's tables hold its tuples at
// the lowest size that keeps them at most ¾ full, and a lead index whose
// tuples repeat leads is cut down to its buckets.
func TestRestoreSizesTables(t *testing.T) {
	for _, c := range []struct {
		name  string
		of    func(i int64) tuple.Tuple
		leads func(share int) int
	}{
		{"keyed", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(0)) }, func(share int) int { return share }},
		{"one lead", func(i int64) tuple.Tuple { return tuple.New(tuple.Atom("rec"), tuple.Int(i)) }, func(int) int { return 1 }},
	} {
		s := New(WithShards(2))
		insts := make([]Instance, 5000)
		for i := range insts {
			insts[i] = Instance{ID: tuple.ID(i + 1), Tuple: c.of(int64(i)), Owner: 1}
		}
		if err := s.Restore(insts, 1); err != nil {
			t.Fatal(err)
		}
		for si, sh := range s.shards {
			share := sh.ids.len()
			if share == 0 {
				continue
			}
			if got, want := len(sh.ids.cells), tableCells(share); got != want {
				t.Errorf("%s: shard %d's ID table has %d cells for %d IDs, want %d", c.name, si, got, share, want)
			}
			leads := sh.byArity[2].leads
			if got, want := len(leads.sets.cells), tableCells(leads.len()); leads.len() != c.leads(share) || got != want {
				t.Errorf("%s: shard %d's lead index has %d cells for %d buckets, want %d for %d", c.name, si, got, leads.len(), want, c.leads(share))
			}
		}
		checkSlab(t, s)
	}
}

// TestEmptiedArityIsDropped: an arity is indexed exactly while a shard holds
// a tuple of it. A commit that empties one keeps it (n == 0) until it
// publishes, so a read-modify-write of a shard's only tuple of an arity
// keeps its index, while a delete alone drops it — on the shard path, the
// key path and in recovery — and a failed update drops an arity only its
// inserts had made.
func TestEmptiedArityIsDropped(t *testing.T) {
	s := New(WithShards(1))
	sh := s.shards[0]
	rec := func(k int64) tuple.Tuple { return tuple.New(tuple.Atom("rec"), tuple.Int(k), tuple.Int(0)) }
	only := func(w Writer) tuple.ID {
		var id tuple.ID
		w.Scan(3, tuple.Atom("rec"), true, func(got tuple.ID, _ tuple.Tuple) bool { id = got; return false })
		return id
	}
	indexed := func(when string, want bool) {
		t.Helper()
		if got := sh.byArity[3] != nil; got != want {
			t.Fatalf("%s: arity 3 indexed = %t, want %t", when, got, want)
		}
		checkSlab(t, s)
	}
	keys := []InterestKey{InterestOf(3, tuple.Atom("rec"), true)}
	insert := func(w Writer) error { w.Insert(rec(1), 1); return nil }

	if err := s.Update(1, insert); err != nil {
		t.Fatal(err)
	}
	ai := sh.byArity[3]
	if err := s.Update(1, func(w Writer) error {
		if err := w.Delete(only(w)); err != nil {
			return err
		}
		if got := w.Arities(); len(got) != 0 {
			t.Errorf("Arities = %v inside the update that emptied arity 3", got)
		}
		w.Insert(rec(2), 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	indexed("shard-path read-modify-write", true)
	if sh.byArity[3] != ai {
		t.Fatal("a read-modify-write remade the arity's index")
	}
	if err := s.Update(1, func(w Writer) error { return w.Delete(only(w)) }); err != nil {
		t.Fatal(err)
	}
	indexed("shard-path delete", false)

	if err := s.Update(1, func(w Writer) error { insert(w); return errors.New("fail") }); err == nil {
		t.Fatal("the failing update committed")
	}
	indexed("rolled-back insert", false)

	if err := s.UpdateCommuting(1, keys, insert); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateCommuting(1, keys, func(w Writer) error { return w.Delete(only(w)) }); err != nil {
		t.Fatal(err)
	}
	indexed("key-path delete", false)

	if err := s.ApplyRecovered(CommitRecord{Version: s.Version() + 1, Inserted: []Instance{{ID: 100, Tuple: rec(3), Owner: 1}}}); err != nil {
		t.Fatal(err)
	}
	indexed("recovered insert", true)
	if err := s.ApplyRecovered(CommitRecord{Version: s.Version() + 2, Deleted: []Instance{{ID: 100, Tuple: rec(3), Owner: 1}}}); err != nil {
		t.Fatal(err)
	}
	indexed("recovered delete", false)
}
