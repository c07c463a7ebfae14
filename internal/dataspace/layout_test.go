package dataspace

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// TestResidentBytesPerTuple guards the store's resident layout: a keyed
// store (one tuple per lead, the worst case for a per-bucket structure)
// costs at most the bound a tuple, all in — fields block, slab slot, ID
// table cell, lead-index cell. The 3-field case is join-read's shape (117 B
// a tuple), the 2-field case upsert-durable's <k, v> counter (101); both
// grow their tables through Assert batches, to 2¹⁶ cells for 25 k keys a
// shard.
//
// The power-of-two case is upsert-durable's own store: 2 shards × 2¹⁷
// counters, restored from a checkpoint (88). Each shard's tables hold 2¹⁷
// keys in 2¹⁸ cells: 8 B a tuple for the ID table, 16 for the lead index.
// The Go maps they replaced cost 36 B a tuple each there.
func TestResidentBytesPerTuple(t *testing.T) {
	rec := tuple.Atom("rec")
	for _, c := range []struct {
		name    string
		of      func(i int64) tuple.Tuple
		n       int
		restore bool
		bound   float64
	}{
		{"3-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), rec, tuple.Int(i%5000)) }, 50_000, false, 123},
		{"2-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(i%5000)) }, 50_000, false, 106},
		{"2-field-restored-2^18", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(0)) }, 1 << 18, true, 95},
	} {
		t.Run(c.name, func(t *testing.T) {
			per := residentBytesPerTuple(t, c.n, c.restore, c.of)
			t.Logf("%.1f resident bytes per stored %s tuple", per, c.name)
			if per > c.bound {
				t.Errorf("%.1f resident bytes per tuple, want <= %.0f", per, c.bound)
			}
		})
	}
}

// residentBytesPerTuple loads a 2-shard store with n tuples of of(i) —
// through 1 000-tuple Asserts, or through one Restore of IDs 1..n — and
// returns the heap it holds per tuple.
func residentBytesPerTuple(t *testing.T, n int, restore bool, of func(i int64) tuple.Tuple) float64 {
	before := liveHeap()
	s := New(WithShards(2))
	if restore {
		restoreTuples(t, s, n, of)
	} else {
		batch := make([]tuple.Tuple, 0, 1000)
		for i := int64(0); i < int64(n); i++ {
			batch = append(batch, of(i))
			if len(batch) == cap(batch) {
				s.Assert(tuple.Environment, batch...)
				batch = batch[:0]
			}
		}
	}
	after := liveHeap()
	if got := s.Len(); got != n {
		t.Fatalf("loaded %d tuples, want %d", got, n)
	}
	runtime.KeepAlive(s)
	return float64(after-before) / float64(n)
}

// liveHeap returns the bytes the heap holds after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// restoreTuples restores n tuples of(i), as IDs 1..n, into the empty s.
func restoreTuples(t *testing.T, s *Store, n int, of func(i int64) tuple.Tuple) {
	insts := make([]Instance, n)
	for i := range insts {
		insts[i] = Instance{ID: tuple.ID(i + 1), Tuple: of(int64(i)), Owner: tuple.Environment}
	}
	if err := s.Restore(insts, 1); err != nil {
		t.Fatal(err)
	}
}

// TestChurnKeepsResidentBytes: a restored 2-shard store of 2¹⁵ counters
// takes 16 uniform read-modify-writes per tuple through UpdateKeys, each
// retiring one ID and minting the next, and holds no more than 2 B a tuple
// more than it did restored. Neither index table holds a tombstone, so the
// same keys churning through the same count of cells never grow one; the
// Go maps they replaced (Go 1.24's, which clears no tombstone in place)
// grew 136.8 → 173.1 B a tuple here.
func TestChurnKeepsResidentBytes(t *testing.T) {
	const n = 1 << 15
	counter := func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(0)) }
	before := liveHeap()
	s := New(WithShards(2))
	restoreTuples(t, s, n, counter)
	restored := liveHeap()
	r := rand.New(rand.NewSource(testSeed(35)))
	for range 16 * n {
		k := tuple.Int(r.Int63n(n))
		err := s.UpdateKeys(1, []InterestKey{InterestOf(2, k, true)}, func(w Writer) error {
			var id tuple.ID
			var v int64
			w.Scan(2, k, true, func(got tuple.ID, tup tuple.Tuple) bool {
				id = got
				v, _ = tup.Field(1).AsInt()
				return false
			})
			if err := w.Delete(id); err != nil {
				return err
			}
			w.Insert(tuple.New(k, tuple.Int(v+1)), 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	churned := liveHeap()
	if got := s.Len(); got != n {
		t.Fatalf("the store holds %d tuples after churn, want %d", got, n)
	}
	runtime.KeepAlive(s)
	from, to := float64(restored-before)/n, float64(churned-before)/n
	t.Logf("%.1f -> %.1f resident bytes per tuple over %d read-modify-writes", from, to, 16*n)
	if to > from+2 {
		t.Errorf("churn grew the store from %.1f to %.1f resident bytes per tuple, want at most %.1f", from, to, from+2)
	}
}

// TestStoreLayout guards the per-tuple structures of the store: an
// Instance — a slab slot, and every commit record, checkpoint run and epoch
// snapshot entry — carries a 16-byte tuple header, and an idSet is two
// 4-byte slots with no pointer in them. Nor may the cells of the ID table
// (slots) and of an idIndex's table (sets), or a spill's slots, hold one, so
// the collector skips the ID table, every lead index and hot secondary
// shape, and their spills. A field that brought a pointer in would put
// them back on its scan list.
func TestStoreLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"Instance", unsafe.Sizeof(Instance{}), 32},
		{"idSet", unsafe.Sizeof(idSet{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
	ids := reflect.TypeOf(idTable{}.cells)
	sets := reflect.TypeOf(idIndex{}.sets.cells)
	slots, m := reflect.TypeOf(idSpill{}.slots), reflect.TypeOf(idSpill{}.m)
	for _, typ := range []reflect.Type{ids.Elem(), sets.Elem(), slots.Elem(), m.Key(), m.Elem()} {
		if path, ok := pointerFree(typ); !ok {
			t.Errorf("%v holds a pointer at %s: the collector would scan the index tables or the ID table", typ, path)
		}
	}
}

// pointerFree reports whether typ holds no pointer the collector must
// scan, and where the first one is if it does.
func pointerFree(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Array:
		if typ.Len() == 0 {
			return "", true
		}
		path, ok := pointerFree(typ.Elem())
		return "[]" + path, ok
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if path, ok := pointerFree(f.Type); !ok {
				return "." + f.Name + path, false
			}
		}
		return "", true
	}
	return " (" + typ.Kind().String() + ")", false
}
