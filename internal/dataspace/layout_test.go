package dataspace

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// TestResidentBytesPerTuple guards the store's resident layout: a keyed
// store (one tuple per lead, the worst case for a per-bucket structure)
// costs at most the bound a tuple, all in — fields block, slab slot, ID-map
// entry, lead-index slot. The 3-field case is join-read's shape (133 B a
// tuple), the 2-field case upsert-durable's <k, v> counter (117); both grow
// their maps through Assert batches.
//
// The power-of-two case is upsert-durable's own store: 2 shards × 2¹⁷
// counters, restored from a checkpoint (136). A Go map presized for 2¹⁷
// entries is at its worst there — its table count rounds up to a power of
// two, which leaves it half full, and each 1 024-slot table is
// page-rounded — so an ID-keyed map of 32-byte slots would cost 80 B a
// tuple where the exactly-sized slab costs 32.
func TestResidentBytesPerTuple(t *testing.T) {
	rec := tuple.Atom("rec")
	for _, c := range []struct {
		name    string
		of      func(i int64) tuple.Tuple
		n       int
		restore bool
		bound   float64
	}{
		{"3-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), rec, tuple.Int(i%5000)) }, 50_000, false, 142},
		{"2-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(i%5000)) }, 50_000, false, 125},
		{"2-field-restored-2^18", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(0)) }, 1 << 18, true, 140},
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
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s := New(WithShards(2))
	if restore {
		insts := make([]Instance, n)
		for i := range insts {
			insts[i] = Instance{ID: tuple.ID(i + 1), Tuple: of(int64(i)), Owner: tuple.Environment}
		}
		if err := s.Restore(insts, 1); err != nil {
			t.Fatal(err)
		}
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
	after := heap()
	if got := s.Len(); got != n {
		t.Fatalf("loaded %d tuples, want %d", got, n)
	}
	runtime.KeepAlive(s)
	return float64(after-before) / float64(n)
}

// TestStoreLayout guards the per-tuple structures of the store: an
// Instance — a slab slot, and every commit record, checkpoint run and epoch
// snapshot entry — carries a 16-byte tuple header, and an idSet is two
// 4-byte slots with no pointer in them. Nor may the number map the sets sit
// in, a spill's slots, or the ID → slot map hold one, so the collector
// skips every number-keyed lead index and hot secondary shape, their
// spills, and at. A field that brought a pointer in would put them back on
// its scan list.
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
	num := reflect.TypeOf(idIndex{}.num)
	at := reflect.TypeOf(shard{}.at)
	slots, m := reflect.TypeOf(idSpill{}.slots), reflect.TypeOf(idSpill{}.m)
	for _, typ := range []reflect.Type{reflect.TypeOf(idSet{}), num.Key(), num.Elem(),
		at.Key(), at.Elem(), slots.Elem(), m.Key(), m.Elem()} {
		if path, ok := pointerFree(typ); !ok {
			t.Errorf("%v holds a pointer at %s: the collector would scan the index sets or the ID map", typ, path)
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
