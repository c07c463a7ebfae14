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
// costs at most the bound a tuple, all in — fields block, entries slot,
// lead-index slot. The 3-field case is join-read's shape: 457 measured
// before the store layout work, 243 before number buckets were keyed by
// their 8-byte word, 212 after, 164 since a Value is 16 bytes (its fields
// block went from 96 to 48 bytes), 136 since a Tuple is a 16-byte header
// and an idSet two pointer-free words (entries slot 40 → 32, number-map
// slot 32 → 24). The 2-field case is upsert-durable's <k, v> counter: 211,
// then 180, then 148 (a 32-byte block, not 64), then 120.
func TestResidentBytesPerTuple(t *testing.T) {
	rec := tuple.Atom("rec")
	for _, c := range []struct {
		name  string
		of    func(i int64) tuple.Tuple
		bound float64
	}{
		{"3-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), rec, tuple.Int(i%5000)) }, 145},
		{"2-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(i%5000)) }, 128},
	} {
		t.Run(c.name, func(t *testing.T) {
			per := residentBytesPerTuple(t, c.of)
			t.Logf("%.1f resident bytes per stored %s tuple", per, c.name)
			if per > c.bound {
				t.Errorf("%.1f resident bytes per tuple, want <= %.0f", per, c.bound)
			}
		})
	}
}

// residentBytesPerTuple loads a 2-shard store with 50 000 tuples of of(i)
// and returns the heap it holds per tuple.
func residentBytesPerTuple(t *testing.T, of func(i int64) tuple.Tuple) float64 {
	const n = 50_000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s := New(WithShards(2))
	batch := make([]tuple.Tuple, 0, 1000)
	for i := int64(0); i < n; i++ {
		batch = append(batch, of(i))
		if len(batch) == cap(batch) {
			s.Assert(tuple.Environment, batch...)
			batch = batch[:0]
		}
	}
	batch = nil
	after := heap()
	if got := s.Len(); got != n {
		t.Fatalf("loaded %d tuples, want %d", got, n)
	}
	runtime.KeepAlive(s)
	return float64(after-before) / n
}

// TestStoreLayout guards the per-tuple structures of the store: an
// Instance (commit records, checkpoint runs, epoch snapshots) and an
// entries slot carry a 16-byte tuple header, and an idSet is two IDs with
// no pointer in them — nor in the number map it sits in, so the collector
// skips every number-keyed lead index and hot secondary shape. A field
// that brought a pointer in would put them back on its scan list.
func TestStoreLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"Instance", unsafe.Sizeof(Instance{}), 32},
		{"entry", unsafe.Sizeof(entry{}), 24},
		{"idSet", unsafe.Sizeof(idSet{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
	num := reflect.TypeOf(idIndex{}.num)
	for _, typ := range []reflect.Type{reflect.TypeOf(idSet{}), num.Key(), num.Elem()} {
		if path, ok := pointerFree(typ); !ok {
			t.Errorf("%v holds a pointer at %s: the collector would scan the number buckets", typ, path)
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
