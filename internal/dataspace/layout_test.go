package dataspace

import (
	"runtime"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// TestResidentBytesPerTuple guards the store's resident layout: a keyed
// store (one tuple per lead, the worst case for a per-bucket structure)
// costs at most the bound a tuple, all in — fields block, entries slot,
// lead-index slot. The 3-field case is join-read's shape: 457 measured
// before the store layout work, 243 before number buckets were keyed by
// their 8-byte word, 212 after, 164 since a Value is 16 bytes (its fields
// block went from 96 to 48 bytes). The 2-field case is upsert-durable's
// <k, v> counter: 211, then 180, then 148 (a 32-byte block, not 64).
func TestResidentBytesPerTuple(t *testing.T) {
	rec := tuple.Atom("rec")
	for _, c := range []struct {
		name  string
		of    func(i int64) tuple.Tuple
		bound float64
	}{
		{"3-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), rec, tuple.Int(i%5000)) }, 170},
		{"2-field", func(i int64) tuple.Tuple { return tuple.New(tuple.Int(i), tuple.Int(i%5000)) }, 155},
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
