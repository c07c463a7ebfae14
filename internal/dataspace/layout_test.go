package dataspace

import (
	"runtime"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// TestResidentBytesPerTuple guards the store's resident layout: a keyed
// store (one tuple per lead, the worst case for a per-bucket structure) of
// 3-field tuples costs at most 300 bytes a tuple, all in — fields block,
// entries slot, lead-index slot. The parent of the change that introduced
// this test measured 457.
func TestResidentBytesPerTuple(t *testing.T) {
	const n = 50_000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rec := tuple.Atom("rec")
	before := heap()
	s := New(WithShards(2))
	batch := make([]tuple.Tuple, 0, 1000)
	for i := 0; i < n; i++ {
		batch = append(batch, tuple.New(tuple.Int(int64(i)), rec, tuple.Int(int64(i%5000))))
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
	per := float64(after-before) / n
	t.Logf("%.1f resident bytes per stored 3-field tuple", per)
	if per > 300 {
		t.Errorf("%.1f resident bytes per tuple, want <= 300", per)
	}
	runtime.KeepAlive(s)
}
