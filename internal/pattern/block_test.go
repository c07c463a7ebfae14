package pattern

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// TestBlockCutsDoNotAlias: each cut is a full slice, so an append to one
// cut reallocates instead of writing into the next cut of the same block.
func TestBlockCutsDoNotAlias(t *testing.T) {
	var b Block
	b.Open(8)
	first, second := b.cut(2), b.cut(2)
	second[0], second[1] = tuple.Int(1), tuple.Int(2)
	_ = append(first, tuple.Int(99))
	if !second[0].Equal(tuple.Int(1)) || !second[1].Equal(tuple.Int(2)) {
		t.Errorf("an append to one cut wrote into the next: %v", second)
	}
	if cap(first) != 2 || cap(second) != 2 {
		t.Errorf("cuts of 2 have capacities %d and %d, want 2", cap(first), cap(second))
	}
	if unsafe.SliceData(second) != &unsafe.Slice(unsafe.SliceData(first), 4)[2] {
		t.Error("consecutive cuts are not adjacent in one block")
	}
}

// TestBlockSizes: the first block holds the width Open asks for (at most
// 63), each later one twice its predecessor up to 63, a tuple wider than 63
// gets a heap block of its own, a nil Block allocates per tuple, and arity 0
// cuts nothing.
func TestBlockSizes(t *testing.T) {
	var b Block
	b.Open(3)
	b.Open(50) // b has a block: no effect
	var sizes []uint16
	for i := 0; i < 12; i++ {
		base := b.base
		b.cut(3)
		if b.base != base {
			sizes = append(sizes, b.size)
		}
	}
	want := []uint16{6, 12, 24} // 3, then each twice the last (the 12 cuts take 36 values)
	if len(sizes) != len(want) || b.size != 24 {
		t.Fatalf("blocks after the first: %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("blocks after the first: %v, want %v", sizes, want)
		}
	}
	for i := 0; i < 40; i++ {
		b.cut(3)
	}
	if b.size != blockCap {
		t.Errorf("a block of %d values, want at most %d", b.size, blockCap)
	}
	base, used := b.base, b.used
	if wide := b.cut(blockCap + 1); len(wide) != blockCap+1 || b.base != base || b.used != used {
		t.Errorf("a cut of %d values: %d values, block moved %v", blockCap+1, len(wide), b.base != base)
	}
	if zero := b.cut(0); zero != nil || b.used != used {
		t.Errorf("arity 0 cut %v, used %d values", zero, b.used-used)
	}
	var none *Block
	if got := none.cut(2); len(got) != 2 || cap(got) != 2 {
		t.Errorf("a nil block cut %d values (cap %d), want 2", len(got), cap(got))
	}
	var big Block
	big.Open(500)
	if big.size != blockCap {
		t.Errorf("Open(500) made a block of %d values, want %d", big.size, blockCap)
	}
}

// TestGroundIn: a tuple grounded into a block equals the one Ground builds,
// a literal is returned as built without a cut, and GroundWidth counts the
// values the non-literal patterns cut.
func TestGroundIn(t *testing.T) {
	env := expr.Env{"x": tuple.Int(7)}
	p := P(C(tuple.Atom("a")), V("x"), E(expr.Add(expr.V("x"), expr.Const(tuple.Int(1)))))
	lit := P(C(tuple.Atom("b")), C(tuple.Int(1))).Literal(make([]tuple.Value, 2))
	if w := GroundWidth([]Pattern{p, lit, p}); w != 6 {
		t.Errorf("GroundWidth = %d, want 6 (two non-literal patterns of arity 3)", w)
	}
	var b Block
	got, err := p.GroundIn(env, &b)
	want, _ := p.Ground(env)
	if err != nil || !got.Equal(want) || b.used != 3 {
		t.Errorf("GroundIn = %v (err %v, %d values cut), want %v from 3", got, err, b.used, want)
	}
	if l, _ := lit.GroundIn(env, &b); !l.Equal(tuple.New(tuple.Atom("b"), tuple.Int(1))) || b.used != 3 {
		t.Errorf("a literal grounded to %v and cut %d values, want <b, 1> and none", l, b.used-3)
	}
}

// TestBlockAllocSizeClass: a full block takes the 1 024 B size class, not the
// next one up: its values and the allocator's 8-byte header (an object over
// 512 B that holds pointers carries one) fit in 1 KiB.
func TestBlockAllocSizeClass(t *testing.T) {
	skipUnderRace(t)
	const n = 1000
	best := ^uint64(0)
	for trial := 0; trial < 5; trial++ { // the least of five: another goroutine may allocate meanwhile
		blocks := make([]Block, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range blocks {
			blocks[i].Open(blockCap)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/n)
		runtime.KeepAlive(blocks)
	}
	if best > 1024 {
		t.Errorf("a full block of %d values takes %d B, want <= 1024", blockCap, best)
	}
}

// TestBlockAllocFollowsOpenWidth: after its first block a Block sizes the
// next by what is left of the width Open announced, so the 128 values of a
// 64-member barrier fire's <passed, id> tuples take blocks of 63, 63 and 4
// values — 2 × 1 024 B + 64 B in three allocations — not three full ones.
func TestBlockAllocFollowsOpenWidth(t *testing.T) {
	skipUnderRace(t)
	const members, rounds = 64, 100
	var b Block
	b.Open(2 * members)
	sizes := []uint16{b.size}
	for i := 0; i < members; i++ {
		base := b.base
		b.cut(2)
		if b.base != base {
			sizes = append(sizes, b.size)
		}
	}
	if want := []uint16{63, 63, 4}; !slices.Equal(sizes, want) {
		t.Fatalf("blocks %v for %d cuts of 2 after Open(%d), want %v", sizes, members, 2*members, want)
	}
	best, mallocs := ^uint64(0), ^uint64(0)
	for trial := 0; trial < 5; trial++ { // the least of five: another goroutine may allocate meanwhile
		blocks := make([]Block, rounds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := range blocks {
			blocks[r].Open(2 * members)
			for i := 0; i < members; i++ {
				blocks[r].cut(2)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/rounds)
		mallocs = min(mallocs, (after.Mallocs-before.Mallocs)/rounds)
		runtime.KeepAlive(blocks)
	}
	if best > 2*1024+64 || mallocs > 3 {
		t.Errorf("a fire's 128 values take %d B in %d allocations, want <= %d B in 3", best, mallocs, 2*1024+64)
	}
}
