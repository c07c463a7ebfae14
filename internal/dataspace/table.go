package dataspace

import (
	"math/bits"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// table is an open-addressing hash table whose cells hold no key. A cell
// names tuples by their slab slot, and a probe reads the key back from the
// shard's slab: the ID table's cells are slots, keyed by their entry's ID, and
// an idIndex's cells are idSets, keyed by the canonical value of the field
// the index files under. So a table costs its cells and nothing else, and
// it holds no pointer, so the collector skips it.
//
// Probing is linear from a key's home cell. A zero cell is empty — slot 0
// is reserved, and a zero idSet is the empty set — so the table needs no
// control bytes. A delete shifts the cells of its chain back into the gap
// (backward-shift deletion) and leaves no tombstone, so a table grows only
// when its count would pass ¾ of its cells, never under churn at a steady
// count.
//
// Key matching and growth are the users' part; the table moves cells, and a
// delete's shift takes a hash function that reads a cell's key. A user
// grows its table by walking the slab in slot order and refiling into a
// doubled array what it finds there, so growth reads the slab, and the
// fields blocks a bulk load allocates in the same order, front to back
// instead of at random. Every filed key must stay readable while it is
// filed: shard.place fills a slot before it files it, and
// shard.vacate unfiles it before it clears the slot.
type table[C comparable] struct {
	cells []C // nil, or a power of two of at least minTableCells
	n     int // the non-empty cells
}

const minTableCells = 8

// tableCells returns the cells a table needs to hold n keys at a load of at
// most ¾.
func tableCells(n int) int {
	c := minTableCells
	for c*3 < n*4 {
		c <<= 1
	}
	return c
}

// newTable returns a table sized once for n keys.
func newTable[C comparable](n int) table[C] {
	return table[C]{cells: make([]C, tableCells(n))}
}

func (t *table[C]) len() int { return t.n }

// room reports whether one more key fits at a load of at most ¾.
func (t *table[C]) room() bool { return (t.n+1)*4 <= len(t.cells)*3 }

// grown returns the cells a table without room grows to.
func (t *table[C]) grown() int { return max(minTableCells, 2*len(t.cells)) }

// home returns the cell a probe for key hash h starts from: the top bits of
// a Fibonacci multiply of h with its high half folded into its low half, so
// keys whose low bits are all zero (the float bits of small integers)
// spread like sequential IDs do. The table must have cells.
func (t *table[C]) home(h uint64) int {
	h ^= h >> 32
	return int((h * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros(uint(len(t.cells)))))
}

// next returns the cell after i, wrapping around the array.
func (t *table[C]) next(i int) int { return (i + 1) & (len(t.cells) - 1) }

// insert files c, whose key hashes to h and is not filed yet, in the first
// empty cell of h's chain. The table has room.
func (t *table[C]) insert(h uint64, c C) {
	var empty C
	i := t.home(h)
	for t.cells[i] != empty {
		i = t.next(i)
	}
	t.cells[i] = c
	t.n++
}

// removeAt empties cell i, moving back into the gap each later cell of the
// chain whose home is not between the gap and the cell, so every probe
// still reaches its key without crossing an empty cell.
func (t *table[C]) removeAt(i int, hash func(C) uint64) {
	var empty C
	mask := len(t.cells) - 1
	for j := t.next(i); t.cells[j] != empty; j = t.next(j) {
		if (j-t.home(hash(t.cells[j])))&mask >= (j-i)&mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = empty
	t.n--
}

// idTable finds a live instance's slot from its ID: a table of slots, each
// keyed by its slab slot's ID, which is the only copy of the ID. The by-ID
// paths — Get, Delete, applyBuffered's deletes and ApplyRecovered —
// consult it, and its count is the shard's live count.
type idTable struct{ table[uint32] }

// find returns the slot holding id.
func (it *idTable) find(sl *slab, id tuple.ID) (uint32, bool) {
	if it.n == 0 {
		return 0, false
	}
	for i := it.home(uint64(id)); ; i = it.next(i) {
		switch slot := it.cells[i]; {
		case slot == 0:
			return 0, false
		case sl.slots[slot].id == id:
			return slot, true
		}
	}
}

// add files a slot whose instance is new to the table.
func (it *idTable) add(sl *slab, slot uint32) {
	if !it.room() {
		it.refile(sl, it.grown()) // files slot with the rest
		return
	}
	it.insert(uint64(sl.slots[slot].id), slot)
}

// refile remakes the table with size cells and files every live slot of
// the slab in it. Every caller holds the slab's live slots filed but for at
// most the one it is adding.
func (it *idTable) refile(sl *slab, size int) {
	it.table = table[uint32]{cells: make([]uint32, size)}
	for slot, e := range sl.slots {
		if e.id != tuple.NoID {
			it.insert(uint64(e.id), uint32(slot))
		}
	}
}

// remove unfiles a filed slot, which still holds its instance. The cell is
// found by its slot, so the probe reads no key.
func (it *idTable) remove(sl *slab, slot uint32) {
	for i := it.home(uint64(sl.slots[slot].id)); ; i = it.next(i) {
		switch it.cells[i] {
		case slot:
			it.removeAt(i, func(s uint32) uint64 { return uint64(sl.slots[s].id) })
			return
		case 0:
			panic("dataspace: the ID table lost a live slot")
		}
	}
}
