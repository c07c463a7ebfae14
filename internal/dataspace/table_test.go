package dataspace

import (
	"fmt"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// homedSlab is an ID table's slab whose IDs the test picks by the cell
// they are homed on in a table of the given size. ids keeps each slot's ID
// after the slot is vacated.
type homedSlab struct {
	t     *testing.T
	cells int
	slab  slab
	ids   []tuple.ID
	next  tuple.ID // the smallest ID not yet tried
}

// add puts a new instance in the slab whose ID is homed on cell h, and
// returns its slot.
func (hs *homedSlab) add(h int) uint32 {
	probe := table[uint32]{cells: make([]uint32, hs.cells)}
	for ; hs.next < 1<<20; hs.next++ {
		if probe.home(uint64(hs.next)) == h {
			hs.slab.slots = append(hs.slab.slots, entry{id: hs.next, word: 1})
			hs.ids = append(hs.ids, hs.next)
			hs.next++
			return uint32(len(hs.slab.slots) - 1)
		}
	}
	hs.t.Fatalf("no ID below 2^20 is homed on cell %d of %d", h, hs.cells)
	return 0
}

// TestTableShiftsAndGrows drives an ID table of 8 cells through the chains
// backward-shift deletion must handle: a chain that wraps past the array's
// end shifts back across it, a cell whose home lies between the gap and the
// cell stays put, and an add that finds the table full grows it, refiling
// the slab's live slots, while its key's home is in the middle of a chain;
// the removals after it shift chains of the grown table. After every edit
// the table's invariants hold (checkTable) and each filed slot, and no
// vacated one, is found from its ID.
func TestTableShiftsAndGrows(t *testing.T) {
	hs := &homedSlab{t: t, cells: minTableCells, slab: slab{slots: make([]entry, 1)}, ids: make([]tuple.ID, 1), next: 1}
	var it idTable
	filed := map[uint32]bool{}
	check := func(when string, want map[int]uint32) {
		t.Helper()
		checkTable(t, when, &it.table, func(s uint32) uint64 { return uint64(hs.slab.slots[s].id) })
		if it.len() != len(filed) {
			t.Fatalf("%s: %d slots filed, the table counts %d", when, len(filed), it.len())
		}
		for slot := uint32(1); slot < uint32(len(hs.slab.slots)); slot++ {
			got, ok := it.find(&hs.slab, hs.ids[slot])
			if ok != filed[slot] || (ok && got != slot) {
				t.Fatalf("%s: #%d finds slot %d (%t), want %d (%t)", when, hs.ids[slot], got, ok, slot, filed[slot])
			}
		}
		for cell, slot := range want {
			if it.cells[cell] != slot {
				t.Fatalf("%s: cell %d holds slot %d, want %d: %v", when, cell, it.cells[cell], slot, it.cells)
			}
		}
	}
	add := func(home int) uint32 {
		slot := hs.add(home)
		it.add(&hs.slab, slot)
		filed[slot] = true
		return slot
	}
	remove := func(slot uint32) {
		it.remove(&hs.slab, slot)
		hs.slab.slots[slot] = entry{}
		delete(filed, slot)
	}

	// One chain from cell 6 round to cell 2: homes 6, 6, 7, 7, 0.
	a, b, c, d, e := add(6), add(6), add(7), add(7), add(0)
	check("a wrapping chain", map[int]uint32{6: a, 7: b, 0: c, 1: d, 2: e})
	remove(a)
	check("its head removed", map[int]uint32{6: b, 7: c, 0: d, 1: e, 2: 0})
	remove(c)
	check("a cell past the end removed", map[int]uint32{6: b, 7: d, 0: e, 1: 0})

	// Cells at their homes stay put while a later cell of the chain moves
	// back over them, across the end: homes 6, 7, 0, 6.
	f := add(6)
	check("a wrapped insert", map[int]uint32{6: b, 7: d, 0: e, 1: f})
	remove(b)
	check("the chain's head removed", map[int]uint32{6: f, 7: d, 0: e, 1: 0})
	remove(d)
	remove(e)
	check("homes 7 and 0 vacated", map[int]uint32{6: f, 7: 0, 0: 0})
	remove(f)
	g, h := add(7), add(0)
	i := add(6)
	check("cells at their homes", map[int]uint32{7: g, 0: h, 6: i})
	remove(i)
	check("nothing to shift", map[int]uint32{6: 0, 7: g, 0: h})

	// Fill to six keys, the most 8 cells hold, with a chain 2..5 homed on
	// 2, then add a seventh homed on 3, inside that chain: the add grows
	// the table to 16 cells.
	for range 4 {
		add(2)
	}
	check("six keys in eight cells", nil)
	if len(it.cells) != minTableCells {
		t.Fatalf("six keys took %d cells, want %d", len(it.cells), minTableCells)
	}
	add(3)
	if len(it.cells) != 2*minTableCells {
		t.Fatalf("a seventh key left %d cells, want %d", len(it.cells), 2*minTableCells)
	}
	check("grown in the middle of a chain", nil)
	for slot := range filed {
		remove(slot)
		check(fmt.Sprintf("slot %d removed after growth", slot), nil)
	}
}

// TestTableHomesSpreadStoreKeys checks home's spread on the key
// populations the store holds, 2¹⁷ keys in 2¹⁸ cells as a restored
// upsert-durable shard has them: sequential instance IDs, the canonical
// float bits of small integers — whose low bits are all zero — and the
// seeded hash of short strings. Linear probing with a uniform hash places
// a key ½ a cell past its home on average at this load; each population
// must stay below ¾ (measured: 0.003 on IDs, 0.08 on integers, 0.49 on
// strings).
func TestTableHomesSpreadStoreKeys(t *testing.T) {
	const n = 1 << 17
	for _, c := range []struct {
		name string
		key  func(i int) uint64
	}{
		{"sequential IDs", func(i int) uint64 { return uint64(i + 1) }},
		{"integer leads", func(i int) uint64 { return leadHash(canonLead(tuple.Int(int64(i)))) }},
		{"string leads", func(i int) uint64 { return leadHash(canonLead(tuple.String(fmt.Sprint("k", i)))) }},
	} {
		keys := make([]uint64, n+1)
		for i := range n {
			keys[i+1] = c.key(i)
		}
		tb := newTable[uint32](n)
		for s := uint32(1); s <= n; s++ {
			tb.insert(keys[s], s)
		}
		total := 0
		for i, s := range tb.cells {
			if s != 0 {
				total += (i - tb.home(keys[s])) & (len(tb.cells) - 1)
			}
		}
		mean := float64(total) / n
		t.Logf("%s: mean displacement %.3f cells", c.name, mean)
		if mean > 0.75 {
			t.Errorf("%s: mean displacement %.3f cells, want at most 0.75", c.name, mean)
		}
	}
}
