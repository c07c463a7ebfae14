package dataspace

import (
	"hash/maphash"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// idSet is a set of slots — positions in its shard's slab (store.go) —
// shaped for the populations index buckets really have: most hold one or
// two tuples (a keyed store has one tuple per lead, and a read-modify-write
// passes through two), some a handful, a few a large share of the shard.
// Two members live in the set's own words. A set that outgrows them keeps a
// where it is and moves the rest to a cell of its idIndex's spill slab; b
// then holds the cell number tagged with spillTag, which no slot reaches
// (shard.place stops a slab short of it). A non-empty set always has a
// member in a, the one its index reads the set's key from. A spill is an
// unsorted slice up to wideLeadBucket slots and a map above it, so add and
// remove are O(1) at every size, and a set that stays at or below two
// members never allocates.
//
// An idSet is 8 bytes and holds no pointer, so an idIndex's table holds none
// either and the collector never scans it. It is a value that sits in its
// index's table cell: reads go through an idView, which pairs it with its
// spill slab, and every edit goes through idIndex, which edits the cell in
// place. Slot 0 of every shard slab is reserved, so 0 marks a vacant word
// and is never a member, and the zero idSet — the empty set — marks an
// empty cell.
type idSet struct{ a, b uint32 }

// spillTag marks b as a spill cell number rather than a member.
const spillTag uint32 = 1 << 31

// cell returns the set's spill cell, if it has one.
func (s idSet) cell() (int, bool) { return int(s.b &^ spillTag), s.b&spillTag != 0 }

// idSpill holds a set's members beyond a, in m when it is non-nil and in
// slots otherwise. An emptied spill keeps its cell until its whole set
// empties, so a set hovering around two members allocates once, not per
// excursion.
type idSpill struct {
	slots []uint32
	m     map[uint32]struct{}
}

func (sp *idSpill) len() int { return len(sp.slots) + len(sp.m) }

// pop removes and returns a member of a non-empty spill.
func (sp *idSpill) pop() uint32 {
	if n := len(sp.slots); n > 0 {
		slot := sp.slots[n-1]
		sp.slots = sp.slots[:n-1]
		return slot
	}
	for slot := range sp.m {
		sp.remove(slot)
		return slot
	}
	return 0
}

// add reports whether slot was new. The slice turns into a map when it would
// outgrow wideLeadBucket.
func (sp *idSpill) add(slot uint32) bool {
	if sp.m == nil && len(sp.slots) < wideLeadBucket {
		for _, have := range sp.slots {
			if have == slot {
				return false
			}
		}
		sp.slots = append(sp.slots, slot)
		return true
	}
	if sp.m == nil {
		sp.m = make(map[uint32]struct{}, 2*wideLeadBucket)
		for _, have := range sp.slots {
			sp.m[have] = struct{}{}
		}
		sp.slots = nil
	}
	before := len(sp.m)
	sp.m[slot] = struct{}{}
	return len(sp.m) != before
}

// remove reports whether slot was held. A map drained to half of
// wideLeadBucket goes back to a slice — which also returns the memory of a
// once-large bucket, since Go maps never shrink; the gap between the two
// thresholds keeps a bucket hovering at either from converting per edit.
func (sp *idSpill) remove(slot uint32) bool {
	if sp.m != nil {
		before := len(sp.m)
		delete(sp.m, slot)
		if len(sp.m) <= wideLeadBucket/2 {
			sp.slots = make([]uint32, 0, wideLeadBucket)
			for have := range sp.m {
				sp.slots = append(sp.slots, have)
			}
			sp.m = nil
		}
		return sp.len() != before
	}
	for i, have := range sp.slots {
		if have == slot {
			last := len(sp.slots) - 1
			sp.slots[i] = sp.slots[last]
			sp.slots = sp.slots[:last]
			return true
		}
	}
	return false
}

// spillSlab holds the spills of one idIndex's sets, one cell each. A set
// that empties returns its cell to free, so the slab never grows past the
// peak number of sets spilled at once. A freed cell keeps a slice of the
// first spill's two slots, so a set that spills into it does not allocate,
// but drops a larger one: the memory of a once-large bucket goes back to
// the collector with its set.
type spillSlab struct {
	spills []idSpill
	free   []int
}

// release returns an emptied set's cell to the free list.
func (sl *spillSlab) release(cell int) {
	if sp := &sl.spills[cell]; cap(sp.slots) > 2 {
		sp.slots = nil
	}
	sl.free = append(sl.free, cell)
}

// take returns a vacant cell, a freed one first.
func (sl *spillSlab) take() int {
	if n := len(sl.free); n > 0 {
		cell := sl.free[n-1]
		sl.free = sl.free[:n-1]
		return cell
	}
	sl.spills = append(sl.spills, idSpill{})
	return len(sl.spills) - 1
}

// idView is a set read out of its idIndex: the set and the slab that holds
// its spill. It is valid until the index is next edited: an edit may free
// the set's cell and hand it to another set (see Writer).
type idView struct {
	idSet
	spills *spillSlab
}

// spill returns the set's spill; nil if it has none.
func (v idView) spill() *idSpill {
	if cell, ok := v.cell(); ok {
		return &v.spills.spills[cell]
	}
	return nil
}

func (v idView) len() int {
	n := 0
	if v.a != 0 {
		n++
	}
	if sp := v.spill(); sp != nil {
		return n + sp.len()
	}
	if v.b != 0 {
		n++
	}
	return n
}

// each visits the members in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (v idView) each(fn func(slot uint32) bool) bool {
	if v.a != 0 && !fn(v.a) {
		return false
	}
	sp := v.spill()
	if sp == nil {
		return v.b == 0 || fn(v.b)
	}
	for _, slot := range sp.slots {
		if !fn(slot) {
			return false
		}
	}
	for slot := range sp.m {
		if !fn(slot) {
			return false
		}
	}
	return true
}

// idIndex files slots under a canonical field value. It is the store's one
// bucket structure: each arity's lead index and every hot secondary shape
// are an idIndex. Its sets sit in a table (table.go) whose cells hold the
// sets and no key: a set's key is the value at field pos of its member a's
// tuple, read back from the shard's slab, so every lead class shares one
// table, and a bucket costs its 8-byte set. A value's cell is non-empty
// exactly while its set is, so len() is the number of live buckets. The
// spill slab is made on first use. An idIndex is embedded by value and
// copied only to move it (a fresh one into its fieldIndex).
//
// Every method takes the slab of the shard the index belongs to. add and
// remove read the key from the slot they file or unfile, which must hold
// its tuple: shard.place files a slot after it fills it, shard.vacate
// unfiles it before it clears it.
type idIndex struct {
	sets  table[idSet]
	spill *spillSlab
	arity int // the arity of the tuples it files
	pos   int // the field it files them under: 0 for a lead index
}

// leadSeed seeds the hash of atom and string keys.
var leadSeed = maphash.MakeSeed()

// leadHash hashes a canonical field value for an idIndex: a number's
// canonical bits as they are (home spreads them), a bool's 0/1, and the
// text of an atom or a string through a seeded hash; the class tells equal
// text and equal words of different classes apart.
func leadHash(k leadKey) uint64 {
	if k.class == leadAtom || k.class == leadString {
		return maphash.String(leadSeed, k.str) ^ uint64(k.class)
	}
	return k.num ^ uint64(k.class)
}

// keyOf returns the key a non-empty set is filed under.
func (ix *idIndex) keyOf(slab []Instance, s idSet) leadKey {
	return leadAt(slab[s.a].Tuple, ix.pos)
}

// find returns the cell of k's set.
func (ix *idIndex) find(slab []Instance, k leadKey) (int, bool) {
	if ix.sets.n == 0 {
		return 0, false
	}
	for i := ix.sets.home(leadHash(k)); ; i = ix.sets.next(i) {
		switch s := ix.sets.cells[i]; {
		case s == idSet{}:
			return 0, false
		case ix.keyOf(slab, s) == k:
			return i, true
		}
	}
}

// get returns the slots filed under k; an empty view if none.
func (ix *idIndex) get(slab []Instance, k leadKey) idView {
	if i, ok := ix.find(slab, k); ok {
		return idView{ix.sets.cells[i], ix.spill}
	}
	return idView{}
}

// add files slot under the key its tuple holds at pos and reports whether
// it was new there.
func (ix *idIndex) add(slab []Instance, slot uint32) bool {
	if slot == 0 || slot&spillTag != 0 {
		panic("dataspace: the reserved slot 0 or an out-of-range slot filed in an index")
	}
	k := leadAt(slab[slot].Tuple, ix.pos)
	if i, ok := ix.find(slab, k); ok {
		return ix.addTo(&ix.sets.cells[i], slot)
	}
	if !ix.sets.room() {
		ix.refile(slab, ix.sets.grown())
	}
	ix.sets.insert(leadHash(k), idSet{a: slot})
	return true
}

// fit cuts the table of an index sized for more buckets than it holds down
// to the size its buckets need.
func (ix *idIndex) fit(slab []Instance) {
	if size := tableCells(ix.len()); size < len(ix.sets.cells) {
		ix.refile(slab, size)
	}
}

// refile moves the sets to a table of size cells. It walks the slab's
// tuples of the index's arity in slot order and moves the set whose a each
// one is, found in the old table by that slot, so it reads the keys front
// to back.
func (ix *idIndex) refile(slab []Instance, size int) {
	old := ix.sets
	ix.sets = table[idSet]{cells: make([]idSet, size)}
	if old.n == 0 {
		return
	}
	for slot, inst := range slab {
		if inst.ID == tuple.NoID || inst.Tuple.Arity() != ix.arity {
			continue
		}
		h := leadHash(leadAt(inst.Tuple, ix.pos))
		for i := old.home(h); old.cells[i] != (idSet{}); i = old.next(i) {
			if old.cells[i].a == uint32(slot) {
				ix.sets.insert(h, old.cells[i])
				break
			}
		}
	}
}

// remove unfiles slot from the key its tuple holds at pos and reports
// whether it was filed there. A cell that names slot in its own words is
// its set — a slot is filed once per index — so the probe reads a key only
// from the spilled sets it passes.
func (ix *idIndex) remove(slab []Instance, slot uint32) bool {
	if ix.sets.n == 0 || slot == 0 {
		return false
	}
	k := leadAt(slab[slot].Tuple, ix.pos)
	for i := ix.sets.home(leadHash(k)); ; i = ix.sets.next(i) {
		s := &ix.sets.cells[i]
		_, spilled := s.cell()
		switch {
		case *s == idSet{}:
			return false
		case s.a != slot && s.b != slot && (!spilled || ix.keyOf(slab, *s) != k):
			continue
		case !ix.removeFrom(s, slot):
			return false
		case *s == idSet{}:
			ix.sets.removeAt(i, func(s idSet) uint64 { return leadHash(ix.keyOf(slab, s)) })
		}
		return true
	}
}

func (ix *idIndex) len() int { return ix.sets.len() }

// each visits the sets in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (ix *idIndex) each(fn func(idView) bool) bool {
	for _, s := range ix.sets.cells {
		if s != (idSet{}) && !fn(idView{s, ix.spill}) {
			return false
		}
	}
	return true
}

// addTo files slot, which add checked, in s, moving s's second member
// and slot into a spill cell when both words are taken, and reports whether
// slot was new.
func (ix *idIndex) addTo(s *idSet, slot uint32) bool {
	if s.a == slot || s.b == slot {
		return false
	}
	if cell, ok := s.cell(); ok {
		return ix.spill.spills[cell].add(slot)
	}
	switch {
	case s.a == 0:
		s.a = slot
	case s.b == 0:
		s.b = slot
	default:
		if ix.spill == nil {
			ix.spill = &spillSlab{}
		}
		cell := ix.spill.take()
		sp := &ix.spill.spills[cell]
		sp.slots = append(sp.slots, s.b, slot)
		s.b = spillTag | uint32(cell)
	}
	return true
}

// removeFrom reports whether slot was a member of s. A removed a is
// refilled from b or the spill, so a set keeps a member in a while it has
// one; a spilled set that empties returns its cell to the slab's free list.
func (ix *idIndex) removeFrom(s *idSet, slot uint32) bool {
	cell, spilled := s.cell()
	switch {
	case slot == 0:
		return false
	case s.a == slot && !spilled:
		s.a, s.b = s.b, 0
	case s.a == slot && ix.spill.spills[cell].len() > 0:
		s.a = ix.spill.spills[cell].pop()
	case s.a == slot:
		ix.spill.release(cell)
		*s = idSet{}
	case s.b == slot:
		s.b = 0
	case !spilled || !ix.spill.spills[cell].remove(slot):
		return false
	}
	return true
}
