package dataspace

import (
	"hash/maphash"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// idSet is a set of slots — positions in its shard's slab (store.go) —
// shaped for the populations index buckets really have: most hold one tuple
// (a keyed store has one tuple per lead, and every commit and recovery
// applies its deletes before its inserts, so a read-modify-write never
// passes through two), some a handful, a few a large share of the shard.
// The set is one word: its one member, or the number of its idIndex's spill
// cell that holds its members, tagged with spillTag, which no slot reaches
// (shard.place stops a slab short of it). A spill is an unsorted slice up to
// wideLeadBucket slots and a map above it, so add and remove are O(1) at
// every size, and a set that stays at one member never allocates.
//
// An idSet is 4 bytes and holds no pointer, so an idIndex's table holds none
// either and the collector never scans it. It is a value that sits in its
// index's table cell: reads go through an idView, which pairs it with its
// spill slab, and every edit goes through idIndex, which edits the cell in
// place. Slot 0 of every shard slab is reserved, so it is never a member,
// and the zero idSet — the empty set — marks an empty cell.
type idSet uint32

// spillTag marks an idSet as a spill cell number rather than a member.
const spillTag uint32 = 1 << 31

// cell returns the set's spill cell, if it has one.
func (s idSet) cell() (int, bool) { return int(uint32(s) &^ spillTag), uint32(s)&spillTag != 0 }

// idSpill holds a spilled set's members: key, the one its index reads the
// set's key from, another in second (0 only while there is none, so two
// members cost the cell alone), and the rest in m if it is non-nil, else in
// slots. A set keeps its spill until it empties, so a set hovering around
// two members allocates once, not per excursion.
type idSpill struct {
	key, second uint32
	slots       []uint32
	m           map[uint32]struct{}
}

// pop removes and returns a member of slots or m; 0 if there is none.
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
	switch slot {
	case sp.key, sp.second:
		return false
	}
	if sp.second == 0 {
		sp.second = slot
		return true
	}
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

// remove reports whether slot was held beyond key. A map drained to half of
// wideLeadBucket goes back to a slice — which also returns the memory of a
// once-large bucket, since Go maps never shrink; the gap between the two
// thresholds keeps a bucket hovering at either from converting per edit.
func (sp *idSpill) remove(slot uint32) bool {
	if sp.second == slot {
		sp.second = sp.pop()
		return true
	}
	if sp.m != nil {
		_, held := sp.m[slot]
		delete(sp.m, slot)
		if len(sp.m) <= wideLeadBucket/2 {
			sp.slots = make([]uint32, 0, wideLeadBucket)
			for have := range sp.m {
				sp.slots = append(sp.slots, have)
			}
			sp.m = nil
		}
		return held
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
// peak number of sets spilled at once. A freed cell keeps a slice of at
// most two slots, a first slice's size, so a set that spills into it does
// not allocate, but drops a larger one: the memory of a once-large bucket
// goes back to the collector with its set.
type spillSlab struct {
	spills []idSpill
	free   []int
}

// release returns an emptied set's cell to the free list.
func (sl *spillSlab) release(cell int) {
	if sp := &sl.spills[cell]; cap(sp.slots) > 2 {
		sp.slots = nil
	}
	sl.spills[cell].key = 0
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
	switch sp := v.spill(); {
	case sp != nil && sp.second != 0:
		return 2 + len(sp.slots) + len(sp.m)
	case sp != nil || v.idSet != 0:
		return 1
	}
	return 0
}

// each visits the members in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (v idView) each(fn func(slot uint32) bool) bool {
	sp := v.spill()
	if sp == nil {
		return v.idSet == 0 || fn(uint32(v.idSet))
	}
	if !fn(sp.key) || sp.second != 0 && !fn(sp.second) {
		return false
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
// sets and no key: a set's key is the value at field pos of its key
// member's tuple — the set's one member, or its spill's key — read back from
// the shard's slab, so every lead class shares one table, and a bucket costs
// its 4-byte set. A value's cell is non-empty exactly while its set is, so
// len() is the number of live buckets. The spill slab is made on first use.
// An idIndex is embedded by value and copied only to move it (a fresh one
// into its fieldIndex).
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

// keySlot returns the member a non-empty set reads its key from.
func (ix *idIndex) keySlot(s idSet) uint32 {
	if cell, ok := s.cell(); ok {
		return ix.spill.spills[cell].key
	}
	return uint32(s)
}

// keyAt returns the key slot's tuple is filed under.
func (ix *idIndex) keyAt(sl *slab, slot uint32) leadKey {
	return leadAt(tuple.FromBlock(sl.slots[slot].p, ix.arity), ix.pos)
}

// keyOf returns the key a non-empty set is filed under.
func (ix *idIndex) keyOf(sl *slab, s idSet) leadKey { return ix.keyAt(sl, ix.keySlot(s)) }

// find returns the cell of k's set.
func (ix *idIndex) find(sl *slab, k leadKey) (int, bool) {
	if ix.sets.n == 0 {
		return 0, false
	}
	for i := ix.sets.home(leadHash(k)); ; i = ix.sets.next(i) {
		switch s := ix.sets.cells[i]; {
		case s == 0:
			return 0, false
		case ix.keyOf(sl, s) == k:
			return i, true
		}
	}
}

// get returns the slots filed under k; an empty view if none.
func (ix *idIndex) get(sl *slab, k leadKey) idView {
	if i, ok := ix.find(sl, k); ok {
		return idView{ix.sets.cells[i], ix.spill}
	}
	return idView{}
}

// add files slot under the key its tuple holds at pos and reports whether
// it was new there.
func (ix *idIndex) add(sl *slab, slot uint32) bool {
	if slot == 0 || slot&spillTag != 0 {
		panic("dataspace: the reserved slot 0 or an out-of-range slot filed in an index")
	}
	k := ix.keyAt(sl, slot)
	if i, ok := ix.find(sl, k); ok {
		return ix.addTo(&ix.sets.cells[i], slot)
	}
	if !ix.sets.room() {
		ix.refile(sl, ix.sets.grown())
	}
	ix.sets.insert(leadHash(k), idSet(slot))
	return true
}

// fit cuts the table of an index sized for more buckets than it holds down
// to the size its buckets need.
func (ix *idIndex) fit(sl *slab) {
	if size := tableCells(ix.len()); size < len(ix.sets.cells) {
		ix.refile(sl, size)
	}
}

// refile moves the sets to a table of size cells. It walks the slab's
// tuples of the index's arity in slot order and moves the set whose key
// member each one is, found in the old table by that slot, so it reads the
// keys front to back.
func (ix *idIndex) refile(sl *slab, size int) {
	old := ix.sets
	ix.sets = table[idSet]{cells: make([]idSet, size)}
	if old.n == 0 {
		return
	}
	for slot, e := range sl.slots {
		if e.id == tuple.NoID || sl.instAt(uint32(slot)).Tuple.Arity() != ix.arity {
			continue
		}
		h := leadHash(ix.keyAt(sl, uint32(slot)))
		for i := old.home(h); old.cells[i] != 0; i = old.next(i) {
			if ix.keySlot(old.cells[i]) == uint32(slot) {
				ix.sets.insert(h, old.cells[i])
				break
			}
		}
	}
}

// remove unfiles slot from the key its tuple holds at pos and reports
// whether it was filed there. A cell that is slot is its set — a slot is
// filed once per index — so the probe reads a key only from the spilled
// sets it passes.
func (ix *idIndex) remove(sl *slab, slot uint32) bool {
	if ix.sets.n == 0 || slot == 0 {
		return false
	}
	k := ix.keyAt(sl, slot)
	for i := ix.sets.home(leadHash(k)); ; i = ix.sets.next(i) {
		s := &ix.sets.cells[i]
		_, spilled := s.cell()
		switch {
		case *s == 0:
			return false
		case uint32(*s) != slot && (!spilled || ix.keyOf(sl, *s) != k):
			continue
		case !ix.removeFrom(s, slot):
			return false
		case *s == 0:
			ix.sets.removeAt(i, func(s idSet) uint64 { return leadHash(ix.keyOf(sl, s)) })
		}
		return true
	}
}

func (ix *idIndex) len() int { return ix.sets.len() }

// each visits the sets in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (ix *idIndex) each(fn func(idView) bool) bool {
	for _, s := range ix.sets.cells {
		if s != 0 && !fn(idView{s, ix.spill}) {
			return false
		}
	}
	return true
}

// addTo files slot, which add checked, in s, moving s's one member — as the
// key — and slot into a spill cell if s has no spill yet, and reports
// whether slot was new.
func (ix *idIndex) addTo(s *idSet, slot uint32) bool {
	if cell, ok := s.cell(); ok {
		return ix.spill.spills[cell].add(slot)
	}
	if uint32(*s) == slot {
		return false
	}
	if ix.spill == nil {
		ix.spill = &spillSlab{}
	}
	cell := ix.spill.take()
	sp := &ix.spill.spills[cell]
	sp.key, sp.second = uint32(*s), slot
	*s = idSet(spillTag | uint32(cell))
	return true
}

// removeFrom reports whether slot was a member of s. A removed key is
// refilled from the rest of the spill, so a spilled set keeps its key while
// it has a member; one that empties returns its cell to the slab's free
// list.
func (ix *idIndex) removeFrom(s *idSet, slot uint32) bool {
	cell, spilled := s.cell()
	if !spilled {
		if slot == 0 || uint32(*s) != slot {
			return false
		}
		*s = 0
		return true
	}
	switch sp := &ix.spill.spills[cell]; {
	case sp.key == slot && sp.second != 0:
		sp.key, sp.second = sp.second, sp.pop()
	case sp.key == slot:
		ix.spill.release(cell)
		*s = 0
	case !sp.remove(slot):
		return false
	}
	return true
}
