package dataspace

// idSet is a set of slots — positions in its shard's slab (store.go) —
// shaped for the populations index buckets really have: most hold one or
// two tuples (a keyed store has one tuple per lead, and a read-modify-write
// passes through two), some a handful, a few a large share of the shard.
// Two members live in the set's own words. A set that outgrows them keeps a
// where it is and moves the rest to a cell of its idIndex's spill slab; b
// then holds the cell number tagged with spillTag, which no slot reaches
// (shard.place stops a slab short of it). A spill is an unsorted slice up to
// wideLeadBucket slots and a map above it, so add and remove are O(1) at
// every size, and a set that stays at or below two members never
// allocates.
//
// An idSet is 8 bytes and holds no pointer, so an idIndex's number map holds
// none either and the collector never scans it. It is a value that sits
// inline in its index's map entry: reads go through an idView, which pairs it
// with its spill slab, and every edit goes through idIndex, which writes the
// set back. Slot 0 of every shard slab is reserved, so 0 marks a vacant word
// and is never a member.
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
// are an idIndex. Number buckets sit in their own map, keyed by the 8-byte
// canonical word rather than a whole leadKey, and pointer-free; every other
// class and the arity-0 zero key share the leadKey map. Each map, and the
// spill slab, is made on first use. A value's map entry exists exactly while
// its set is non-empty, so len() is the number of live buckets. An idIndex is
// embedded by value and copied only to move it (a fresh one into its
// fieldIndex): a copy shares the maps and slab made so far but not the ones
// made later.
type idIndex struct {
	num   map[uint64]idSet
	rest  map[leadKey]idSet
	spill *spillSlab
}

// get returns the slots filed under k; an empty view if none.
func (ix *idIndex) get(k leadKey) idView {
	if k.class == leadNumber {
		return idView{ix.num[k.num], ix.spill}
	}
	return idView{ix.rest[k], ix.spill}
}

// add reports whether slot was new under k.
func (ix *idIndex) add(k leadKey, slot uint32) bool {
	if k.class == leadNumber {
		return addSlot(ix, &ix.num, k.num, slot)
	}
	return addSlot(ix, &ix.rest, k, slot)
}

// remove reports whether slot was filed under k.
func (ix *idIndex) remove(k leadKey, slot uint32) bool {
	if k.class == leadNumber {
		return removeSlot(ix, ix.num, k.num, slot)
	}
	return removeSlot(ix, ix.rest, k, slot)
}

func (ix *idIndex) len() int {
	return len(ix.num) + len(ix.rest)
}

// each visits the buckets in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (ix *idIndex) each(fn func(leadKey, idView) bool) bool {
	for n, s := range ix.num {
		if !fn(leadKey{class: leadNumber, num: n}, idView{s, ix.spill}) {
			return false
		}
	}
	for k, s := range ix.rest {
		if !fn(k, idView{s, ix.spill}) {
			return false
		}
	}
	return true
}

// addTo files slot in s, moving s's second member and slot into a spill
// cell when both words are taken, and reports whether slot was new.
func (ix *idIndex) addTo(s *idSet, slot uint32) bool {
	if slot == 0 || slot&spillTag != 0 {
		panic("dataspace: the reserved slot 0 or an out-of-range slot filed in an index")
	}
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

// removeFrom reports whether slot was a member of s. A spilled set that
// empties returns its cell to the slab's free list.
func (ix *idIndex) removeFrom(s *idSet, slot uint32) bool {
	cell, spilled := s.cell()
	switch {
	case slot == 0:
		return false
	case s.a == slot:
		s.a = 0
	case s.b == slot:
		s.b = 0
	case !spilled || !ix.spill.spills[cell].remove(slot):
		return false
	}
	if spilled && s.a == 0 && ix.spill.spills[cell].len() == 0 {
		ix.spill.release(cell)
		s.b = 0
	}
	return true
}

func addSlot[K comparable](ix *idIndex, m *map[K]idSet, k K, slot uint32) bool {
	was := (*m)[k]
	s := was
	if !ix.addTo(&s, slot) {
		return false
	}
	if s != was { // an edit inside the spill leaves the set as it is
		if *m == nil {
			*m = make(map[K]idSet)
		}
		(*m)[k] = s
	}
	return true
}

func removeSlot[K comparable](ix *idIndex, m map[K]idSet, k K, slot uint32) bool {
	was, ok := m[k]
	s := was
	if !ok || !ix.removeFrom(&s, slot) {
		return false
	}
	switch {
	case s == idSet{}:
		delete(m, k)
	case s != was:
		m[k] = s
	}
	return true
}
