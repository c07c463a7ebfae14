package dataspace

import "github.com/sdl-lang/sdl/internal/tuple"

// idSet is a set of tuple IDs shaped for the populations index buckets
// really have: most hold one or two IDs (a keyed store has one tuple per
// lead, and a read-modify-write passes through two), some a handful, a few
// a large share of the shard. Two members live in the set's own words. A
// set that outgrows them keeps a where it is and moves the rest to a spill
// slot of its idIndex's slab; b then holds the slot number tagged with
// spillTag, which no ID reaches (IDs count up from 1). A spill is an
// unsorted slice up to wideLeadBucket IDs and a map above it, so add and
// remove are O(1) at every size, and a set that stays at or below two
// members never allocates.
//
// An idSet holds no pointer, so an idIndex's number map holds none either
// and the collector never scans it. It is a value that sits inline in its
// index's map slot: reads go through an idView, which pairs it with its
// slab, and every edit goes through idIndex, which writes the set back.
// tuple.NoID marks a vacant slot and is never a member.
type idSet struct{ a, b tuple.ID }

// spillTag marks b as a spill slot number rather than a member.
const spillTag tuple.ID = 1 << 63

// slot returns the set's spill slot, if it has one.
func (s idSet) slot() (int, bool) { return int(s.b &^ spillTag), s.b&spillTag != 0 }

// idSpill holds a set's members beyond a, in m when it is non-nil and in
// ids otherwise. An emptied spill keeps its slot until its whole set
// empties, so a set hovering around two members allocates once, not per
// excursion.
type idSpill struct {
	ids []tuple.ID
	m   map[tuple.ID]struct{}
}

func (sp *idSpill) len() int { return len(sp.ids) + len(sp.m) }

// add reports whether id was new. The slice turns into a map when it would
// outgrow wideLeadBucket.
func (sp *idSpill) add(id tuple.ID) bool {
	if sp.m == nil && len(sp.ids) < wideLeadBucket {
		for _, have := range sp.ids {
			if have == id {
				return false
			}
		}
		sp.ids = append(sp.ids, id)
		return true
	}
	if sp.m == nil {
		sp.m = make(map[tuple.ID]struct{}, 2*wideLeadBucket)
		for _, have := range sp.ids {
			sp.m[have] = struct{}{}
		}
		sp.ids = nil
	}
	before := len(sp.m)
	sp.m[id] = struct{}{}
	return len(sp.m) != before
}

// remove reports whether id was held. A map drained to half of
// wideLeadBucket goes back to a slice — which also returns the memory of a
// once-large bucket, since Go maps never shrink; the gap between the two
// thresholds keeps a bucket hovering at either from converting per edit.
func (sp *idSpill) remove(id tuple.ID) bool {
	if sp.m != nil {
		before := len(sp.m)
		delete(sp.m, id)
		if len(sp.m) <= wideLeadBucket/2 {
			sp.ids = make([]tuple.ID, 0, wideLeadBucket)
			for have := range sp.m {
				sp.ids = append(sp.ids, have)
			}
			sp.m = nil
		}
		return sp.len() != before
	}
	for i, have := range sp.ids {
		if have == id {
			last := len(sp.ids) - 1
			sp.ids[i] = sp.ids[last]
			sp.ids = sp.ids[:last]
			return true
		}
	}
	return false
}

// spillSlab holds the spills of one idIndex's sets, one slot each. A set
// that empties returns its slot to free, so the slab never grows past the
// peak number of sets spilled at once. A freed slot keeps a slice of the
// first spill's two IDs, so a set that spills into it does not allocate,
// but drops a larger one: the memory of a once-large bucket goes back to
// the collector with its set.
type spillSlab struct {
	spills []idSpill
	free   []int
}

// release returns an emptied set's slot to the free list.
func (sl *spillSlab) release(slot int) {
	if sp := &sl.spills[slot]; cap(sp.ids) > 2 {
		sp.ids = nil
	}
	sl.free = append(sl.free, slot)
}

// take returns a vacant slot, a freed one first.
func (sl *spillSlab) take() int {
	if n := len(sl.free); n > 0 {
		slot := sl.free[n-1]
		sl.free = sl.free[:n-1]
		return slot
	}
	sl.spills = append(sl.spills, idSpill{})
	return len(sl.spills) - 1
}

// idView is a set read out of its idIndex: the set and the slab that holds
// its spill. It is valid until the index is next edited: an edit may free
// the set's slot and hand it to another set (see Writer).
type idView struct {
	idSet
	slab *spillSlab
}

// spill returns the set's spill; nil if it has none.
func (v idView) spill() *idSpill {
	if slot, ok := v.slot(); ok {
		return &v.slab.spills[slot]
	}
	return nil
}

func (v idView) len() int {
	n := 0
	if v.a != tuple.NoID {
		n++
	}
	if sp := v.spill(); sp != nil {
		return n + sp.len()
	}
	if v.b != tuple.NoID {
		n++
	}
	return n
}

// each visits the members in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (v idView) each(fn func(tuple.ID) bool) bool {
	if v.a != tuple.NoID && !fn(v.a) {
		return false
	}
	sp := v.spill()
	if sp == nil {
		return v.b == tuple.NoID || fn(v.b)
	}
	for _, id := range sp.ids {
		if !fn(id) {
			return false
		}
	}
	for id := range sp.m {
		if !fn(id) {
			return false
		}
	}
	return true
}

// idIndex files tuple IDs under a canonical field value. It is the store's
// one bucket structure: each arity's lead index and every hot secondary
// shape are an idIndex. Number buckets sit in their own map, keyed by the
// 8-byte canonical word rather than a whole leadKey, and pointer-free; every
// other class and the arity-0 zero key share the leadKey map. Each map, and
// the spill slab, is made on first use. A value's slot exists exactly while
// its set is non-empty, so len() is the number of live buckets. An idIndex
// is embedded by value and copied only to move it (a fresh one into its
// fieldIndex): a copy shares the maps and slab made so far but not the ones
// made later.
type idIndex struct {
	num   map[uint64]idSet
	rest  map[leadKey]idSet
	spill *spillSlab
}

// get returns the IDs filed under k; an empty view if none.
func (ix *idIndex) get(k leadKey) idView {
	if k.class == leadNumber {
		return idView{ix.num[k.num], ix.spill}
	}
	return idView{ix.rest[k], ix.spill}
}

// add reports whether id was new under k.
func (ix *idIndex) add(k leadKey, id tuple.ID) bool {
	if k.class == leadNumber {
		return addID(ix, &ix.num, k.num, id)
	}
	return addID(ix, &ix.rest, k, id)
}

// remove reports whether id was filed under k.
func (ix *idIndex) remove(k leadKey, id tuple.ID) bool {
	if k.class == leadNumber {
		return removeID(ix, ix.num, k.num, id)
	}
	return removeID(ix, ix.rest, k, id)
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

// addTo files id in s, moving s's second member and id into a spill slot
// when both words are taken, and reports whether id was new.
func (ix *idIndex) addTo(s *idSet, id tuple.ID) bool {
	if id == tuple.NoID || id&spillTag != 0 {
		panic("dataspace: NoID or an out-of-range ID filed in an index")
	}
	if s.a == id || s.b == id {
		return false
	}
	if slot, ok := s.slot(); ok {
		return ix.spill.spills[slot].add(id)
	}
	switch {
	case s.a == tuple.NoID:
		s.a = id
	case s.b == tuple.NoID:
		s.b = id
	default:
		if ix.spill == nil {
			ix.spill = &spillSlab{}
		}
		slot := ix.spill.take()
		sp := &ix.spill.spills[slot]
		sp.ids = append(sp.ids, s.b, id)
		s.b = spillTag | tuple.ID(slot)
	}
	return true
}

// removeFrom reports whether id was a member of s. A spilled set that
// empties returns its slot to the slab's free list.
func (ix *idIndex) removeFrom(s *idSet, id tuple.ID) bool {
	slot, spilled := s.slot()
	switch {
	case id == tuple.NoID:
		return false
	case s.a == id:
		s.a = tuple.NoID
	case s.b == id:
		s.b = tuple.NoID
	case !spilled || !ix.spill.spills[slot].remove(id):
		return false
	}
	if spilled && s.a == tuple.NoID && ix.spill.spills[slot].len() == 0 {
		ix.spill.release(slot)
		s.b = tuple.NoID
	}
	return true
}

func addID[K comparable](ix *idIndex, m *map[K]idSet, k K, id tuple.ID) bool {
	was := (*m)[k]
	s := was
	if !ix.addTo(&s, id) {
		return false
	}
	if s != was { // an edit inside the spill leaves the slot as it is
		if *m == nil {
			*m = make(map[K]idSet)
		}
		(*m)[k] = s
	}
	return true
}

func removeID[K comparable](ix *idIndex, m map[K]idSet, k K, id tuple.ID) bool {
	was, ok := m[k]
	s := was
	if !ok || !ix.removeFrom(&s, id) {
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
