package dataspace

import "github.com/sdl-lang/sdl/internal/tuple"

// idSet is a set of tuple IDs shaped for the populations index buckets
// really have: most hold one or two IDs (a keyed store has one tuple per
// lead, and a read-modify-write passes through two), some a handful, a few
// a large share of the shard. Two members live in the set's own words; the
// rest go to a spill that is an unsorted slice up to wideLeadBucket IDs and
// a map above it, so add and remove are O(1) at every size and a set that
// stays at or below two members never allocates.
//
// An idSet is a value: it sits inline in its index's map slot and a copy
// shares the spill, so copies are for reading and every edit goes through
// idIndex, which writes the header back. tuple.NoID marks a vacant inline
// slot and is never a member.
type idSet struct {
	a, b  tuple.ID
	spill *idSpill
}

// idSpill holds the members beyond the inline two, in m when it is non-nil
// and in ids otherwise. An emptied spill stays until its whole set empties,
// so a set hovering around two members allocates once, not per excursion.
type idSpill struct {
	ids []tuple.ID
	m   map[tuple.ID]struct{}
}

func (sp *idSpill) len() int {
	if sp == nil {
		return 0
	}
	return len(sp.ids) + len(sp.m)
}

func (sp *idSpill) has(id tuple.ID) bool {
	if sp == nil {
		return false
	}
	if _, ok := sp.m[id]; ok {
		return true
	}
	for _, have := range sp.ids {
		if have == id {
			return true
		}
	}
	return false
}

// add reports whether id was new. The slice turns into a map when it would
// outgrow wideLeadBucket.
func (sp *idSpill) add(id tuple.ID) bool {
	if sp.m == nil && len(sp.ids) < wideLeadBucket {
		if sp.has(id) {
			return false
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
	if sp == nil {
		return false
	}
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

func (s idSet) len() int {
	n := s.spill.len()
	if s.a != tuple.NoID {
		n++
	}
	if s.b != tuple.NoID {
		n++
	}
	return n
}

// add reports whether id was new to the set.
func (s *idSet) add(id tuple.ID) bool {
	if id == tuple.NoID {
		panic("dataspace: NoID filed in an index")
	}
	if s.a == id || s.b == id {
		return false
	}
	slot := &s.a
	if *slot != tuple.NoID {
		slot = &s.b
	}
	if *slot != tuple.NoID {
		if s.spill == nil {
			s.spill = &idSpill{}
		}
		return s.spill.add(id)
	}
	if s.spill.has(id) {
		return false
	}
	*slot = id
	return true
}

// remove reports whether id was a member.
func (s *idSet) remove(id tuple.ID) bool {
	switch {
	case id == tuple.NoID:
		return false
	case s.a == id:
		s.a = tuple.NoID
	case s.b == id:
		s.b = tuple.NoID
	default:
		return s.spill.remove(id)
	}
	return true
}

// each visits the members in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (s idSet) each(fn func(tuple.ID) bool) bool {
	if s.a != tuple.NoID && !fn(s.a) || s.b != tuple.NoID && !fn(s.b) {
		return false
	}
	if s.spill == nil {
		return true
	}
	for _, id := range s.spill.ids {
		if !fn(id) {
			return false
		}
	}
	for id := range s.spill.m {
		if !fn(id) {
			return false
		}
	}
	return true
}

// idIndex files tuple IDs under a canonical field value. It is the store's
// one bucket structure: each arity's lead index and every hot secondary
// shape are an idIndex. Number buckets sit in their own map, keyed by the
// 8-byte canonical word rather than a whole leadKey; every other class and
// the arity-0 zero key share the leadKey map. Each map is made on first
// use. A value's slot exists exactly while its set is non-empty, so len()
// is the number of live buckets. An idIndex is embedded by value and
// copied only to move it (a fresh one into its fieldIndex): a copy shares
// the maps made so far but not the ones made later.
type idIndex struct {
	num  map[uint64]idSet
	rest map[leadKey]idSet
}

// get returns the IDs filed under k; the zero set if none.
func (ix *idIndex) get(k leadKey) idSet {
	if k.class == leadNumber {
		return ix.num[k.num]
	}
	return ix.rest[k]
}

// add reports whether id was new under k.
func (ix *idIndex) add(k leadKey, id tuple.ID) bool {
	if k.class == leadNumber {
		return addID(&ix.num, k.num, id)
	}
	return addID(&ix.rest, k, id)
}

// remove reports whether id was filed under k.
func (ix *idIndex) remove(k leadKey, id tuple.ID) bool {
	if k.class == leadNumber {
		return removeID(ix.num, k.num, id)
	}
	return removeID(ix.rest, k, id)
}

func (ix *idIndex) len() int {
	return len(ix.num) + len(ix.rest)
}

// each visits the buckets in unspecified order until fn returns false, and
// reports whether it ran to completion.
func (ix *idIndex) each(fn func(leadKey, idSet) bool) bool {
	for n, s := range ix.num {
		if !fn(leadKey{class: leadNumber, num: n}, s) {
			return false
		}
	}
	for k, s := range ix.rest {
		if !fn(k, s) {
			return false
		}
	}
	return true
}

func addID[K comparable](m *map[K]idSet, k K, id tuple.ID) bool {
	was := (*m)[k]
	s := was
	if !s.add(id) {
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

func removeID[K comparable](m map[K]idSet, k K, id tuple.ID) bool {
	was, ok := m[k]
	s := was
	if !ok || !s.remove(id) {
		return false
	}
	switch {
	case s.len() == 0:
		delete(m, k)
	case s != was:
		m[k] = s
	}
	return true
}
