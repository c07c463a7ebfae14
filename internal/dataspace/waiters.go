package dataspace

import (
	"sync"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// InterestKey describes the tuples a blocked (delayed) transaction could
// match: an arity plus, when known, the required leading-field value. A key
// with LeadKnown=false subscribes to every change among tuples of that
// arity.
//
// The transaction engine also uses interest keys to plan a transaction's
// shard footprint (SnapshotKeys/UpdateKeys): a key addresses exactly the
// index bucket its tuples — and therefore its shard — live in.
type InterestKey struct {
	Arity     int
	Lead      tuple.Value
	LeadKnown bool
}

// subSet is one registry bucket's subscriptions, shaped like idSet: most
// buckets hold one or two waiters, so two members live in the set's own
// words and the rest spill to a map, and a bucket's first subscribers
// allocate nothing beyond their map slot. A subSet is a value held in that
// slot; insertSub and deleteSub write it back after every edit.
type subSet struct {
	a, b  *Subscription
	spill map[*Subscription]struct{}
}

func (s *subSet) add(sub *Subscription) {
	if _, ok := s.spill[sub]; ok || s.a == sub || s.b == sub {
		return
	}
	switch {
	case s.a == nil:
		s.a = sub
	case s.b == nil:
		s.b = sub
	default:
		if s.spill == nil {
			s.spill = make(map[*Subscription]struct{})
		}
		s.spill[sub] = struct{}{}
	}
}

func (s *subSet) remove(sub *Subscription) {
	switch sub {
	case s.a:
		s.a = nil
	case s.b:
		s.b = nil
	default:
		delete(s.spill, sub)
	}
}

func (s subSet) empty() bool { return s.a == nil && s.b == nil && len(s.spill) == 0 }

// appendTo appends the members to into, each with the incarnation it is
// armed in. Callers hold the registry's lock, which a member's Cancel needs
// to leave the set, so each incarnation read is one the member was still
// registered in.
func (s subSet) appendTo(into []collected) []collected {
	if s.a != nil {
		into = append(into, collected{s.a, s.a.gen.Load()})
	}
	if s.b != nil {
		into = append(into, collected{s.b, s.b.gen.Load()})
	}
	for sub := range s.spill {
		into = append(into, collected{sub, sub.gen.Load()})
	}
	return into
}

// subReg is one registry entry of a subscription: the shard it lives in,
// the bucket it covers and, for a field-indexed entry, the (pos, value) it
// is filed under. A zero lead class (no tuple value canonicalizes to it)
// marks an arity-wide entry; a zero sel.pos marks a whole-bucket one.
type subReg struct {
	si  uint32
	ik  indexKey
	sel subSel
}

// subSel is the (pos, value) a field-indexed registration is filed under.
type subSel struct {
	pos int
	val leadKey
}

func (reg subReg) arityWide() bool { return reg.ik.lead.class == 0 }

// selBucket holds one index bucket's field-indexed registrations. perPos
// counts them by position so collect probes only positions in use.
type selBucket struct {
	byVal  map[subSel]subSet
	perPos [maxFieldArity]int
}

// waiterRegistry indexes one shard's subscriptions by interest key: flat
// per bucket (byKey) and per arity (byArity), and — for subscriptions whose
// filter can only accept tuples carrying one known field value — by that
// (pos, value) inside the bucket (bySel), the subscription-side twin of the
// store's secondary field index. The zero value is ready to use. Its mutex
// is independent of the shard lock: Subscribe/Cancel never block behind a
// running transaction.
type waiterRegistry struct {
	mu      sync.Mutex
	byKey   map[indexKey]subSet
	byArity map[int]subSet
	bySel   map[indexKey]*selBucket
	spare   *selBucket // the last bucket emptied, for the next one made: a lone waiter re-arms allocating nothing
}

func (r *waiterRegistry) add(reg subReg, sub *Subscription) {
	r.mu.Lock()
	switch {
	case reg.arityWide():
		if r.byArity == nil {
			r.byArity = make(map[int]subSet)
		}
		insertSub(r.byArity, reg.ik.arity, sub)
	case reg.sel.pos > 0:
		if r.bySel == nil {
			r.bySel = make(map[indexKey]*selBucket)
		}
		sb := r.bySel[reg.ik]
		if sb == nil {
			if sb, r.spare = r.spare, nil; sb == nil {
				sb = &selBucket{byVal: make(map[subSel]subSet)}
			}
			r.bySel[reg.ik] = sb
		}
		insertSub(sb.byVal, reg.sel, sub)
		sb.perPos[reg.sel.pos]++
	default:
		if r.byKey == nil {
			r.byKey = make(map[indexKey]subSet)
		}
		insertSub(r.byKey, reg.ik, sub)
	}
	r.mu.Unlock()
}

func (r *waiterRegistry) remove(reg subReg, sub *Subscription) {
	r.mu.Lock()
	switch {
	case reg.arityWide():
		deleteSub(r.byArity, reg.ik.arity, sub)
	case reg.sel.pos > 0:
		if sb := r.bySel[reg.ik]; sb != nil {
			deleteSub(sb.byVal, reg.sel, sub)
			sb.perPos[reg.sel.pos]--
			if len(sb.byVal) == 0 {
				delete(r.bySel, reg.ik)
				r.spare = sb
			}
		}
	default:
		deleteSub(r.byKey, reg.ik, sub)
	}
	r.mu.Unlock()
}

func insertSub[K comparable](m map[K]subSet, k K, sub *Subscription) {
	set := m[k]
	set.add(sub)
	m[k] = set
}

func deleteSub[K comparable](m map[K]subSet, k K, sub *Subscription) {
	set, ok := m[k]
	if !ok {
		return
	}
	set.remove(sub)
	if set.empty() {
		delete(m, k)
	} else {
		m[k] = set
	}
}

// collect appends the subscriptions whose interest covers inst: the
// arity-wide and whole-bucket ones, plus the field-indexed ones filed under
// a value inst carries — looked up by inst's own fields, so a commit never
// meets the bucket's other field-indexed subscriptions. A subscription
// registered through several keys may be appended more than once; the
// delivery pass offers it each delta once.
func (r *waiterRegistry) collect(inst Instance, into []collected) []collected {
	r.mu.Lock()
	a := inst.Tuple.Arity()
	into = r.byArity[a].appendTo(into)
	if a > 0 {
		ik := indexKey{arity: a, lead: canonLead(inst.Tuple.Field(0))}
		into = r.byKey[ik].appendTo(into)
		if sb := r.bySel[ik]; sb != nil {
			for pos := 1; pos < a && pos < maxFieldArity; pos++ {
				if sb.perPos[pos] == 0 {
					continue
				}
				into = sb.byVal[subSel{pos: pos, val: canonLead(inst.Tuple.Field(pos))}].appendTo(into)
			}
		}
	}
	r.mu.Unlock()
	return into
}

// collectAll appends every registered subscription (the spurious-wakeup
// fault).
func (r *waiterRegistry) collectAll(into []collected) []collected {
	r.mu.Lock()
	for _, set := range r.byKey {
		into = set.appendTo(into)
	}
	for _, set := range r.byArity {
		into = set.appendTo(into)
	}
	for _, sb := range r.bySel {
		for _, set := range sb.byVal {
			into = set.appendTo(into)
		}
	}
	r.mu.Unlock()
	return into
}

// InterestOf derives the interest keys for a set of (arity, lead) pattern
// descriptors. It is a convenience for the transaction engine, which knows
// each pattern's arity and — under the issuing environment — whether the
// leading field is determined.
func InterestOf(arity int, lead tuple.Value, leadKnown bool) InterestKey {
	return InterestKey{Arity: arity, Lead: lead, LeadKnown: leadKnown}
}
