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

type subSet map[*Subscription]struct{}

// subReg is one registry entry of a subscription: the shard it lives in and
// the bucket it covers. A zero lead class (no tuple value canonicalizes to
// it) marks an arity-wide entry.
type subReg struct {
	si uint32
	ik indexKey
}

func (reg subReg) arityWide() bool { return reg.ik.lead.class == 0 }

// waiterRegistry indexes one shard's subscriptions by interest key. The
// zero value is ready to use. Its mutex is independent of the shard lock:
// Subscribe/Cancel never block behind a running transaction.
type waiterRegistry struct {
	mu      sync.Mutex
	byKey   map[indexKey]subSet
	byArity map[int]subSet
}

func (r *waiterRegistry) add(reg subReg, sub *Subscription) {
	r.mu.Lock()
	if reg.arityWide() {
		if r.byArity == nil {
			r.byArity = make(map[int]subSet)
		}
		insertSub(r.byArity, reg.ik.arity, sub)
	} else {
		if r.byKey == nil {
			r.byKey = make(map[indexKey]subSet)
		}
		insertSub(r.byKey, reg.ik, sub)
	}
	r.mu.Unlock()
}

func (r *waiterRegistry) remove(reg subReg, sub *Subscription) {
	r.mu.Lock()
	if reg.arityWide() {
		deleteSub(r.byArity, reg.ik.arity, sub)
	} else {
		deleteSub(r.byKey, reg.ik, sub)
	}
	r.mu.Unlock()
}

func insertSub[K comparable](m map[K]subSet, k K, sub *Subscription) {
	set := m[k]
	if set == nil {
		set = make(subSet)
		m[k] = set
	}
	set[sub] = struct{}{}
}

func deleteSub[K comparable](m map[K]subSet, k K, sub *Subscription) {
	if set := m[k]; set != nil {
		delete(set, sub)
		if len(set) == 0 {
			delete(m, k)
		}
	}
}

// collect appends the subscriptions whose interest covers inst.
func (r *waiterRegistry) collect(inst Instance, into []*Subscription) []*Subscription {
	r.mu.Lock()
	a := inst.Tuple.Arity()
	for sub := range r.byArity[a] {
		into = append(into, sub)
	}
	if a > 0 {
		ik := indexKey{arity: a, lead: canonLead(inst.Tuple.Field(0))}
		for sub := range r.byKey[ik] {
			into = append(into, sub)
		}
	}
	r.mu.Unlock()
	return into
}

// collectAll appends every registered subscription (broad wakeups and the
// spurious-wakeup fault).
func (r *waiterRegistry) collectAll(into []*Subscription) []*Subscription {
	r.mu.Lock()
	for _, set := range r.byKey {
		for sub := range set {
			into = append(into, sub)
		}
	}
	for _, set := range r.byArity {
		for sub := range set {
			into = append(into, sub)
		}
	}
	r.mu.Unlock()
	return into
}

// SetBroadWakeups disables interest-keyed wakeups: every commit wakes
// every subscription for a full re-query, as a naive implementation would.
// This exists solely for the E10 ablation benchmark; call it before the
// store is shared.
func (s *Store) SetBroadWakeups(broad bool) {
	s.broadWake.Store(broad)
}

// InterestOf derives the interest keys for a set of (arity, lead) pattern
// descriptors. It is a convenience for the transaction engine, which knows
// each pattern's arity and — under the issuing environment — whether the
// leading field is determined.
func InterestOf(arity int, lead tuple.Value, leadKnown bool) InterestKey {
	return InterestKey{Arity: arity, Lead: lead, LeadKnown: leadKnown}
}
