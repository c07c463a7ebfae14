package dataspace

import (
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/sched"
)

// Delta is one tuple-level change from a committed mutation, as delivered
// to reactive subscriptions: an instance asserted into or retracted from
// the dataspace. Deltas are routed through the same hash(arity, lead)
// index buckets as the tuples themselves, so a commit only inspects the
// subscriptions of the shards it wrote.
type Delta struct {
	Asserted bool // true: asserted; false: retracted
	Inst     Instance
}

// DeltaFilter decides, per delta, whether a change can affect a blocked
// guard. A wait's owner is its own filter, so a wait builds no closure: a
// process record, for the delayed statement it is parked on, and a Go-API
// delayed wait's answer (txn.Answer). The store runs AcceptDelta under the
// subscription's mutex, and only while the subscription is armed in the
// incarnation the commit found it in: a filter sees only what its owner
// wrote before Arm, and once Cancel returns it is never called again, so the
// owner may change whatever the filter reads.
type DeltaFilter interface {
	AcceptDelta(d Delta) bool
}

// Waker is told that a subscription it owns has something to drain: the
// process runtime's process record is one, so a blocked process is woken by
// a method on its record; a goroutine that waits on a channel passes a waker
// that sends on it. Wake runs under the subscription's mutex; it must not
// block, and may take only leaf locks (a run queue's).
type Waker interface {
	Wake()
}

// Subscription is the store's one wakeup primitive: a registered delta
// sink. A blocked delayed transaction or guarded selection arms one, and
// every relevant commit puts its accepted deltas straight into the
// subscription's buffer and wakes its owner; the owner drains the buffer,
// re-evaluates, and blocks again on the SAME subscription — deltas arriving
// while it evaluates are buffered, not lost.
//
// The owner is woken through the Waker it armed the subscription with, at
// most once per Drain: only a commit's delivery wakes — the first after a
// Drain — and only Drain, Arm and Cancel reset fired, all under mu, where
// the delivery also lands its deltas. So fired implies a nonempty buffer,
// and a wait allocates nothing after its first Arm: Drain hands out one
// buffer and takes the other back. The first of the two is inline
// (deltaBuf), so a wait that takes one delta per drain — a waiter released
// by one commit — allocates no buffer at all.
//
// Ownership and re-arm. A subscription belongs to one owner — a process
// record, for its delayed statements and blocking selections alike, or a
// Go-API delayed wait's pooled answer — which arms it for a wait
// (Store.Arm), cancels it when the wait ends, and may arm it again for the
// next. Each Arm and each Cancel starts a new incarnation (gen). A commit
// reads gen when it finds the subscription in a registry, under the
// registry's lock, and delivers under mu only while the subscription is
// still armed in that incarnation: a delivery collected before a Cancel or a
// re-arm is dropped, never landing in the next incarnation's buffer, and the
// filter never runs for an incarnation that has ended.
//
// The publisher filters: a subscription armed with a non-nil filter
// receives only the deltas the filter accepts, and when every delta of a
// commit is rejected the wakeup is suppressed entirely. A nil filter means
// "wake on any covering commit": the guard is not delta-safe, so any
// covering commit marks the buffer full (re-query required) but still
// batches — one wakeup per drain, however many commits landed.
//
// Registrations are sharded like the tuples themselves: a lead-known
// interest key registers only in the shard owning its bucket, so commits
// on other shards never even inspect it; lead-unknown keys of arity > 0
// register in every shard (their tuples may appear anywhere); arity-0 keys
// in the fixed zero-lead shard. The subscription mutex is a leaf — delivery,
// Drain, Arm and Cancel never hold it while taking another lock, except the
// leaf lock a Waker's Wake may take.
type Subscription struct {
	// gen is the incarnation: bumped under mu by Arm and Cancel, read by a
	// commit under the lock of the registry it found the subscription in.
	gen atomic.Uint64

	mu     sync.Mutex
	s      *Store      // the store armed on; nil while cancelled
	w      Waker       // the owner's, while armed
	filter DeltaFilter // nil: every covering commit requires a re-query
	armed  bool
	fired  bool    // the owner was woken since the last Drain
	deltas []Delta // filled by commits
	spare  []Delta // the batch the last Drain handed out, taken back by the next
	full   bool    // a non-delta-safe or broad/spurious wakeup landed: re-query

	regs     []subReg
	regsBuf  [2]subReg // regs' backing while the subscription has at most two; past that regs keeps its array across incarnations
	deltaBuf [1]Delta  // the first buffer's backing, until a delivery outgrows it (see Arm)
}

// Subscribe arms a new subscription for the given interest keys (see Arm).
func (s *Store) Subscribe(w Waker, keys []InterestKey, filter DeltaFilter, sels ...pattern.FieldSel) *Subscription {
	sub := new(Subscription)
	s.Arm(sub, w, keys, filter, sels...)
	return sub
}

// Arm registers sub — a zero Subscription, or one its owner has cancelled —
// for the given interest keys, as a fresh incarnation with an empty buffer
// whose deliveries wake w. filter decides, per delta, whether the change can affect the blocked guard;
// nil means "any covering change requires a full re-query". To avoid lost
// wakeups, callers must Arm BEFORE evaluating the query that may block — any
// commit after registration wakes w, so a change racing with
// the evaluation is never missed — and must Cancel the subscription when done.
//
// sels optionally narrows a filtered subscription inside its buckets:
// sels[i] promises that filter accepts a tuple reached through keys[i] only
// if it carries sels[i].Val at sels[i].Pos, and the subscription is then
// filed under that (pos, value) — commits look it up by the written tuple's
// own field values instead of running the filter of every subscription in
// the bucket. A missing or zero selector (Pos 0) means the whole bucket;
// selectors of unfiltered subscriptions and of lead-unknown keys are
// ignored. The filter still has the last word.
func (s *Store) Arm(sub *Subscription, w Waker, keys []InterestKey, filter DeltaFilter, sels ...pattern.FieldSel) {
	s.sc.Yield(sched.PointWaiterRegister)
	regs := sub.regsBuf[:0]
	if cap(sub.regs) > len(sub.regsBuf) {
		regs = sub.regs[:0]
	}
	for i, k := range keys {
		switch {
		case k.Arity == 0:
			regs = append(regs, subReg{si: s.shardIndex(indexKey{})})
		case k.LeadKnown:
			reg := subReg{ik: indexKey{arity: k.Arity, lead: canonLead(k.Lead)}}
			reg.si = s.shardIndex(reg.ik)
			if filter != nil && i < len(sels) {
				if p := sels[i].Pos; p > 0 && p < k.Arity && p < maxFieldArity {
					reg.sel = subSel{pos: p, val: canonLead(sels[i].Val)}
				}
			}
			regs = append(regs, reg)
		default:
			for si := range s.shards {
				regs = append(regs, subReg{si: uint32(si), ik: indexKey{arity: k.Arity}})
			}
		}
	}
	sub.mu.Lock()
	sub.gen.Add(1)
	sub.s, sub.w, sub.filter, sub.armed, sub.regs = s, w, filter, true, regs
	sub.full, sub.fired = false, false
	if cap(sub.deltas) == 0 && cap(sub.spare) == 0 { // neither buffer is deltaBuf
		sub.deltas = sub.deltaBuf[:0]
	}
	sub.mu.Unlock()
	s.metrics.SubscriptionsLive().Inc()
	for _, reg := range regs {
		s.shards[reg.si].waiters.add(reg, sub)
	}
}

// Drain swaps out the buffered deltas and the full-re-query flag, and lets
// the next delivery wake the owner again. A delivery racing with Drain
// lands either in the returned batch or in the emptied buffer with a fresh
// wake — never between, so no wakeup is lost. The returned batch is the subscription's: it stays valid
// until the next Drain, Arm or Cancel, which takes it back as the buffer
// the next deltas fill, so draining allocates nothing.
func (sub *Subscription) Drain() (deltas []Delta, full bool) {
	sub.mu.Lock()
	deltas, full = sub.deltas, sub.full
	sub.deltas, sub.spare = reclaim(sub.spare), deltas
	sub.full, sub.fired = false, false
	sub.mu.Unlock()
	return deltas, full
}

// reclaim empties a buffer Drain handed out, so it pins no instance, for
// reuse as the next buffer — or drops it past the pooling cap.
func reclaim(buf []Delta) []Delta {
	if cap(buf) > maxPooledEffects {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// deliver lands what one commit owes the subscription — collected in
// incarnation sd.gen — in its buffer, and wakes the owner if it was not
// woken since the last Drain: the full flag when the commit marked the
// delivery full or the subscription is unfiltered, else each offered delta
// the filter accepts, in commit order. It reports whether the subscription
// took anything; one no longer armed in sd.gen takes nothing, and a commit
// whose every delta the filter rejects is suppressed.
func (sub *Subscription) deliver(sd *subDelivery, dl *delivery, j *journal) (took bool) {
	sub.mu.Lock()
	switch {
	case !sub.armed || sub.gen.Load() != sd.gen:
	case sd.full || sub.filter == nil:
		sub.full = true
		clear(sub.deltas)
		sub.deltas = sub.deltas[:0]
		took = true
	default:
		for k := sd.head; k != 0; k = dl.offers[k-1].next {
			d := j.delta(dl.offers[k-1].n)
			if sub.filter.AcceptDelta(d) {
				took = true
				if !sub.full {
					sub.deltas = append(sub.deltas, d)
				}
			}
		}
	}
	if took && !sub.fired {
		sub.fired = true
		sub.w.Wake()
	}
	sub.mu.Unlock()
	return took
}

// Cancel ends the subscription's incarnation and releases its registration:
// from its return no delivery lands in the buffer and the filter is never
// called again. It is idempotent and safe concurrently with deliveries; a
// Cancel racing another may return before the other has finished
// deregistering.
func (sub *Subscription) Cancel() {
	sub.mu.Lock()
	if !sub.armed {
		sub.mu.Unlock()
		return
	}
	s := sub.s
	sub.gen.Add(1)
	sub.s, sub.w, sub.filter, sub.armed = nil, nil, nil, false
	sub.full, sub.fired = false, false
	sub.deltas, sub.spare = reclaim(sub.deltas), reclaim(sub.spare)
	sub.mu.Unlock()
	for _, reg := range sub.regs {
		s.shards[reg.si].waiters.remove(reg, sub)
	}
	clear(sub.regs)
	sub.regs = sub.regs[:0]
	s.metrics.SubscriptionsLive().Dec()
}

// collected is one registration a commit met: the subscription and the
// incarnation it was armed in when the registry's lock was held.
type collected struct {
	sub *Subscription
	gen uint64
}

// subDelivery is what one commit owes one candidate subscription: the
// deltas offered to it, as a chain through the delivery's offers, or the
// full flag.
type subDelivery struct {
	sub        *Subscription
	gen        uint64 // the incarnation the commit first found sub armed in
	head, tail int32  // the chain of offered deltas: 1 + index into offers, 0 = none
	full       bool   // re-query: the spurious-wakeup fault
}

// offer is one delta offered to one candidate: the delta's ordinal in the
// commit (journal.delta), and the next offer to the same candidate.
type offer struct {
	n    int
	next int32 // 1 + index into offers, 0 = end of chain
}

// delivery accumulates one commit's candidates in first-seen order. It lives
// in the commit's pooled journal, so its list, index and offers keep their
// storage from one commit to the next. A delta is offered by ordinal, never
// copied: deliver reads it from the journal into the subscription's buffer.
type delivery struct {
	index  map[*Subscription]int // position in list
	list   []subDelivery
	offers []offer
}

func (dl *delivery) get(c collected) *subDelivery {
	i, ok := dl.index[c.sub]
	if !ok {
		if dl.index == nil {
			dl.index = make(map[*Subscription]int)
		}
		i = len(dl.list)
		dl.index[c.sub] = i
		dl.list = append(dl.list, subDelivery{sub: c.sub, gen: c.gen})
	}
	return &dl.list[i]
}

// reset empties the delivery for the journal's next commit, with no
// subscription left in it, and reports whether it stayed within the pooling
// cap.
func (dl *delivery) reset() bool {
	clear(dl.list)
	dl.list = dl.list[:0]
	dl.offers = dl.offers[:0]
	clear(dl.index)
	return cap(dl.list) <= maxPooledEffects && cap(dl.offers) <= maxPooledEffects
}

// add offers the commit's nth delta (n >= 1) to every subscription in subs —
// once, however many of its registrations collected it.
func (dl *delivery) add(subs []collected, n int) {
	for _, c := range subs {
		sd := dl.get(c)
		if sd.tail != 0 && dl.offers[sd.tail-1].n == n {
			continue // offered through another of its registrations
		}
		dl.offers = append(dl.offers, offer{n: n})
		k := int32(len(dl.offers))
		if sd.tail == 0 {
			sd.head = k
		} else {
			dl.offers[sd.tail-1].next = k
		}
		sd.tail = k
	}
}

// delta returns the commit's nth delta (n >= 1): the inserted instances
// first, then the deleted ones.
func (j *journal) delta(n int) Delta {
	if n <= len(j.inserted) {
		return Delta{Asserted: true, Inst: j.inserted[n-1]}
	}
	return Delta{Inst: j.deleted[n-1-len(j.inserted)]}
}

// notify is the store's single wakeup pass: it routes a commit's
// tuple-level changes to the subscriptions whose interest covers them.
// Each written instance is matched against the registry of the shard it
// lives in — commits never touch the registries of shards outside their
// footprint; the journal records each instance's shard. It runs after the commit's locks are released and after the
// durability wait, so filters may be arbitrary user-level matchers.
//
// A candidate whose filter rejected every delta is suppressed (counted,
// not woken); the recorded fan-out is the subscriptions actually published
// to. The spurious-wakeup fault instead forces a full-re-query delivery to
// every subscription in every shard, matched or not: woken waiters
// re-evaluate and, finding their query still unsatisfied, block again —
// the subscribe-before-evaluate protocol makes this safe, and exploration
// verifies it stays safe. Correctness never depends on suppression.
func (s *Store) notify(j *journal) {
	dl := &j.dl
	if s.sc.SpuriousWakeup() {
		for _, sh := range s.shards {
			j.matched = sh.waiters.collectAll(j.matched)
		}
		for _, c := range j.matched {
			dl.get(c).full = true
		}
	} else {
		for i, inst := range j.inserted {
			j.matched = s.shards[j.insShard[i]].waiters.collect(inst, j.matched[:0])
			dl.add(j.matched, 1+i)
		}
		for i, inst := range j.deleted {
			j.matched = s.shards[j.delShard[i]].waiters.collect(inst, j.matched[:0])
			dl.add(j.matched, 1+len(j.inserted)+i)
		}
	}
	published := 0
	perm := s.sc.Perm(sched.PointReactiveDeliver, len(dl.list))
	for i := range dl.list {
		if perm != nil {
			i = perm[i]
		}
		sd := &dl.list[i]
		s.metrics.IncReactiveSignal()
		if sd.sub.deliver(sd, dl, j) {
			published++
		} else {
			s.metrics.IncReactiveSuppressed()
		}
	}
	if s.metrics.Observed() {
		s.metrics.ObserveWakeupFanout(published)
	}
}
