package dataspace

import (
	"sync"

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

// Subscription is the store's one wakeup primitive: a registered delta
// sink. A blocked delayed transaction or guarded selection subscribes
// once, and every relevant commit publishes its deltas into the
// subscription's buffer and readies its channel; the waiter drains the
// buffer, re-evaluates, and blocks again on the SAME subscription and the
// same channel — deltas arriving while it evaluates are buffered, not lost.
//
// The ready channel is made once and holds at most one token: only publish
// sends — the first after a Drain — and only Drain, which takes back a token
// nobody received, resets fired, both under mu. So an unfired subscription's
// channel is empty, the send never blocks, and a wait allocates nothing after
// Subscribe.
//
// The publisher filters: a subscription created with a non-nil filter
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
// in the fixed zero-lead shard. The subscription mutex is a leaf — publish
// and Drain never touch shard locks.
type Subscription struct {
	s      *Store
	filter func(Delta) bool

	ch chan struct{} // cap 1, for the subscription's whole life

	mu     sync.Mutex
	fired  bool // a token was sent since the last Drain
	deltas []Delta
	full   bool // a non-delta-safe or broad/spurious wakeup landed: re-query

	regs       []subReg
	regsBuf    [4]subReg // regs' backing while the subscription has at most four
	cancelOnce sync.Once
}

// Subscribe registers a subscription for the given interest keys. filter
// decides, per delta, whether the change can affect the blocked guard; nil
// means "any covering change requires a full re-query". To avoid lost
// wakeups, callers must Subscribe BEFORE evaluating the query that may
// block — any commit after registration fires the ready channel, so a
// change racing with the evaluation is never missed — and must Cancel the
// subscription when done (idempotent).
//
// sels optionally narrows a filtered subscription inside its buckets:
// sels[i] promises that filter accepts a tuple reached through keys[i] only
// if it carries sels[i].Val at sels[i].Pos, and the subscription is then
// filed under that (pos, value) — commits look it up by the written tuple's
// own field values instead of running the filter of every subscription in
// the bucket. A missing or zero selector (Pos 0) means the whole bucket;
// selectors of unfiltered subscriptions and of lead-unknown keys are
// ignored. The filter still has the last word.
func (s *Store) Subscribe(keys []InterestKey, filter func(Delta) bool, sels ...pattern.FieldSel) *Subscription {
	s.sc.Yield(sched.PointWaiterRegister)
	sub := &Subscription{s: s, filter: filter, ch: make(chan struct{}, 1)}
	sub.regs = sub.regsBuf[:0]
	s.metrics.SubscriptionsLive().Inc()
	for i, k := range keys {
		switch {
		case k.Arity == 0:
			sub.regs = append(sub.regs, subReg{si: s.shardIndex(indexKey{})})
		case k.LeadKnown:
			reg := subReg{ik: indexKey{arity: k.Arity, lead: canonLead(k.Lead)}}
			reg.si = s.shardIndex(reg.ik)
			if filter != nil && i < len(sels) {
				if p := sels[i].Pos; p > 0 && p < k.Arity && p < maxFieldArity {
					reg.sel = subSel{pos: p, val: canonLead(sels[i].Val)}
				}
			}
			sub.regs = append(sub.regs, reg)
		default:
			for si := range s.shards {
				sub.regs = append(sub.regs, subReg{si: uint32(si), ik: indexKey{arity: k.Arity}})
			}
		}
	}
	for _, reg := range sub.regs {
		s.shards[reg.si].waiters.add(reg, sub)
	}
	return sub
}

// Ready returns the subscription's ready channel, one channel for its whole
// life: a receive succeeds once a publish has landed since the last Drain.
// Receiving takes the token, so a waiter that woke must Drain before it
// waits again.
func (sub *Subscription) Ready() <-chan struct{} {
	return sub.ch
}

// Drain swaps out the buffered deltas and the full-re-query flag, and
// re-arms the ready channel in place, taking back a token nobody received.
// Publishes racing with Drain land either in the returned batch or in the
// emptied buffer with a fresh token sent — never between, so no wakeup is
// lost.
func (sub *Subscription) Drain() (deltas []Delta, full bool) {
	sub.mu.Lock()
	deltas, full = sub.deltas, sub.full
	sub.deltas, sub.full = nil, false
	if sub.fired {
		select {
		case <-sub.ch:
		default: // the waiter received it
		}
		sub.fired = false
	}
	sub.mu.Unlock()
	return deltas, full
}

// publish appends a commit's deltas (or the full flag) and readies the
// channel if no token was sent since the last Drain.
func (sub *Subscription) publish(deltas []Delta, full bool) {
	sub.mu.Lock()
	if full {
		sub.full = true
		sub.deltas = nil
	} else if !sub.full {
		sub.deltas = append(sub.deltas, deltas...)
	}
	if !sub.fired {
		sub.fired = true
		sub.ch <- struct{}{}
	}
	sub.mu.Unlock()
}

// Cancel releases the registration (idempotent, safe concurrently with
// publishes).
func (sub *Subscription) Cancel() {
	sub.cancelOnce.Do(func() {
		for _, reg := range sub.regs {
			sub.s.shards[reg.si].waiters.remove(reg, sub)
		}
		sub.s.metrics.SubscriptionsLive().Dec()
	})
}

// subDelivery is what one commit owes one candidate subscription.
type subDelivery struct {
	sub    *Subscription
	deltas []Delta
	full   bool
	seen   int // ordinal of the last delta offered to sub (0 = none yet)
}

// delivery accumulates one commit's candidates in first-seen order. It lives
// in the commit's pooled journal, so list keeps its entries' delta buffers
// and index its buckets from one commit to the next.
type delivery struct {
	index map[*Subscription]int // position in list
	list  []subDelivery
}

func (dl *delivery) get(sub *Subscription) *subDelivery {
	i, ok := dl.index[sub]
	if !ok {
		if dl.index == nil {
			dl.index = make(map[*Subscription]int)
		}
		i = len(dl.list)
		dl.index[sub] = i
		if i < cap(dl.list) {
			dl.list = dl.list[:i+1] // reset emptied the entry and kept its delta buffer
		} else {
			dl.list = append(dl.list, subDelivery{})
		}
		dl.list[i].sub = sub
	}
	return &dl.list[i]
}

// reset empties the delivery for the journal's next commit — keeping the
// list's delta buffers, with no subscription or instance left in them — and
// reports whether it stayed within the pooling cap.
func (dl *delivery) reset() bool {
	for i := range dl.list {
		sd := &dl.list[i]
		if cap(sd.deltas) > maxPooledEffects {
			return false
		}
		clear(sd.deltas)
		*sd = subDelivery{deltas: sd.deltas[:0]}
	}
	dl.list = dl.list[:0]
	clear(dl.index)
	return cap(dl.list) <= maxPooledEffects
}

// add offers the commit's nth delta (n >= 1) to every subscription in subs,
// through its filter — once, however many of its registrations collected it.
func (dl *delivery) add(subs []*Subscription, n int, d Delta) {
	for _, sub := range subs {
		sd := dl.get(sub)
		if sd.seen == n {
			continue
		}
		sd.seen = n
		switch {
		case sd.full:
		case sub.filter == nil:
			sd.full = true
		case sub.filter(d):
			sd.deltas = append(sd.deltas, d)
		}
	}
}

// notify is the store's single wakeup pass: it routes a commit's
// tuple-level changes to the subscriptions whose interest covers them.
// Each written instance is matched against the registry of the shard it
// lives in — commits never touch the registries of shards outside their
// footprint; the journal records each instance's shard (shard path and key
// path alike). It runs after the commit's locks are released and after the
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
		for _, sub := range j.matched {
			dl.get(sub).full = true
		}
	} else {
		for i, inst := range j.inserted {
			j.matched = s.shards[j.insShard[i]].waiters.collect(inst, j.matched[:0])
			dl.add(j.matched, 1+i, Delta{Asserted: true, Inst: inst})
		}
		for i, inst := range j.deleted {
			j.matched = s.shards[j.delShard[i]].waiters.collect(inst, j.matched[:0])
			dl.add(j.matched, 1+len(j.inserted)+i, Delta{Asserted: false, Inst: inst})
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
		if sd.full || len(sd.deltas) > 0 {
			sd.sub.publish(sd.deltas, sd.full)
			published++
		} else {
			s.metrics.IncReactiveSuppressed()
		}
	}
	if s.metrics.Observed() {
		s.metrics.ObserveWakeupFanout(published)
	}
}
