package dataspace

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// This file implements the commutativity-aware commit path: transactions
// whose footprint resolves to concrete (arity, lead) index buckets commit
// under per-key latches instead of shard mutexes, and commits queued on the
// same shard batch their version allocation and hook publication under one
// critical section (group commit).
//
// Why it is sound. Two dataspace transactions conflict only when their
// footprints share an index bucket: tuple operations on disjoint buckets
// commute (insertions into a multiset commute; deletions of distinct
// instances commute; a scan is unaffected by writes outside the buckets it
// reads). The key path therefore latches exactly the buckets a planned
// transaction can scan, retract from, or assert into — strict two-phase
// locking at bucket granularity. Conflicting commits serialize on a shared
// latch and allocate their versions while it is held, so the global version
// order extends the conflict order and the serializability witness
// (trace.CommitLog + refmodel.Replay) remains exact.
//
// Lock classes, in fixed acquisition order:
//
//  1. key latches — striped per shard, acquired in ascending (shard,
//     stripe) order across the whole store;
//  2. shard intent locks — shared (RLock) by key-mode commits, exclusive
//     by shard-mode commits (updateSet), ascending shard order;
//  3. shard mu — mu.RLock during the key commit's evaluation, mu.Lock
//     briefly during the batched apply, ascending shard order.
//
// Every path acquires classes strictly in this order, and within a class in
// ascending global order, so the ladder is deadlock-free.
//
// A key-mode commit buffers its mutations in its pooled journal (journal.go;
// keyWriter is the journal's overlay view) during evaluation under
// mu.RLock and publishes them under mu.Lock — either by enqueueing the
// journal on its shard's double-buffered commit queue, where the first
// committer becomes the leader, drains everyone's journals under a single
// mu.Lock (amortizing the E12 locks/op cost) and signals each follower on
// its journal's reusable done channel, or, for multi-shard footprints, by
// applying directly while holding every footprint shard's mu (so
// full-store snapshots never observe a torn commit). Either way the one
// publish step shared with the shard path reads the journal in place.
// Latches are held until the commit's mutations are applied and its version
// allocated, preserving two-phase locking. The latch plan itself is filled
// into the journal's buffers and sorted in place, so in the steady state the
// whole path allocates nothing.

// keyStripes is the number of key-latch stripes per shard. Collisions only
// serialize (never break) commits, so a modest count suffices.
const keyStripes = 64

// latchRef addresses one latch: a shard and a stripe within it.
type latchRef struct {
	si     uint32
	stripe uint32
}

// latchPlan is a commit's latch set: deduplicated, ascending (shard,
// stripe) — the global latch order — plus the covered buckets for Insert
// validation and the footprint shard set. It lives in the commit's journal,
// so planning reuses the journal's buffers.
type latchPlan struct {
	latches []latchRef
	keys    []indexKey
	ss      shardSet
}

// covers reports whether the plan's footprint includes bucket k.
func (lp *latchPlan) covers(k indexKey) bool {
	for _, have := range lp.keys {
		if have == k {
			return true
		}
	}
	return false
}

// stripeOf selects the latch stripe for a bucket from the high hash bits,
// independent of the low bits that select the shard.
func stripeOf(k indexKey) uint32 {
	return uint32(hashKey(k)>>32) % keyStripes
}

// planLatches fills the empty plan lp with the latches of keys. It reports
// false when any key is lead-unknown (arity > 0): such a footprint can
// touch any bucket of its arity and must fall back to shard-level locking.
func (s *Store) planLatches(keys []InterestKey, lp *latchPlan) bool {
	for _, k := range keys {
		ik, ok := k.bucket()
		if !ok {
			return false
		}
		if lp.covers(ik) {
			continue
		}
		lp.keys = append(lp.keys, ik)
		si := s.shardIndex(ik)
		lp.ss.add(si)
		lp.latches = append(lp.latches, latchRef{si: si, stripe: stripeOf(ik)})
	}
	slices.SortFunc(lp.latches, func(a, b latchRef) int {
		if a.si != b.si {
			return cmp.Compare(a.si, b.si)
		}
		return cmp.Compare(a.stripe, b.stripe)
	})
	// Distinct buckets can collide on a stripe; latch each stripe once.
	lp.latches = slices.Compact(lp.latches)
	return true
}

// keyWriter implements Writer for the commuting path over the commit's
// journal. Reads go to the live shard maps (under the footprint's mu read
// locks) overlaid with the journal's buffered mutations, so fn observes the
// standard read-your-writes semantics; mutations are buffered and applied
// under mu.Lock at publication. It overrides every reader method the
// journal would otherwise promote from its live reader.
type keyWriter struct{ *journal }

var _ Writer = keyWriter{}

// CommitRung reports the rung the commit that handed out w publishes on.
func CommitRung(w Writer) metrics.Rung {
	switch w := w.(type) {
	case keyWriter:
		return w.rung
	case writer:
		return w.rung
	}
	return metrics.RungNone
}

func (kw keyWriter) isDeleted(id tuple.ID) bool {
	_, gone := kw.delIDs[id]
	return gone
}

func (kw keyWriter) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	stopped := false
	kw.reader.Scan(arity, lead, leadKnown, func(id tuple.ID, t tuple.Tuple) bool {
		if kw.isDeleted(id) {
			return true
		}
		if !fn(id, t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, ins := range kw.inserted {
		t := ins.Tuple
		if t.Arity() != arity {
			continue
		}
		if leadKnown && (arity == 0 || canonLead(t.Field(0)) != canonLead(lead)) {
			continue
		}
		if !fn(ins.ID, t) {
			return
		}
	}
}

func (kw keyWriter) Get(id tuple.ID) (Instance, bool) {
	if kw.isDeleted(id) {
		return Instance{}, false
	}
	for _, ins := range kw.inserted {
		if ins.ID == id {
			return ins, true
		}
	}
	return kw.reader.Get(id)
}

func (kw keyWriter) Each(fn func(Instance) bool) {
	stopped := false
	kw.reader.Each(func(inst Instance) bool {
		if kw.isDeleted(inst.ID) {
			return true
		}
		if !fn(inst) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, ins := range kw.inserted {
		if !fn(ins) {
			return
		}
	}
}

func (kw keyWriter) Arities() []int {
	out := kw.reader.Arities()
	for _, ins := range kw.inserted {
		out = addArity(out, ins.Tuple.Arity())
	}
	return out
}

func (kw keyWriter) Version() uint64 { return kw.s.version.Load() }

func (kw keyWriter) Len() int {
	return kw.reader.Len() - len(kw.deleted) + len(kw.inserted)
}

func (kw keyWriter) Insert(t tuple.Tuple, owner tuple.ProcessID) tuple.ID {
	ik := indexKeyOf(t)
	if !kw.lp.covers(ik) {
		panic(fmt.Sprintf("dataspace: Insert of %v outside the commit's latched buckets (footprint plan missed a bucket)", t))
	}
	id := tuple.ID(kw.s.nextID.Add(1))
	kw.inserted = append(kw.inserted, Instance{ID: id, Tuple: t, Owner: owner})
	kw.insShard = append(kw.insShard, kw.s.shardIndex(ik))
	return id
}

func (kw keyWriter) Delete(id tuple.ID) error {
	if kw.isDeleted(id) {
		return fmt.Errorf("%w: %d", ErrNoSuchTuple, id)
	}
	for i, ins := range kw.inserted {
		if ins.ID == id {
			// Deleting a tuple inserted by this same transaction: cancel the
			// buffered insert.
			kw.inserted = append(kw.inserted[:i], kw.inserted[i+1:]...)
			kw.insShard = append(kw.insShard[:i], kw.insShard[i+1:]...)
			return nil
		}
	}
	inst, ok := kw.reader.Get(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTuple, id)
	}
	ik := indexKeyOf(inst.Tuple)
	if !kw.lp.covers(ik) {
		panic(fmt.Sprintf("dataspace: Delete of %v outside the commit's latched buckets (footprint plan missed a bucket)", inst.Tuple))
	}
	if kw.delIDs == nil {
		kw.delIDs = make(map[tuple.ID]struct{})
	}
	kw.delIDs[id] = struct{}{}
	kw.deleted = append(kw.deleted, inst)
	kw.delShard = append(kw.delShard, kw.s.shardIndex(ik))
	return nil
}

// commitQueue is a shard's group-commit queue of buffered journals. The
// first committer to find the queue inactive becomes the leader: it acquires
// the shard's mu once and drains every queued journal — including journals
// that arrive while it drains — under that single critical section. The
// queue is double-buffered: the leader swaps items with spare under mu and
// drains the taken list outside it, so a steady stream of commits reuses
// two arrays instead of growing a fresh one per drain. Only the leader
// touches spare.
type commitQueue struct {
	mu     sync.Mutex
	items  []*journal
	spare  []*journal
	active bool
}

// UpdateCommuting is UpdateKeys routed through the commutativity-aware
// commit path. When every key is concrete (arity + known lead), fn runs
// under per-key latches: commits touching disjoint buckets — even buckets
// of the same shard — proceed in parallel, and same-shard commits batch
// their publication (group commit). Footprints with a wildcard key, or
// that latch nothing, fall back to shard-level locking.
//
// fn receives a Writer with standard semantics (reads observe the
// transaction's own mutations). As with UpdateKeys, the footprint must
// cover every bucket fn scans, retracts from, or asserts into; the writer
// panics on a mutation outside the latched buckets.
func (s *Store) UpdateCommuting(owner tuple.ProcessID, keys []InterestKey, fn func(w Writer) error) error {
	j := s.journal(owner)
	lp := &j.lp
	if !s.planLatches(keys, lp) || len(lp.latches) == 0 {
		j.release()
		return s.UpdateKeys(owner, keys, fn)
	}
	j.rung = metrics.RungKey

	// 1. Key latches, ascending global (shard, stripe) order.
	for _, l := range lp.latches {
		s.sc.Yield(sched.PointLockKey)
		s.shards[l.si].latches[l.stripe].Lock()
		s.metrics.IncShardKeyLocks(l.si, 1)
	}
	if s.sc != nil {
		// Contention spike: widen the latched section, piling conflicting
		// key commits up behind this footprint.
		for n := s.sc.LockSpike(); n > 0; n-- {
			runtime.Gosched()
		}
	}

	// 2. Intent locks (shared), ascending shard order: shard-mode commits
	// are excluded from the footprint for the whole span.
	lp.ss.forEach(func(i uint32) bool {
		s.shards[i].intent.RLock()
		return true
	})
	unintent := func() {
		lp.ss.forEach(func(i uint32) bool {
			s.shards[i].intent.RUnlock()
			return true
		})
	}

	// 3. Evaluation under the footprint's read locks, mutations buffered.
	if s.metrics.Observed() {
		s.metrics.ObserveFootprint(lp.ss.count())
	}
	s.rlockSet(&lp.ss)
	err := fn(keyWriter{j})
	s.runlockSet(&lp.ss)
	if err != nil || (len(j.inserted) == 0 && len(j.deleted) == 0) {
		// Nothing was applied; discarding the buffers is the whole rollback.
		unintent()
		s.unlatch(lp.latches)
		j.release()
		return err
	}

	// 4. Publication: batched through the shard's commit queue when the
	// footprint is a single shard, direct (holding every footprint mu, so
	// snapshots never see a torn commit) when it spans several.
	if lp.ss.count() == 1 {
		var si uint32
		lp.ss.forEach(func(i uint32) bool { si = i; return false })
		s.groupCommit(si, j)
	} else {
		s.directCommit(j)
	}
	unintent()
	s.unlatch(lp.latches)
	s.waitDurable(j.dtok)
	s.notify(j)
	s.runAfterCommit()
	j.release()
	return nil
}

// unlatch releases a commit's key latches, in reverse order of acquisition.
func (s *Store) unlatch(latches []latchRef) {
	for i := len(latches) - 1; i >= 0; i-- {
		l := latches[i]
		s.shards[l.si].latches[l.stripe].Unlock()
	}
}

// groupCommit publishes a single-shard buffered commit through the shard's
// queue. The leader drains the queue under one mu.Lock: it applies every
// journal, allocates versions, and runs hooks — one lock acquisition for the
// whole batch — then signals each follower on its journal's done channel
// (its own journal needs no signal). Journals in one batch commute (their
// latch sets are disjoint, or they would not be queued concurrently), so the
// apply order within a batch is free; the exploration controller may permute
// it.
func (s *Store) groupCommit(si uint32, j *journal) {
	sh := s.shards[si]
	sh.queue.mu.Lock()
	sh.queue.items = append(sh.queue.items, j)
	leader := !sh.queue.active
	sh.queue.active = true
	sh.queue.mu.Unlock()

	if !leader {
		<-j.done
		return
	}

	s.sc.Yield(sched.PointGroupCommit)
	sh.mu.Lock()
	s.metrics.IncShardWrite(si)
	for {
		sh.queue.mu.Lock()
		batch := sh.queue.items
		if len(batch) == 0 {
			// The emptiness check and the handoff are atomic under queue.mu:
			// a committer enqueueing after this sees active=false and
			// becomes the next leader.
			sh.queue.active = false
			sh.queue.mu.Unlock()
			break
		}
		sh.queue.items, sh.queue.spare = sh.queue.spare[:0], batch
		sh.queue.mu.Unlock()
		order := batch
		if perm := s.sc.Perm(sched.PointGroupCommit, len(batch)); perm != nil {
			order = make([]*journal, len(batch))
			for i, k := range perm {
				order[i] = batch[k]
			}
		}
		for _, it := range order {
			s.applyBuffered(it)
		}
		sh.bumpSeq()
		s.metrics.ObserveGroupBatch(len(batch))
		for _, it := range batch {
			if it != j {
				it.done <- struct{}{}
			}
		}
		clear(batch) // the signalled journals belong to their committers again
	}
	sh.mu.Unlock()
}

// directCommit publishes a multi-shard buffered commit, holding every
// footprint shard's mu (ascending) for the apply so cross-shard snapshots
// observe the commit atomically.
func (s *Store) directCommit(j *journal) {
	j.lp.ss.forEach(func(i uint32) bool {
		s.shards[i].mu.Lock()
		s.metrics.IncShardWrite(i)
		return true
	})
	s.applyBuffered(j)
	s.bumpSeqs(j.insShard, j.delShard)
	j.lp.ss.forEach(func(i uint32) bool {
		s.shards[i].mu.Unlock()
		return true
	})
}

// applyBuffered applies one journal's buffered mutations to the live slabs
// and publishes it (the commit's key latches are still held, so conflicting
// commits append in version order). Deletes go first, so a
// read-modify-write refills the slot it frees and an exactly-sized slab
// does not grow. Callers hold the mu of every shard the journal touches.
//
// lint:holds latch mu
func (s *Store) applyBuffered(j *journal) {
	for i, del := range j.deleted {
		sh := s.shards[j.delShard[i]]
		slot, ok := sh.ids.find(sh.slab, del.ID)
		if !ok {
			// The latch held since evaluation makes this unreachable; a miss
			// means the two-phase-locking invariant was broken.
			panic(fmt.Sprintf("dataspace: buffered delete of %v lost its target (latch invariant violated)", del.Tuple))
		}
		sh.vacate(slot)
	}
	for i, ins := range j.inserted {
		s.shards[j.insShard[i]].place(ins)
	}
	s.publish(j)
}
