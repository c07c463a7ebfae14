package dataspace

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// This file implements the store's commit paths. Every commit buffers its
// edits in its pooled journal (journal.go), through the one Writer,
// keyWriter, then applies them. Transactions whose footprint resolves to
// concrete (arity, lead) index buckets commit under per-key latches, and
// commits queued on the same shard batch their version allocation and hook
// publication under one critical section (group commit).
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
//     by shard-mode commits (updateSet) from their evaluation through
//     their apply, ascending shard order;
//  3. shard mu — mu.RLock during every commit's evaluation, mu.Lock
//     briefly during the apply, ascending shard order.
//
// Every path acquires classes strictly in this order, and within a class in
// ascending global order, so the ladder is deadlock-free.
//
// A commit buffers its mutations in its journal (keyWriter is the
// journal's overlay view) during evaluation under mu.RLock and publishes
// them under mu.Lock. A single-shard key-mode commit enqueues its journal
// on its shard's double-buffered commit queue, where the first committer
// becomes the leader, drains everyone's journals under a single mu.Lock
// (amortizing the E12 locks/op cost) and signals each follower on its
// journal's reusable done channel. Every other commit applies directly,
// holding the mu of every shard it writes (so full-store snapshots never
// observe a torn commit). Either way the one publish step reads the journal in
// place. Latches (key mode) or exclusive intent locks (shard mode) are held
// until the commit's mutations are applied and its version allocated,
// preserving two-phase locking; a commit whose fn fails or changes nothing
// applies nothing, and discarding its buffers is the whole rollback. The
// latch plan itself is filled into the journal's buffers and sorted in
// place, so in the steady state the whole path allocates nothing.

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

// keyWriter is the store's Writer, on every rung, over the commit's
// journal. Reads go to the live shard maps (under the footprint's mu read
// locks) overlaid with the journal's buffered mutations, so fn observes the
// standard read-your-writes semantics; mutations are buffered and applied
// under mu.Lock at publication. It overrides every reader method whose
// answer they change; Version and the estimates (LeadWide, JoinEstimator),
// which the few buffered mutations do not sway, come from the live reader.
type keyWriter struct{ *journal }

var _ Writer = keyWriter{}

// CommitRung reports the rung the commit that handed out w publishes on.
func CommitRung(w Writer) metrics.Rung {
	if kw, ok := w.(keyWriter); ok {
		return kw.rung
	}
	return metrics.RungNone
}

// SkipWait keeps the commit that handed out w from offering its effects to
// sub, the committer's own wait, which it cancels once the commit returns.
func SkipWait(w Writer, sub *Subscription) {
	if kw, ok := w.(keyWriter); ok {
		kw.own = sub
	}
}

// isDeleted reports whether the commit deleted id: a live instance or one
// of its own inserts.
func (kw keyWriter) isDeleted(id tuple.ID) bool {
	_, gone := kw.delIDs[id]
	return gone
}

// covers reports whether the commit may edit bucket k, of shard si: a
// bucket its latches cover on the key rung, any of its shards' otherwise.
func (kw keyWriter) covers(k indexKey, si uint32) bool {
	return kw.lp.ss.has(si) && (len(kw.lp.keys) == 0 || kw.lp.covers(k))
}

// hidingDeleted wraps a scan callback so it skips what the commit deleted;
// stopped records that fn ended the scan.
func (kw keyWriter) hidingDeleted(fn func(tuple.ID, tuple.Tuple) bool, stopped *bool) func(tuple.ID, tuple.Tuple) bool {
	return func(id tuple.ID, t tuple.Tuple) bool {
		if kw.isDeleted(id) {
			return true
		}
		*stopped = !fn(id, t)
		return !*stopped
	}
}

// eachOwn calls fn for the inserts in own, the commit's inserts as a scan
// began (what fn inserts, the running scan does not visit), of arity and,
// with leadKnown, of lead, less those the commit has deleted again.
func (kw keyWriter) eachOwn(own []Instance, arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	for _, ins := range own {
		t := ins.Tuple
		if t.Arity() != arity || kw.isDeleted(ins.ID) ||
			leadKnown && (arity == 0 || canonLead(t.Field(0)) != canonLead(lead)) {
			continue
		}
		if !fn(ins.ID, t) {
			return
		}
	}
}

func (kw keyWriter) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	own, stopped := kw.inserted, false
	kw.reader.Scan(arity, lead, leadKnown, kw.hidingDeleted(fn, &stopped))
	if !stopped {
		kw.eachOwn(own, arity, lead, leadKnown, fn)
	}
}

// ownInsert finds one of the commit's inserts by its ID. Insert mints IDs
// in ascending order, so the inserts are sorted by ID.
func (kw keyWriter) ownInsert(id tuple.ID) (Instance, bool) {
	i, ok := slices.BinarySearchFunc(kw.inserted, id, func(ins Instance, id tuple.ID) int { return cmp.Compare(ins.ID, id) })
	if !ok {
		return Instance{}, false
	}
	return kw.inserted[i], true
}

func (kw keyWriter) Get(id tuple.ID) (Instance, bool) {
	if kw.isDeleted(id) {
		return Instance{}, false
	}
	if ins, ok := kw.ownInsert(id); ok {
		return ins, true
	}
	return kw.reader.Get(id)
}

func (kw keyWriter) Each(fn func(Instance) bool) {
	own := kw.inserted // what fn inserts, the running scan does not visit
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
	for _, ins := range own {
		if !kw.isDeleted(ins.ID) && !fn(ins) {
			return
		}
	}
}

// Arities lists the live arities and those of the commit's inserts, less
// those whose every tuple the commit deleted.
func (kw keyWriter) Arities() []int {
	out := kw.reader.Arities()
	for _, ins := range kw.inserted {
		out = addArity(out, ins.Tuple.Arity())
	}
	return slices.DeleteFunc(out, func(a int) bool {
		empty := true
		kw.Scan(a, tuple.Value{}, false, func(tuple.ID, tuple.Tuple) bool { empty = false; return false })
		return empty
	})
}

// Len counts the live instances and the commit's inserts, less what it
// deleted of either.
func (kw keyWriter) Len() int {
	return kw.reader.Len() + len(kw.inserted) - len(kw.delIDs)
}

func (kw keyWriter) Insert(t tuple.Tuple, owner tuple.ProcessID) tuple.ID {
	ik := indexKeyOf(t)
	si := kw.s.shardIndex(ik)
	if !kw.covers(ik, si) {
		panic(fmt.Sprintf("dataspace: Insert of %v outside the commit's footprint (its plan missed a bucket)", t))
	}
	id := tuple.ID(kw.s.nextID.Add(1))
	kw.inserted = append(kw.inserted, Instance{ID: id, Tuple: t, Owner: owner})
	kw.insShard = append(kw.insShard, si)
	return id
}

// Delete buffers the deletion of a live instance, or hides one of the
// commit's own inserts, which commit cuts once fn has returned: the inserts
// stay in place while fn runs, so a scan of them that the Delete runs
// inside keeps its place.
func (kw keyWriter) Delete(id tuple.ID) error {
	if kw.isDeleted(id) {
		return fmt.Errorf("%w: %d", ErrNoSuchTuple, id)
	}
	if _, own := kw.ownInsert(id); !own {
		inst, ok := kw.reader.Get(id)
		if !ok {
			return fmt.Errorf("%w: %d", ErrNoSuchTuple, id)
		}
		ik := indexKeyOf(inst.Tuple)
		si := kw.s.shardIndex(ik)
		if !kw.covers(ik, si) {
			panic(fmt.Sprintf("dataspace: Delete of %v outside the commit's footprint (its plan missed a bucket)", inst.Tuple))
		}
		kw.deleted = append(kw.deleted, inst)
		kw.delShard = append(kw.delShard, si)
	}
	if kw.delIDs == nil {
		kw.delIDs = make(map[tuple.ID]struct{})
	}
	kw.delIDs[id] = struct{}{}
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
	for _, l := range lp.latches {
		s.sc.Yield(sched.PointLockKey)
		s.shards[l.si].latches[l.stripe].Lock()
		s.metrics.IncShardKeyLocks(l.si, 1)
	}
	return s.commit(j, fn)
}

// commit runs fn through the journal's buffered overlay, under its
// footprint's read locks, and applies and publishes what fn wrote, on every
// rung (see the file comment). The footprint's intent locks are held from
// before fn runs until the apply is done, so what fn read still holds when
// its edits land.
func (s *Store) commit(j *journal, fn func(w Writer) error) error {
	s.lockIntents(j)
	s.spike()
	if s.metrics.Observed() {
		s.metrics.ObserveFootprint(j.lp.ss.count())
	}
	s.rlockSet(&j.lp.ss)
	err := fn(keyWriter{j})
	s.runlockSet(&j.lp.ss)
	if len(j.delIDs) > len(j.deleted) {
		// fn deleted some of its own inserts: cut them, so neither the slabs
		// nor the commit record see them.
		k := 0
		for i, ins := range j.inserted {
			if _, gone := j.delIDs[ins.ID]; !gone {
				j.inserted[k], j.insShard[k] = ins, j.insShard[i]
				k++
			}
		}
		j.inserted, j.insShard = j.inserted[:k], j.insShard[:k]
	}
	if err != nil || (len(j.inserted) == 0 && len(j.deleted) == 0) {
		// Nothing was applied; discarding the buffers is the whole rollback.
		s.unlockIntents(j)
		s.unlatch(j.lp.latches)
		j.release()
		return err
	}
	if j.rung == metrics.RungKey && j.lp.ss.count() == 1 {
		var si uint32
		j.lp.ss.forEach(func(i uint32) bool { si = i; return false })
		s.groupCommit(si, j)
	} else {
		s.directCommit(j)
	}
	s.unlockIntents(j)
	s.unlatch(j.lp.latches)
	s.finishCommit(j)
	return nil
}

// finishCommit is the tail every published commit shares, once its locks
// are released: it waits for the commit's record to be durable, wakes the
// subscribers it affects, runs the after-commit hook and returns the
// journal to its pool.
func (s *Store) finishCommit(j *journal) {
	s.waitDurable(j.dtok)
	s.notify(j)
	s.runAfterCommit()
	j.release()
}

// intent returns the commit's intent lock on shard i: shared on the key
// rung, exclusive on the others.
func (s *Store) intent(j *journal, i uint32) sync.Locker {
	if j.rung == metrics.RungKey {
		return s.shards[i].intent.RLocker()
	}
	return &s.shards[i].intent
}

// lockIntents takes the commit's intent locks, in ascending shard order.
func (s *Store) lockIntents(j *journal) {
	j.lp.ss.forEach(func(i uint32) bool { s.intent(j, i).Lock(); return true })
}

func (s *Store) unlockIntents(j *journal) {
	j.lp.ss.forEach(func(i uint32) bool { s.intent(j, i).Unlock(); return true })
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
// it. Its callers hold the commit's latches and its shard's shared intent
// lock.
//
// lint:holds intent
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

// directCommit publishes a buffered commit on its own, holding the mu of
// every shard it writes (ascending) for the apply so cross-shard snapshots
// observe the commit atomically. Its callers hold the footprint's intent
// locks, exclusive or shared under the commit's latches, from before its
// evaluation: nothing the evaluation read, in any shard, has changed since.
//
// lint:holds intent
func (s *Store) directCommit(j *journal) {
	var written shardSet
	for _, si := range j.insShard {
		written.add(si)
	}
	for _, si := range j.delShard {
		written.add(si)
	}
	written.forEach(func(i uint32) bool {
		s.shards[i].mu.Lock()
		s.metrics.IncShardWrite(i)
		return true
	})
	s.applyBuffered(j)
	s.bumpSeqs(&written)
	written.forEach(func(i uint32) bool {
		s.shards[i].mu.Unlock()
		return true
	})
}

// applyBuffered applies one journal's buffered mutations to the live slabs
// and publishes it (the commit's latches or exclusive intent locks are still
// held, so conflicting commits append in version order). Deletes go first,
// so a read-modify-write refills the slot it frees and an exactly-sized slab
// does not grow. Callers hold the mu of every shard the journal touches.
//
// lint:holds intent mu
func (s *Store) applyBuffered(j *journal) {
	for i, del := range j.deleted {
		sh := s.shards[j.delShard[i]]
		slot, ok := sh.ids.find(&sh.slab, del.ID)
		if !ok {
			// The latch or exclusive intent lock held since evaluation makes
			// this unreachable; a miss means two-phase locking was broken.
			panic(fmt.Sprintf("dataspace: buffered delete of %v lost its target (two-phase locking violated)", del.Tuple))
		}
		sh.vacate(slot)
	}
	for i, ins := range j.inserted {
		s.shards[j.insShard[i]].place(ins)
	}
	s.publish(j)
}
