package dataspace

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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
// A key-mode commit buffers its mutations (keyWriter) during evaluation
// under mu.RLock and publishes them under mu.Lock — either by enqueueing on
// its shard's commit queue, where the first committer becomes the leader
// and drains everyone's buffers under a single mu.Lock (amortizing the E12
// locks/op cost), or, for multi-shard footprints, by applying directly
// while holding every footprint shard's mu (so full-store snapshots never
// observe a torn commit). Latches are held until the commit's mutations are
// applied and its version allocated, preserving two-phase locking.

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
// validation and the footprint shard set.
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

// planLatches maps interest keys onto a latch plan. ok=false when any key
// is lead-unknown (arity > 0): such a footprint can touch any bucket of its
// arity and must fall back to shard-level locking.
func (s *Store) planLatches(keys []InterestKey) (latchPlan, bool) {
	var lp latchPlan
	for _, k := range keys {
		ik, ok := k.bucket()
		if !ok {
			return latchPlan{}, false
		}
		if lp.covers(ik) {
			continue
		}
		lp.keys = append(lp.keys, ik)
		si := s.shardIndex(ik)
		lp.ss.add(si)
		lp.latches = append(lp.latches, latchRef{si: si, stripe: stripeOf(ik)})
	}
	sort.Slice(lp.latches, func(i, j int) bool {
		a, b := lp.latches[i], lp.latches[j]
		if a.si != b.si {
			return a.si < b.si
		}
		return a.stripe < b.stripe
	})
	// Distinct buckets can collide on a stripe; latch each stripe once.
	dedup := lp.latches[:0]
	for _, l := range lp.latches {
		if len(dedup) == 0 || dedup[len(dedup)-1] != l {
			dedup = append(dedup, l)
		}
	}
	lp.latches = dedup
	return lp, true
}

// keyWriter implements Writer for the commuting path. Reads go to the live
// shard maps (under the footprint's mu read locks) overlaid with the
// writer's own buffered mutations, so fn observes the standard
// read-your-writes semantics; mutations are buffered and applied under
// mu.Lock at publication.
type keyWriter struct {
	s     *Store
	lp    *latchPlan
	owner tuple.ProcessID

	inserted []Instance
	insShard []uint32
	deleted  []Instance
	delShard []uint32
	delIDs   map[tuple.ID]struct{}
}

var _ Writer = (*keyWriter)(nil)

func (kw *keyWriter) isDeleted(id tuple.ID) bool {
	_, gone := kw.delIDs[id]
	return gone
}

func (kw *keyWriter) live() reader { return reader{s: kw.s, ss: &kw.lp.ss} }

func (kw *keyWriter) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	stopped := false
	kw.live().Scan(arity, lead, leadKnown, func(id tuple.ID, t tuple.Tuple) bool {
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

func (kw *keyWriter) Get(id tuple.ID) (Instance, bool) {
	if kw.isDeleted(id) {
		return Instance{}, false
	}
	for _, ins := range kw.inserted {
		if ins.ID == id {
			return ins, true
		}
	}
	return kw.live().Get(id)
}

func (kw *keyWriter) Each(fn func(Instance) bool) {
	stopped := false
	kw.live().Each(func(inst Instance) bool {
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

func (kw *keyWriter) Arities() []int {
	out := kw.live().Arities()
	for _, ins := range kw.inserted {
		out = addArity(out, ins.Tuple.Arity())
	}
	return out
}

func (kw *keyWriter) Version() uint64 { return kw.s.version.Load() }

func (kw *keyWriter) Len() int {
	return kw.live().Len() - len(kw.deleted) + len(kw.inserted)
}

func (kw *keyWriter) Insert(t tuple.Tuple, owner tuple.ProcessID) tuple.ID {
	ik := indexKeyOf(t)
	if !kw.lp.covers(ik) {
		panic(fmt.Sprintf("dataspace: Insert of %v outside the commit's latched buckets (footprint plan missed a bucket)", t))
	}
	id := tuple.ID(kw.s.nextID.Add(1))
	kw.inserted = append(kw.inserted, Instance{ID: id, Tuple: t, Owner: owner})
	kw.insShard = append(kw.insShard, kw.s.shardIndex(ik))
	return id
}

func (kw *keyWriter) Delete(id tuple.ID) error {
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
	inst, ok := kw.live().Get(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchTuple, id)
	}
	if !kw.lp.covers(indexKeyOf(inst.Tuple)) {
		panic(fmt.Sprintf("dataspace: Delete of %v outside the commit's latched buckets (footprint plan missed a bucket)", inst.Tuple))
	}
	if kw.delIDs == nil {
		kw.delIDs = make(map[tuple.ID]struct{})
	}
	kw.delIDs[id] = struct{}{}
	kw.deleted = append(kw.deleted, inst)
	kw.delShard = append(kw.delShard, kw.s.shardIndex(indexKeyOf(inst.Tuple)))
	return nil
}

// commitItem is one buffered commit queued for a shard's group-commit
// drain. done is closed by the leader once the item's mutations are
// applied, its version allocated, and its hooks run.
type commitItem struct {
	kw   *keyWriter
	rec  CommitRecord
	dtok uint64 // durability wait token (set by the leader's apply)
	done chan struct{}
}

// commitQueue is a shard's group-commit queue. The first committer to find
// the queue inactive becomes the leader: it acquires the shard's mu once
// and drains every queued item — including items that arrive while it
// drains — under that single critical section.
type commitQueue struct {
	mu     sync.Mutex
	items  []*commitItem
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
	lp, ok := s.planLatches(keys)
	if !ok || len(lp.latches) == 0 {
		return s.UpdateKeys(owner, keys, fn)
	}

	// 1. Key latches, ascending global (shard, stripe) order.
	for _, l := range lp.latches {
		s.sc.Yield(sched.PointLockKey)
		s.shards[l.si].latches[l.stripe].Lock()
		s.metrics.IncShardKeyLocks(l.si, 1)
	}
	unlatch := func() {
		for i := len(lp.latches) - 1; i >= 0; i-- {
			l := lp.latches[i]
			s.shards[l.si].latches[l.stripe].Unlock()
		}
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
	kw := &keyWriter{s: s, lp: &lp, owner: owner}
	s.rlockSet(&lp.ss)
	err := fn(kw)
	s.runlockSet(&lp.ss)
	if err != nil {
		// Nothing was applied; discarding the buffers is the whole rollback.
		unintent()
		unlatch()
		return err
	}
	if len(kw.inserted) == 0 && len(kw.deleted) == 0 {
		unintent()
		unlatch()
		return nil
	}

	// 4. Publication: batched through the shard's commit queue when the
	// footprint is a single shard, direct (holding every footprint mu, so
	// snapshots never see a torn commit) when it spans several.
	var (
		rec  CommitRecord
		dtok uint64
	)
	if lp.ss.count() == 1 {
		var si uint32
		lp.ss.forEach(func(i uint32) bool { si = i; return false })
		rec, dtok = s.groupCommit(si, kw)
	} else {
		rec, dtok = s.directCommit(kw)
	}
	unintent()
	unlatch()
	s.waitDurable(dtok)
	s.notify(rec, kw.insShard, kw.delShard)
	return nil
}

// groupCommit publishes a single-shard buffered commit through the shard's
// queue. The leader drains the queue under one mu.Lock: it applies every
// item's buffer, allocates versions, and runs hooks — one lock acquisition
// for the whole batch. Items commute (their latch sets are disjoint, or
// they would not be in the queue concurrently), so the apply order within
// a batch is free; the exploration controller may permute it.
func (s *Store) groupCommit(si uint32, kw *keyWriter) (CommitRecord, uint64) {
	sh := s.shards[si]
	item := &commitItem{kw: kw, done: make(chan struct{})}
	sh.queue.mu.Lock()
	sh.queue.items = append(sh.queue.items, item)
	leader := !sh.queue.active
	if leader {
		sh.queue.active = true
	}
	sh.queue.mu.Unlock()

	if !leader {
		<-item.done
		return item.rec, item.dtok
	}

	s.sc.Yield(sched.PointGroupCommit)
	sh.mu.Lock()
	s.metrics.IncShardWrite(si)
	for {
		sh.queue.mu.Lock()
		batch := sh.queue.items
		sh.queue.items = nil
		if len(batch) == 0 {
			// The emptiness check and the handoff are atomic under queue.mu:
			// a committer enqueueing after this sees active=false and
			// becomes the next leader.
			sh.queue.active = false
			sh.queue.mu.Unlock()
			break
		}
		sh.queue.mu.Unlock()
		if perm := s.sc.Perm(sched.PointGroupCommit, len(batch)); perm != nil {
			reordered := make([]*commitItem, len(batch))
			for i, j := range perm {
				reordered[i] = batch[j]
			}
			batch = reordered
		}
		for _, it := range batch {
			it.rec, it.dtok = s.applyBuffered(it.kw)
		}
		sh.bumpSeq()
		s.metrics.ObserveGroupBatch(len(batch))
		for _, it := range batch {
			close(it.done)
		}
	}
	sh.mu.Unlock()
	return item.rec, item.dtok
}

// directCommit publishes a multi-shard buffered commit, holding every
// footprint shard's mu (ascending) for the apply so cross-shard snapshots
// observe the commit atomically.
func (s *Store) directCommit(kw *keyWriter) (CommitRecord, uint64) {
	kw.lp.ss.forEach(func(i uint32) bool {
		s.shards[i].mu.Lock()
		s.metrics.IncShardWrite(i)
		return true
	})
	rec, dtok := s.applyBuffered(kw)
	s.bumpSeqs(kw.insShard, kw.delShard)
	kw.lp.ss.forEach(func(i uint32) bool {
		s.shards[i].mu.Unlock()
		return true
	})
	return rec, dtok
}

// applyBuffered applies one keyWriter's buffered mutations to the live
// maps, allocates the commit's version, runs the hooks, and appends the
// record to the durability sink (the commit's key latches are still held,
// so conflicting commits append in version order). Callers hold the mu of
// every shard the buffer touches.
//
// lint:holds latch mu
func (s *Store) applyBuffered(kw *keyWriter) (CommitRecord, uint64) {
	for i, ins := range kw.inserted {
		sh := s.shards[kw.insShard[i]]
		sh.entries[ins.ID] = entry{t: ins.Tuple, owner: ins.Owner}
		sh.indexAdd(ins.ID, ins.Tuple)
		sh.asserts++
	}
	for i, del := range kw.deleted {
		sh := s.shards[kw.delShard[i]]
		if _, ok := sh.entries[del.ID]; !ok {
			// The latch held since evaluation makes this unreachable; a miss
			// means the two-phase-locking invariant was broken.
			panic(fmt.Sprintf("dataspace: buffered delete of %v lost its target (latch invariant violated)", del.Tuple))
		}
		delete(sh.entries, del.ID)
		sh.indexRemove(del.ID, del.Tuple)
		sh.retracts++
	}
	s.metrics.IncCommits()
	s.metrics.IncKeyCommit()
	rec := CommitRecord{
		Version:  s.allocVersion(),
		Owner:    kw.owner,
		Inserted: kw.inserted,
		Deleted:  kw.deleted,
	}
	for _, h := range s.onCommit {
		h(rec)
	}
	var dtok uint64
	if s.durable != nil {
		dtok = s.durable.Append(rec)
	}
	return rec, dtok
}
