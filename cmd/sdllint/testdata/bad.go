// Package fixture seeds one violation per lock-discipline rule; the test
// asserts sdllint reports each at its expected line. This file is under
// testdata, so the Go tool never builds it — it only has to parse.
package fixture

import "sync"

type shard struct {
	mu      sync.RWMutex
	intent  sync.RWMutex
	latches [8]sync.Mutex
	queue   struct{ mu sync.Mutex }
	slab    []int
	vacant  []uint32
	ids     idTable
}

func (sh *shard) place(inst int)     {}
func (sh *shard) vacate(slot uint32) {}

type table struct {
	cells []uint32
	n     int
}

func (t *table) insert(h uint64, c uint32) {}
func (t *table) removeAt(i int)            {}

type idTable struct{ table }

func (it *idTable) find(slab []int, id int) (uint32, bool) { return 0, false }
func (it *idTable) add(slab []int, slot uint32)            {}
func (it *idTable) remove(slab []int, slot uint32)         {}

type store struct {
	shards  []*shard
	durable interface{ Append(any) uint64 }
}

func (s *store) lockSet()              {}
func (s *store) unlockSet()            {}
func (s *store) lockIntents()          {}
func (s *store) unlockIntents()        {}
func (s *store) unlatch(latches []int) {}
func (s *store) runAfterCommit()       {}
func (s *store) finishCommit()         {}

// directCommit applies a commit's buffered edits. Its callers hold the
// footprint's intent locks from before the evaluation that made them.
//
// lint:holds intent
func (s *store) directCommit() {}

// applyAfterIntentRelease lets go of the shard-mode intent locks between
// its evaluation and its apply, so another commit could edit what it read.
func applyAfterIntentRelease(s *store) {
	s.lockIntents()
	s.unlockIntents()
	s.directCommit() // want holds-contract
}

// applyInsideTheHold is CLEAN: the intent locks held from the evaluation
// through the apply.
func applyInsideTheHold(s *store) {
	s.lockIntents()
	s.directCommit()
	s.unlockIntents()
}

// orderInversion takes the shard mu before the intent lock: mu is class 3,
// intent is class 2, and the ladder only descends.
func orderInversion(sh *shard) {
	sh.mu.Lock()
	sh.intent.Lock() // want lock-order
	sh.intent.Unlock()
	sh.mu.Unlock()
}

// latchAfterIntent latches a key bucket after taking the intent lock —
// the commuting path must latch first.
func latchAfterIntent(sh *shard) {
	sh.intent.RLock()
	sh.latches[3].Lock() // want lock-order
	sh.latches[3].Unlock()
	sh.intent.RUnlock()
}

// leafViolation acquires a shard lock while holding the group-commit
// queue mutex, which is a leaf.
func leafViolation(sh *shard) {
	sh.queue.mu.Lock()
	sh.mu.Lock() // want leaf-lock
	sh.mu.Unlock()
	sh.queue.mu.Unlock()
}

// rlockMutation writes a slot of the live instance slab under a read lock.
func rlockMutation(sh *shard) {
	sh.mu.RLock()
	sh.slab[1] = 2 // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockIDCellWrite writes a cell of the live ID table under a read lock.
func rlockIDCellWrite(sh *shard) {
	sh.mu.RLock()
	sh.ids.cells[1] = 2 // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockIDTableInsert files a slot in the live ID table under a read lock.
func rlockIDTableInsert(sh *shard) {
	sh.mu.RLock()
	sh.ids.add(sh.slab, 2) // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockTableInsert fills a cell through the ID table's own table under a
// read lock.
func rlockTableInsert(sh *shard) {
	sh.mu.RLock()
	sh.ids.insert(7, 2) // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockFreeListPush puts a slot on the live free list under a read lock.
func rlockFreeListPush(sh *shard) {
	sh.mu.RLock()
	sh.vacant = append(sh.vacant, 3) // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockPlace fills a slot through the slab's mutator under a read lock.
func rlockPlace(sh *shard) {
	sh.mu.RLock()
	sh.place(4) // want rlock-mutation
	sh.mu.RUnlock()
}

// bareIDTableDelete unfiles a slot from the live ID table with no lock at
// all.
func bareIDTableDelete(sh *shard) {
	sh.ids.remove(sh.slab, 1) // want unlocked-mutation
}

// bareTableDelete empties a cell of the live ID table, shifting its chain,
// with no lock at all.
func bareTableDelete(sh *shard) {
	sh.ids.removeAt(1) // want unlocked-mutation
}

// bareVacate frees a slot with no lock at all.
func bareVacate(sh *shard) {
	sh.vacate(1) // want unlocked-mutation
}

// lockedSlabEdit is CLEAN: the same slab edits under the exclusive mu, and
// a read of a slot needs no more than any read.
func lockedSlabEdit(sh *shard) {
	_, _ = sh.ids.find(sh.slab, 1)
	sh.mu.Lock()
	sh.slab = append(sh.slab, 5)
	sh.ids.add(sh.slab, uint32(len(sh.slab)-1))
	sh.ids.remove(sh.slab, 1)
	sh.vacant = sh.vacant[:0]
	sh.place(6)
	sh.vacate(2)
	sh.mu.Unlock()
}

// bareAppend reaches the durability sink outside any commit critical
// section.
func bareAppend(s *store) {
	s.durable.Append(nil) // want unlocked-append
}

// afterCommitUnderMu runs the after-commit hooks inside the commit's
// critical section: a hook that commits would deadlock on the shard lock.
func afterCommitUnderMu(s *store) {
	s.lockSet()
	s.runAfterCommit() // want locked-after-commit
	s.unlockSet()
}

// afterCommitUnderLatch runs them with the key latches still held.
func afterCommitUnderLatch(s *store, sh *shard) {
	sh.latches[1].Lock()
	s.runAfterCommit() // want locked-after-commit
	s.unlatch(nil)
}

// finishUnderIntent runs the commit tail, which runs the hooks, before
// releasing its intent locks.
func finishUnderIntent(s *store) {
	s.lockIntents()
	s.finishCommit() // want locked-after-commit
	s.unlockIntents()
}

// afterCommitAnnotated runs them where its callers hold the intent lock.
//
// lint:holds intent
func afterCommitAnnotated(s *store) {
	s.runAfterCommit() // want locked-after-commit
}

// afterCommitUnlocked is CLEAN: the hooks run once the shard locks and the
// key latches are released, as both commit paths run them.
func afterCommitUnlocked(s *store, sh *shard) {
	s.lockSet()
	s.unlockSet()
	s.runAfterCommit()
	sh.latches[2].Lock()
	if sh.slab == nil {
		s.unlatch(nil)
		return
	}
	s.unlatch(nil)
	s.runAfterCommit()
}

// earlyExitBalanced is CLEAN: the error branch unlocks and returns, the
// fall-through keeps the lock for the mutation. The linter must not let
// the branch's unlock leak into the main path.
func earlyExitBalanced(sh *shard, err error) {
	sh.mu.Lock()
	if err != nil {
		sh.mu.Unlock()
		return
	}
	sh.slab[1] = 2
	sh.mu.Unlock()
}

// annotated is CLEAN: its caller holds the exclusive mu, declared by the
// annotation below.
//
// lint:holds mu
func annotated(sh *shard) {
	sh.ids.cells[3] = 4
}

// closureScope is CLEAN: the literal passed to run executes under the
// lock its own body takes.
func closureScope(sh *shard, run func(func())) {
	run(func() {
		sh.mu.Lock()
		sh.slab[5] = 6
		sh.mu.Unlock()
	})
}

type idIndex struct {
	sets  table
	spill *spillSlab
	pos   int
}

type spillSlab struct {
	spills []struct{ ids []int }
	free   []int
}

func (sl *spillSlab) take() int { return 0 }

func (ix *idIndex) add(k, id int) bool    { return true }
func (ix *idIndex) remove(k, id int) bool { return true }

type fieldIndex struct {
	buckets idIndex
}

type arityIndex struct{ leads idIndex }

type shapeStats struct{ idx *fieldIndex }

// bareIndexWrite writes a published secondary index's bucket map with no
// shard lock held — a published index may only be touched by the
// exclusive-mu maintenance hooks.
func bareIndexWrite(st *shapeStats) {
	st.idx.buckets[1] = 0 // want unlocked-mutation
}

// bareIndexDelete drops a bucket with no shard lock.
func bareIndexDelete(st *shapeStats) {
	delete(st.idx.buckets, 1) // want unlocked-mutation
}

// rlockBucketEdit edits one bucket's ID set through the index's mutator
// while holding only the read lock: readers iterate these sets under the
// same lock.
func rlockBucketEdit(sh *shard, st *shapeStats) {
	sh.mu.RLock()
	st.idx.buckets.add(1, 2) // want rlock-mutation
	sh.mu.RUnlock()
}

// bareLeadEdit files an ID in the lead index with no lock at all.
func bareLeadEdit(ai *arityIndex) {
	ai.leads.remove(1, 2) // want unlocked-mutation
}

// bareCellWrite writes a set straight into a cell of the lead index's
// table, around idIndex.add, with no lock held.
func bareCellWrite(ai *arityIndex) {
	ai.leads.sets.cells[1] = 0 // want unlocked-mutation
}

// rlockCellRemove empties a cell of a published secondary index's table
// while holding only the read lock.
func rlockCellRemove(sh *shard, st *shapeStats) {
	sh.mu.RLock()
	st.idx.buckets.sets.removeAt(1) // want rlock-mutation
	sh.mu.RUnlock()
}

// bareCellInsert files a set in the lead index's table with no lock.
func bareCellInsert(ai *arityIndex) {
	ai.leads.sets.insert(1, 2) // want unlocked-mutation
}

// bareSpillTake hands a lead-index set a spill slot with no lock: the slab
// is as live as the bucket maps whose sets point into it.
func bareSpillTake(ai *arityIndex) {
	ai.leads.spill.take() // want unlocked-mutation
}

// rlockSpillFree returns a published secondary index's spill slot to the
// free list while holding only the read lock.
func rlockSpillFree(sh *shard, st *shapeStats) {
	sh.mu.RLock()
	st.idx.buckets.spill.free = append(st.idx.buckets.spill.free, 3) // want rlock-mutation
	sh.mu.RUnlock()
}

// bareSpillWrite edits a spilled set's IDs in place with no lock.
func bareSpillWrite(ai *arityIndex) {
	ai.leads.spill.spills[0].ids[0] = 7 // want unlocked-mutation
}

// lockedSpillEdit is CLEAN: the same slab edits under the exclusive mu,
// and a read of a spill needs no more than any read.
func lockedSpillEdit(sh *shard, st *shapeStats, ai *arityIndex) {
	_ = ai.leads.spill.spills[0].ids[0]
	sh.mu.Lock()
	ai.leads.spill.take()
	st.idx.buckets.spill.free = nil
	sh.mu.Unlock()
}

// lockedCellEdit is CLEAN: the same cell edits under the exclusive mu,
// and a read of one needs no more than any read.
func lockedCellEdit(sh *shard, st *shapeStats, ai *arityIndex) {
	_ = ai.leads.sets.cells[1]
	sh.mu.Lock()
	ai.leads.sets.removeAt(1)
	st.idx.buckets.sets.cells[1] = 0
	st.idx.buckets.sets.insert(1, 2)
	sh.mu.Unlock()
}

// lockedBucketEdit is CLEAN: the same edits under the exclusive mu.
func lockedBucketEdit(sh *shard, st *shapeStats, ai *arityIndex) {
	sh.mu.Lock()
	st.idx.buckets.remove(1, 2)
	ai.leads.add(1, 2)
	sh.mu.Unlock()
}

// bareSecMaintain calls the secondary-index maintenance hook without the
// exclusive mu the hook's bucket mutations require.
func bareSecMaintain(sh *shard) {
	sh.secEdit(1, 2, nil) // want unlocked-mutation
}

// rlockSecMaintain holds only the read lock across maintenance — the hook
// mutates published buckets, so the exclusive lock is required.
func rlockSecMaintain(sh *shard) {
	sh.mu.RLock()
	sh.secEdit(1, 2, nil) // want rlock-mutation
	sh.mu.RUnlock()
}

// rlockBump bumps the change sequence under a read lock; sequence bumps
// are commit publication and need the exclusive mu.
func rlockBump(sh *shard) {
	sh.mu.RLock()
	sh.bumpSeq() // want rlock-mutation
	sh.mu.RUnlock()
}

// readLockedRebuild is CLEAN: a fresh index is filled in a local under the
// read lock (racing builders each fill their own) and published whole.
//
// lint:holds rmu
func readLockedRebuild(st *shapeStats) {
	var fresh idIndex
	fresh.add(1, 2)
	fresh.sets.cells[1] = 2
	fresh.sets.insert(1, 2)
	fresh.spill.take()
	fresh.spill.free = nil
	st.idx = &fieldIndex{buckets: fresh}
}

// rmuBucketEdit: the read-held annotation does not license editing a
// published index.
//
// lint:holds rmu
func rmuBucketEdit(st *shapeStats) {
	st.idx.buckets.add(1, 2) // want rlock-mutation
}

// rmuIsNotExclusive: the read-held annotation must NOT satisfy the
// exclusive-mu rules.
//
// lint:holds rmu
func rmuIsNotExclusive(sh *shard) {
	sh.slab[7] = 8 // want rlock-mutation
}
