package dataspace

import (
	"sync"

	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// journal is one mutating commit's state, from its footprint to its
// publication, on every rung: keyWriter buffers the commit's mutations here
// and applyBuffered applies them at publication (a bulk Assert files its
// inserts directly, under exclusive shard locks). publish reads the journal
// in place — the CommitRecord it lends the hooks and the durability sink is
// a view of the journal's slices — and notify routes the same slices to the
// subscriptions, through the journal's routing state.
//
// Journals are pooled: a commit takes one, and returns it once its waiters
// are notified (or its fn failed or changed nothing). Nothing in a journal
// outlives the commit, so in the steady state a commit allocates only what
// it stores. A journal that carried more than maxPooledEffects effects or
// candidates is dropped instead of pooled, and a pooled one holds no
// instance and no subscription, so the pool never pins retracted tuples, the
// arrays of a bulk commit or a cancelled waiter.
type journal struct {
	reader           // the live maps of the footprint; ss points at lp.ss
	lp     latchPlan // the footprint: shards on every rung, latches and buckets on the key rung
	owner  tuple.ProcessID

	inserted []Instance
	insShard []uint32 // shard of inserted[i]
	deleted  []Instance
	delShard []uint32              // shard of deleted[i]
	delIDs   map[tuple.ID]struct{} // the IDs deleted and the inserts deleted again, hidden from reads

	// rung is the commit-ladder rung the commit takes, which publish
	// counts: key latches (UpdateCommuting), a planned shard set
	// (UpdateKeys), or the whole store (Update, a bulk Assert).
	rung metrics.Rung
	dtok uint64        // durability wait token, set by publish
	done chan struct{} // cap 1: the group-commit leader's "published" signal to a follower

	dl      delivery    // notify: what the commit owes each candidate subscription
	matched []collected // notify: the registrations one instance meets
}

// maxPooledEffects caps the effects (and footprint buckets) a journal may
// have carried and still be pooled.
const maxPooledEffects = 256

var journals = sync.Pool{New: func() any {
	j := &journal{done: make(chan struct{}, 1)}
	j.ss = &j.lp.ss
	return j
}}

// journal takes an empty journal from the pool for a commit by owner.
func (s *Store) journal(owner tuple.ProcessID) *journal {
	j := journals.Get().(*journal)
	j.s, j.owner = s, owner
	return j
}

// release returns a finished commit's journal to the pool — emptied, so the
// next commit's record and result hold exactly its own effects — or drops
// it when it grew past maxPooledEffects.
func (j *journal) release() {
	if cap(j.inserted) > maxPooledEffects || cap(j.deleted) > maxPooledEffects || cap(j.lp.keys) > maxPooledEffects ||
		!j.dl.reset() || cap(j.matched) > maxPooledEffects {
		return
	}
	// Whole capacity: a cancelled buffered insert leaves a stale copy past len.
	clear(j.inserted[:cap(j.inserted)])
	clear(j.deleted[:cap(j.deleted)])
	clear(j.lp.keys[:cap(j.lp.keys)])
	clear(j.delIDs)
	clear(j.matched[:cap(j.matched)])
	j.matched = j.matched[:0]
	j.inserted, j.insShard = j.inserted[:0], j.insShard[:0]
	j.deleted, j.delShard = j.deleted[:0], j.delShard[:0]
	j.lp = latchPlan{latches: j.lp.latches[:0], keys: j.lp.keys[:0]}
	j.s, j.owner, j.dtok = nil, 0, 0
	journals.Put(j)
}

// publish is the commit's one publication step, shared by every rung: it
// counts the commit, drops the arities its deletes emptied, claims its
// version, and lends the journal's effects to the hooks and the durability
// sink as one CommitRecord. Callers hold the exclusive mu of every shard the
// journal wrote, plus the commit's intent locks — exclusive, or shared
// under its latches on the key rung — so conflicting commits publish, and
// append, in version order.
//
// lint:holds intent mu
func (s *Store) publish(j *journal) {
	for _, si := range j.insShard {
		s.shards[si].asserts++
	}
	for i, si := range j.delShard {
		sh := s.shards[si]
		sh.retracts++
		sh.dropEmptyArity(j.deleted[i].Tuple.Arity())
	}
	s.metrics.IncCommits()
	switch j.rung {
	case metrics.RungKey:
		s.metrics.IncKeyCommit()
	case metrics.RungShard:
		s.metrics.IncShardFallback()
	default:
		s.metrics.IncCoarseCommit()
	}
	rec := CommitRecord{
		Version:  s.allocVersion(),
		Owner:    j.owner,
		Inserted: j.inserted,
		Deleted:  j.deleted,
	}
	for _, h := range s.onCommit {
		h(rec)
	}
	if s.durable != nil {
		j.dtok = s.durable.Append(rec)
	}
}
