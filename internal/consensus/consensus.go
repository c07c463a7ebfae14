// Package consensus implements SDL's consensus ('⇑') transactions: an
// n-way synchronization among the processes of a consensus set, defined as
// a set of processes closed under the transitive closure of the relation
//
//	p needs q  ≡  Import(p) ∩ Import(q) ∩ D ≠ ∅
//
// A consensus transaction is executed when every process in the consensus
// set is ready to execute a consensus transaction (has an active offer
// whose query succeeds). The composite effect is computed by first
// performing the retractions of all participating transactions and then
// the assertions, as a single atomic transformation. Detection is the
// paper's "very similar to the quiescence detection problem", and is
// implemented as one, with no central process: the manager keeps the
// partition of the society into consensus sets and, per set, how many of
// its members are offering; it evaluates a set only when all of them are
// and something its evaluation depends on has changed since the set last
// failed (the gate, see Manager), on the goroutine of the offer or commit
// that left it that work.
//
// Processes register with the Manager (carrying their view and parameter
// environment) so that consensus sets range over the whole process
// society: a registered process that is not offering blocks its set, which
// is exactly the paper's semantics — consensus is an agreement of the
// entire community, not of whoever happens to be waiting.
package consensus

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// Errors.
var (
	// ErrNotRegistered reports an offer from a process that has not been
	// registered with the manager.
	ErrNotRegistered = errors.New("consensus: process not registered")
	// ErrClosed reports use of a closed manager.
	ErrClosed = errors.New("consensus: manager closed")
	// errAbortFire aborts a firing attempt whose members' queries no
	// longer all succeed.
	errAbortFire = errors.New("consensus: fire aborted")
)

// offerState tracks the lifecycle of one incarnation of an offer.
type offerState uint64

const (
	stateOffered offerState = iota + 1
	stateClaimed            // locked by a firing attempt
	stateFired              // result available
	stateWithdrawn
)

// stateBits is the width of the state in an offer's word; the incarnation
// fills the bits above it.
const stateBits = 8

func pack(gen uint64, st offerState) uint64 { return gen<<stateBits | uint64(st) }

// Offer is one process's pending consensus transaction. An offer carries
// one or more alternative transactions (a selection construct with several
// consensus guards offers them as alternatives of a single offer); when
// the consensus fires, the first alternative whose query succeeds is the
// one executed. An offer is resolved either by firing (its owner is woken,
// Answer returns the composite's per-process outcome) or by Withdraw.
//
// Incarnations. A Go-API offer (StartOffer, StartOfferAlts) serves one wait
// and its owner waits on Done, a channel its Waker closes. A process's offer
// lives in its member record (Member.Offer) and is re-armed for every wait
// (Rearm), waking the process through its Waker; each arm starts a new
// incarnation. The incarnation and the state share one word, and every
// transition compares the whole word, so a firing attempt that found an
// earlier incarnation in the offer table — a drain may still hold a
// withdrawn one — can neither claim nor resolve the current one.
type Offer struct {
	word   atomic.Uint64 // the incarnation and its offerState, see pack
	reqs   []txn.Request // the alternatives, in an array kept across incarnations
	m      *Manager
	w      dataspace.Waker // woken when the offer fires
	ans    *txn.Answer
	chosen int
	err    error
}

// load returns the offer's incarnation and state.
func (o *Offer) load() (gen uint64, st offerState) {
	w := o.word.Load()
	return w >> stateBits, offerState(w & (1<<stateBits - 1))
}

// move changes incarnation gen's state from one state to another, and
// reports whether it was in that state.
func (o *Offer) move(gen uint64, from, to offerState) bool {
	return o.word.CompareAndSwap(pack(gen, from), pack(gen, to))
}

// Done returns a channel closed when the offer has fired. Only a Go-API
// offer (StartOffer, StartOfferAlts) has one; an offer armed through Rearm
// alone wakes its own Waker, and its Done is nil.
func (o *Offer) Done() <-chan struct{} {
	c, _ := o.w.(closeWaker)
	return c
}

// closeWaker is a Go-API offer's Waker: the offer's firing closes the
// channel its Done returns.
type closeWaker chan struct{}

func (c closeWaker) Wake() { close(c) }

// Fired reports whether the offer's current incarnation has fired: Answer is
// then ready.
func (o *Offer) Fired() bool {
	_, st := o.load()
	return st == stateFired
}

// Result returns the offer's outcome after Done is closed, in the public,
// map-shaped form.
func (o *Offer) Result() (txn.Result, error) {
	if o.err != nil {
		return txn.Result{}, o.err
	}
	return o.ans.Result(), nil
}

// Answer returns the fired offer's answer after it fired: the chosen
// alternative's solution as a row, and its effects. It passes to the caller,
// who releases it (txn.Answer); after that neither Answer nor Result may be
// called.
func (o *Offer) Answer() (*txn.Answer, error) { return o.ans, o.err }

// Chosen returns the index of the alternative that executed, valid after
// the offer fired with a nil error.
func (o *Offer) Chosen() int { return o.chosen }

// pid returns the offering process.
func (o *Offer) pid() tuple.ProcessID { return o.reqs[0].Proc }

// Withdraw removes the offer if it has not fired (and is not being fired).
// It returns true when withdrawn; false means the offer fired (or is about
// to fire) and the caller must take its result. Selection constructs use
// this when another guard commits first.
func (o *Offer) Withdraw() bool {
	for {
		gen, st := o.load()
		switch st {
		case stateOffered:
			if o.move(gen, stateOffered, stateWithdrawn) {
				o.m.removeOffer(o)
				return true
			}
		case stateFired:
			return false
		case stateWithdrawn:
			return true
		case stateClaimed:
			// A firing attempt owns the offer and will either fire it or
			// revert it to Offered; wait until it has settled.
			o.m.mu.Lock()
			for o.word.Load() == pack(gen, stateClaimed) {
				o.m.settled.Wait()
			}
			o.m.mu.Unlock()
		}
	}
}

// resolve fires claimed incarnation gen with its outcome and wakes the
// owner. Once the state says fired the owner may re-arm the record, so
// everything resolve needs is read before.
func (o *Offer) resolve(gen uint64, ans *txn.Answer, chosen int, err error) {
	o.ans, o.chosen, o.err = ans, chosen, err
	w := o.w
	o.word.Store(pack(gen, stateFired))
	w.Wake()
}

// claim is one offer incarnation as a drain found it in the offer table.
type claim struct {
	o   *Offer
	gen uint64
}

// member is one registered process.
type member struct {
	pid  tuple.ProcessID
	view view.View
	env  expr.Scope

	// shape is the static shape of the import clause under env.
	shape view.ImportShape
	// envFree records that shape holds under every environment: the import
	// is bounded with no lead taken from a variable, so an offer under the
	// same clause reads the same buckets whatever its Env.
	envFree bool
	// wide is set (for good) when the process offers under a view its
	// registered import does not cover: its queries may then read buckets
	// the gate does not watch, so the member is treated like an unbounded
	// one — every commit touches its community and evaluation locks every
	// shard. Guarded by Manager.mu.
	wide bool
	// comm is the member's community in the current partition (nil until
	// the first partition after registration), offer its offer in the offer
	// table (nil when it is not offering). Guarded by Manager.mu.
	comm  *community
	offer *Offer

	// ids is the tuple-ID refinement of a bounded import that is not
	// bucket-complete: the materialized Import(p) ∩ D with each instance's
	// bucket. It is owned by the running drain and refreshed when stale;
	// stale is set (under Manager.mu) by commits touching the import's
	// buckets. An unbounded import is probed at every partition instead.
	ids   map[tuple.ID]view.BucketKey
	stale bool
}

// community is one consensus set of the current partition, with the
// readiness counters of the gate. All fields are guarded by Manager.mu;
// members is immutable once installed. A partition's communities and their
// member lists are two blocks cut by install, never reused: an attempt may
// outlive the partition it was chosen from, holding its community.
type community struct {
	members []*member // ascending pid
	// offered counts the members with an offer in the table (member.offer).
	offered int
	// dirty records that something an evaluation of this set depends on
	// has changed since its last firing attempt began: a new offer, or a
	// commit touching a bucket some member imports.
	dirty bool
	// planned: the set's import buckets are known (see lockPlan); an
	// unplanned set (a universal, unbounded or wide member) is evaluated
	// under every shard's lock.
	planned bool
}

// bucketWatch is the gate's view of one imported index bucket.
type bucketWatch struct {
	// count is the bucket's live instance count: exact as of the partition
	// snapshot, then maintained by the commit hook.
	count int
	// partial lists the importers whose import is not bucket-complete: any
	// commit here stales their tuple-ID refinement and may change the
	// overlap relation.
	partial []*member
	comms   []*community
	// importers sizes comms: install counts the members importing the bucket.
	importers int
}

// watchedBy adds c to the sets the bucket's commits touch.
func (w *bucketWatch) watchedBy(c *community) {
	for _, have := range w.comms {
		if have == c {
			return
		}
	}
	w.comms = append(w.comms, c)
}

// Manager coordinates consensus transactions over one engine/store.
//
// The gate. The manager keeps the exact partition of the registered
// society into consensus sets (communities) between events, together with
// each set's offered count, and runs a firing attempt only for a set that
// is fully offered and dirty. Soundness rests on one rule — a skipped
// evaluation must be provably unable to fire:
//
//   - a set with a non-offering member cannot fire, by definition;
//   - a fully offered set whose last attempt failed cannot fire until an
//     offer of the set is replaced or a commit touches a bucket one of its
//     members imports (by the bounded-matcher contract a window-visible
//     query answer depends on nothing else), and both mark it dirty;
//   - the sets gated on are the exact ones: the partition is recomputed
//     (never approximated) whenever it could have changed — a membership
//     change, an imported bucket's emptiness flipping, the dataspace
//     becoming (non)empty under a universal member, any commit into a
//     bucket of an import that is not bucket-complete, and any commit at
//     all while some import is unbounded — and a firing attempt re-checks,
//     inside its exclusive section, that the partition it was chosen from
//     is still the current one.
//
// The gate's work runs on the goroutine of the event that left it some — an
// offer, a member leaving, a commit once its locks are released — one drain
// at a time (see drain), so a single evaluator owns the partition and the
// attempts, as the rules above assume.
type Manager struct {
	engine *txn.Engine
	sc     *sched.Controller // the store's exploration controller (usually nil)

	// mu guards everything below it. It is taken by the commit hook while
	// the committing shards' write locks are held, so it is a leaf with
	// respect to the store: never call into the store while holding it.
	mu      sync.Mutex
	settled *sync.Cond // broadcast when a firing attempt reverts or fires its claims
	members map[tuple.ProcessID]*Member
	room    int // the registrations members was last sized for (Reserve)
	offers  int // members with an offer in the table (member.offer)
	closed  bool

	// The partition and the gate's commit-side index of it. gen counts
	// membership changes; valid is cleared by anything that may change the
	// partition and set when a drain installs a fresh one.
	gen      uint64
	valid    bool
	comms    []community                     // ascending first member
	watch    map[view.BucketKey]*bucketWatch // cleared and refilled by each install
	broad    []*community                    // sets every commit touches (universal, unbounded or wide member)
	volatile bool                            // some import is unbounded but not universal: any commit may re-partition
	total    int                             // live instances in the dataspace, tracked while broad is non-empty

	// registered mirrors len(members) for the commit hook's lock-free fast
	// path: a society without members has nothing to gate.
	registered atomic.Int32

	// The drain (see drain), guarded by mu: passes counts the passes
	// begun, firing marks a fire's commit in flight. due is set by the
	// commit hook, and by a registration, for the after-commit hook.
	draining, firing bool
	passes           uint64
	due              atomic.Bool
	scratch          drainScratch // the running pass's

	// A member's offer keeps its alternative in a slot cut from slots, a
	// block shared by the society, so a process's first offer allocates
	// nothing of its own. Unregister clears the slot; it is not reused.
	slots []txn.Request

	fires atomic.Uint64 // successful consensus firings
}

// NewManager creates a manager over the engine. It starts no goroutine:
// the gate's work runs on its callers' (see Manager).
func NewManager(engine *txn.Engine) *Manager {
	m := &Manager{
		engine:  engine,
		sc:      engine.Store().Sched(),
		members: make(map[tuple.ProcessID]*Member),
	}
	m.settled = sync.NewCond(&m.mu)
	engine.Store().OnCommit(m.onCommit)
	engine.Store().AfterCommit(m.afterCommit)
	return m
}

// bucketOf returns the bucket key a tuple is indexed under, canonicalized
// like ImportShape's keys.
func bucketOf(t tuple.Tuple) view.BucketKey {
	if a := t.Arity(); a > 0 {
		return view.CanonBucket(a, t.Field(0))
	}
	return view.BucketKey{}
}

// onCommit is the gate's commit side. It runs under the commit's shard
// write locks: it marks the sets whose imports the commit touched dirty,
// invalidates the partition when the commit may have changed it, and marks
// the gate due only when that leaves it something to do — a ready set to
// evaluate or a partition to recompute. Every other commit is counted as a
// suppressed kick.
func (m *Manager) onCommit(rec dataspace.CommitRecord) {
	if m.registered.Load() == 0 {
		// No society: nothing to gate. A Register racing with this commit
		// invalidates the partition, and the recomputation's snapshot
		// orders itself against the commit through the shard locks.
		m.engine.Metrics().IncConsensusKickSuppressed()
		return
	}
	m.mu.Lock()
	// While the partition is invalid its counters are about to be rebuilt;
	// the bookkeeping still runs — the staleness of a tuple-ID refinement
	// must not be lost — but the drain is left to whoever invalidated it:
	// every invalidator drains, or (a registration) sets due.
	valid := m.valid
	due := m.noteCommit(rec) && valid
	if due {
		m.due.Store(true)
	}
	m.mu.Unlock()
	if !due {
		m.engine.Metrics().IncConsensusKickSuppressed()
	}
}

// afterCommit is the gate's after-commit hook: the committer drains, its
// locks released, when its commit hook marked the gate due. The
// delayed-signal fault defers the drain: late, never lost.
func (m *Manager) afterCommit() {
	switch {
	case !m.due.Load():
	case m.sc.DelaySignal():
		go func() {
			runtime.Gosched()
			m.drain()
		}()
	default:
		m.drain()
	}
}

// noteCommit applies one commit to the gate's state and reports whether it
// left the gate something to do: a fully offered set touched, or the
// partition invalidated. Caller holds mu.
func (m *Manager) noteCommit(rec dataspace.CommitRecord) (wake bool) {
	touch := func(c *community) {
		c.dirty = true
		if c.offered == len(c.members) {
			wake = true
		}
	}
	invalidate := func() {
		m.valid = false
		wake = true
	}
	if m.volatile {
		invalidate()
	}
	if len(m.broad) > 0 {
		for _, c := range m.broad {
			touch(c)
		}
		before := m.total
		m.total += len(rec.Inserted) - len(rec.Deleted)
		if (before == 0) != (m.total == 0) {
			invalidate()
		}
	}
	if len(m.watch) == 0 {
		return wake
	}
	note := func(inst dataspace.Instance, delta int) {
		w := m.watch[bucketOf(inst.Tuple)]
		if w == nil {
			return
		}
		before := w.count
		w.count += delta
		for _, mem := range w.partial {
			mem.stale = true
		}
		if len(w.partial) > 0 || (before == 0) != (w.count == 0) {
			invalidate()
		}
		for _, c := range w.comms {
			touch(c)
		}
	}
	for _, inst := range rec.Inserted {
		note(inst, +1)
	}
	for _, inst := range rec.Deleted {
		note(inst, -1)
	}
	return wake
}

// Close closes the manager: it waits for a running drain to end, then fails
// the pending offers with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for m.draining {
		m.settled.Wait()
	}
	pending := make([]claim, 0, m.offers)
	for _, rec := range m.members {
		if o := rec.m.offer; o != nil {
			gen, _ := o.load()
			pending = append(pending, claim{o, gen})
			rec.m.offer = nil
		}
	}
	m.offers = 0
	m.valid = false
	m.mu.Unlock()

	for _, c := range pending {
		if c.o.move(c.gen, stateOffered, stateClaimed) {
			c.o.resolve(c.gen, nil, 0, ErrClosed)
		}
	}
}

// Fires reports the number of consensus transactions executed.
func (m *Manager) Fires() uint64 { return m.fires.Load() }

// Member is a process's registration record, for embedding: a process
// runtime keeps one inside its own process record, so that registering a
// process allocates nothing of its own (RegisterMember). It carries the
// process's offer too (Offer), re-armed for each of its consensus waits.
type Member struct {
	m member
	o Offer
}

// Offer returns the record's offer, for Rearm.
func (rec *Member) Offer() *Offer { return &rec.o }

// Register adds a process (with its view and the scope of its parameters)
// to the society the manager considers for consensus sets. The manager reads
// env while the process is registered and never changes it: a process's
// record, or a Go caller's expr.Env, which the caller leaves unmodified
// meanwhile.
func (m *Manager) Register(pid tuple.ProcessID, v view.View, env expr.Scope) {
	m.RegisterMember(new(Member), pid, v, env)
}

// Reserve prepares the society for n registrations about to follow — a
// group of processes spawned together — so that the member table grows to
// hold them once, rather than doubling as they arrive. The table at least
// doubles when it grows, so a society grown by many small groups copies it
// O(log n) times, as the map's own growth would.
func (m *Manager) Reserve(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := len(m.members) + n; need > max(m.room, 8) {
		m.room = max(need, 2*len(m.members))
		grown := make(map[tuple.ProcessID]*Member, m.room)
		for pid, rec := range m.members {
			grown[pid] = rec
		}
		m.members = grown
	}
}

// RegisterMember is Register with the caller's record: rec belongs to the
// manager from here until Unregister(pid), and registers once. It does not
// drain: a new member makes no set fully offered, so the partition it
// invalidates is recomputed by the next offer's drain, or the next commit's.
// It allocates at most the shape's bucket list.
func (m *Manager) RegisterMember(rec *Member, pid tuple.ProcessID, v view.View, env expr.Scope) {
	mem := &rec.m
	*mem = member{pid: pid, view: v, env: env, shape: v.ImportShape(env), stale: true}
	// Bounded with no scope at all, the clause takes no lead from one.
	mem.envFree = mem.shape.Bounded && v.ImportWithin(nil, mem.shape.Keys)
	m.mu.Lock()
	m.members[pid] = rec
	m.registered.Store(int32(len(m.members)))
	m.gen++
	m.valid = false
	if m.offers > 0 {
		m.due.Store(true)
	}
	m.mu.Unlock()
}

// Unregister removes a process (at termination), and drains: the member
// leaving can complete its set. The member's request slot is cleared, so
// the society's slot block keeps nothing of the leaver alive: no drain pass
// reads an offer out of the table (its claim fails, and a fired claim's
// reads end before dropOffer). A member leaving with its offer still armed
// (a Go caller's; a process's offer has fired or been withdrawn) keeps the
// request, since a drain may still claim the offer and its owner withdraw
// it, until the record is armed again.
func (m *Manager) Unregister(pid tuple.ProcessID) {
	m.mu.Lock()
	if rec := m.members[pid]; rec != nil {
		if rec.m.offer != nil {
			rec.m.offer = nil
			m.offers--
		} else {
			clear(rec.o.reqs)
		}
		delete(m.members, pid)
	}
	m.registered.Store(int32(len(m.members)))
	m.gen++
	m.valid = false
	m.mu.Unlock()
	m.drain()
}

// slotBlock bounds the slots one block holds.
const slotBlock = 128

// slot cuts an empty one-request slot for a member record's offer from the
// society's block. Caller holds mu.
func (m *Manager) slot() []txn.Request {
	if len(m.slots) == 0 {
		m.slots = make([]txn.Request, min(max(len(m.members), 8), slotBlock))
	}
	s := m.slots[:0:1]
	m.slots = m.slots[1:]
	return s
}

// StartOffer submits a consensus transaction for the registered process
// req.Proc. At most one offer per process may be active at a time (a
// process blocks on its consensus transaction).
func (m *Manager) StartOffer(req txn.Request) (*Offer, error) {
	return m.StartOfferAlts([]txn.Request{req})
}

// StartOfferAlts submits a consensus offer with alternative transactions
// (all from the same process): when the consensus fires, the first
// alternative whose query succeeds executes. A selection construct with
// several consensus guards offers them this way. The offer keeps a copy of
// reqs, so the caller may reuse the slice. Wait on its Done.
func (m *Manager) StartOfferAlts(reqs []txn.Request) (*Offer, error) {
	// One allocation holds the offer and room for one alternative.
	g := new(struct {
		o   Offer
		alt [1]txn.Request
	})
	o := &g.o
	o.reqs = g.alt[:0]
	if err := m.Rearm(o, reqs, make(closeWaker)); err != nil {
		return nil, err
	}
	return o, nil
}

// Rearm submits o as a new incarnation carrying the alternatives reqs, woken
// through w when it fires. o is a zero Offer or one whose last incarnation
// the caller has seen fire (and taken the answer of) or withdrawn — a
// member record's own (Member.Offer) is re-armed this way for every wait, so
// a wait allocates nothing. The offer keeps a copy of reqs. When the offer
// completes its set Rearm attempts the fire itself, and may return with the
// offer fired and w woken.
func (m *Manager) Rearm(o *Offer, reqs []txn.Request, w dataspace.Waker) error {
	if len(reqs) == 0 {
		return errors.New("consensus: offer with no alternatives")
	}
	pid := reqs[0].Proc
	for _, r := range reqs[1:] {
		if r.Proc != pid {
			return errors.New("consensus: alternatives from different processes")
		}
	}
	m.mu.Lock()
	rec := m.members[pid]
	switch {
	case m.closed:
		m.mu.Unlock()
		return ErrClosed
	case rec == nil:
		m.mu.Unlock()
		return ErrNotRegistered
	}
	if cap(o.reqs) < len(reqs) && len(reqs) == 1 && o == &rec.o {
		o.reqs = m.slot()
	}
	clear(o.reqs)
	o.reqs = append(o.reqs[:0], reqs...)
	o.m, o.w, o.ans, o.chosen, o.err = m, w, nil, 0, nil
	reqs = o.reqs
	mem := &rec.m
	gen, _ := o.load()
	o.word.Store(pack(gen+1, stateOffered))
	if !mem.wide && !mem.covers(reqs) {
		mem.wide = true
		m.valid = false
	}
	wake := !m.valid
	if mem.offer == nil {
		m.offers++
		if m.valid {
			mem.comm.offered++
		}
	}
	mem.offer = o
	if m.valid {
		// A new offer is a new query: whatever the set's last attempt
		// concluded no longer stands.
		mem.comm.dirty = true
		wake = mem.comm.offered == len(mem.comm.members)
	}
	m.mu.Unlock()
	m.engine.Metrics().IncTxnBlock(metrics.TxnConsensus)
	if wake {
		m.drain()
	}
	return nil
}

// covers reports whether offers under reqs read and write only what the
// member's registered view already tells the gate: an import clause bounded,
// under the offer's own environment, to a subset of the registered buckets,
// and an export clause that decides on the candidate tuple alone. The
// registered clause itself needs no comparison when its buckets do not depend
// on the environment; when they do (a lead taken from a parameter), an offer
// whose Env rebinds that parameter reads another bucket and is not covered.
// Universal and unbounded members are watched through every commit and
// evaluated under every lock, so anything is covered. The bucket test builds
// no shape: it walks the offer's buckets against the registered ones.
func (mem *member) covers(reqs []txn.Request) bool {
	if !mem.shape.Bounded {
		return true
	}
	for _, r := range reqs {
		if !r.View.Export.Pure() {
			return false
		}
		if mem.envFree && r.View.Import.Same(mem.view.Import) {
			continue
		}
		if !r.View.ImportWithin(r.Env, mem.shape.Keys) {
			return false
		}
	}
	return true
}

// Offer submits a consensus transaction and blocks until it fires or ctx
// is cancelled.
func (m *Manager) Offer(ctx context.Context, req txn.Request) (txn.Result, error) {
	o, err := m.StartOffer(req)
	if err != nil {
		return txn.Result{}, err
	}
	select {
	case <-o.Done():
	case <-ctx.Done():
		if o.Withdraw() {
			return txn.Result{}, ctx.Err()
		}
		// Fired while cancelling: the effect is committed, and Withdraw
		// returned only once the answer was in.
	}
	a, err := o.Answer()
	if err != nil {
		return txn.Result{}, err
	}
	defer a.Release()
	return a.Result(), nil
}

// removeOffer forgets a withdrawn offer. A withdrawal can make no set
// ready, so it does not drain.
func (m *Manager) removeOffer(o *Offer) {
	m.mu.Lock()
	m.dropOffer(o)
	m.mu.Unlock()
}

// dropOffer removes o from the offer table (if it is still the process's
// current offer) and from its community's offered count. Caller holds mu.
func (m *Manager) dropOffer(o *Offer) {
	rec := m.members[o.pid()]
	if rec == nil || rec.m.offer != o {
		return
	}
	rec.m.offer = nil
	m.offers--
	if m.valid {
		rec.m.comm.offered--
	}
}

// drain brings the partition up to date and attempts the ready sets until
// neither is left to do, on the calling goroutine, one pass at a time. An
// event is covered by the first pass that begins after it: a caller that
// finds a pass running waits for it to end, then runs the next one — unless
// another waiter has begun it. A fire's own commit (firing) returns at once:
// the drain steps again after a fire.
func (m *Manager) drain() {
	m.mu.Lock()
	next := m.passes + 1
	for !m.firing && m.draining && m.passes < next {
		m.settled.Wait()
	}
	if m.firing || m.passes >= next {
		m.mu.Unlock()
		return
	}
	m.passes, m.draining = next, true
	m.due.Store(false)
	m.mu.Unlock()
	for m.step() {
	}
	m.mu.Lock()
	m.draining = false
	m.settled.Broadcast() // the next pass's waiters, and Close
	m.mu.Unlock()
}

// step does one unit of the gate's work: recompute an invalid partition, or
// attempt to fire the ready sets (fully offered and dirty) until one
// fires. It reports whether another step may find more to do; every event
// that makes a set ready after step looked drains itself.
func (m *Manager) step() bool {
	m.sc.Yield(sched.PointConsensusEval)
	m.mu.Lock()
	if m.closed || m.offers == 0 {
		// Without offers nothing can fire; a stale partition is recomputed
		// when the first offer arrives.
		m.mu.Unlock()
		return false
	}
	if !m.valid {
		m.mu.Unlock()
		m.repartition()
		return true
	}
	ready := m.scratch.ready[:0]
	for i := range m.comms {
		if c := &m.comms[i]; c.dirty && c.offered == len(c.members) {
			ready = append(ready, c)
		}
	}
	m.scratch.ready = ready
	defer clear(ready)
	m.mu.Unlock()
	if perm := m.sc.Perm(sched.PointConsensusEval, len(ready)); perm != nil {
		// The attempt order over ready sets is unspecified (each is an
		// independent consensus set); explore permutations of it.
		permuted := make([]*community, len(ready))
		for i, j := range perm {
			permuted[i] = ready[j]
		}
		copy(ready, permuted)
	}
	for _, c := range ready {
		if m.evaluate(c) {
			return true
		}
	}
	// A registration during the attempts stood them down: recompute.
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.valid
}

// evaluate runs one firing attempt for c if it is still ready, clearing its
// dirty mark first so that a commit landing during the attempt re-marks it.
func (m *Manager) evaluate(c *community) bool {
	m.mu.Lock()
	if !m.valid || !c.dirty || c.offered != len(c.members) {
		m.mu.Unlock()
		return false
	}
	c.dirty = false
	s := &m.scratch
	s.offers = grow(s.offers, len(c.members))
	for i, mem := range c.members {
		s.offers[i] = claim{}
		if o := mem.offer; o != nil {
			gen, _ := o.load()
			s.offers[i] = claim{o, gen}
		}
	}
	m.mu.Unlock()
	m.engine.Metrics().IncConsensusRound()
	return m.tryFire(c, s.offers)
}

// drainScratch is the drain's working memory: only one drain pass runs at a
// time (see drain), so it belongs to the running pass, which clears what it
// takes instead of making it anew. Nothing in it outlives the pass; what a
// partition keeps, install allocates.
type drainScratch struct {
	members, refresh []*member
	counts           map[view.BucketKey]int // the live size of every imported bucket
	n                int                    // the bucket being counted
	count            func(tuple.ID, tuple.Tuple) bool

	// overlapSets's union-find and indexes, and install's set numbers.
	parent        []int
	nonEmpty      []bool
	firstComplete map[view.BucketKey]int
	importers     map[tuple.ID]int
	commOf        []int
	sizes         []int

	// The running step's ready sets, and its firing attempt's (tryFire)
	// memory, cleared when the attempt ends: the set's offers, each offer's
	// pick, the lock plan, the source phase 1 evaluates over, its memo of
	// shared evaluations, and its fields blocks (pattern.Block) — the
	// members are parked, so the fire grounds their assertions into blocks
	// of its own, not their records'.
	ready  []*community
	offers []claim
	picks  []pick
	keys   []dataspace.InterestKey
	src    hidingSource
	vals   pattern.Block
	shared sharing
}

// pick is the alternative a firing attempt's phase 1 chose for one offer,
// and its answer.
type pick struct {
	a   *txn.Answer
	alt int
}

// grow returns s with length n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// repartition recomputes the consensus sets of the whole society from the
// import-overlap relation and installs them, with fresh readiness counters
// and the commit-side watch index, unless the membership changed meanwhile
// (the next step then starts over).
//
// Everything is computed inside one snapshot of the whole store, whose read
// locks exclude every commit — and therefore the commit hook: the bucket
// counts and tuple-ID refinements read here are exactly the ones the hook
// continues from, and a commit either completed before the snapshot (its
// effect is in what we read) or runs its hook against the installed
// partition.
//
// Overlap is decided without materializing an import wherever its shape
// allows: a universal import overlaps every nonempty one; two
// bucket-complete imports overlap iff they share a nonempty bucket (a
// count, maintained afterwards by the hook); only imports that admit part
// of a bucket, or are unbounded, are compared by tuple instance — an
// unbounded one through its window, never materialized (see overlapSets).
func (m *Manager) repartition() {
	s := &m.scratch
	if s.counts == nil {
		s.counts = make(map[view.BucketKey]int)
		s.firstComplete = make(map[view.BucketKey]int)
		s.importers = make(map[tuple.ID]int)
		s.count = func(tuple.ID, tuple.Tuple) bool { s.n++; return true }
	}
	defer func() {
		clear(s.members)
		clear(s.refresh)
		s.members, s.refresh = s.members[:0], s.refresh[:0]
		clear(s.counts)
	}()
	m.engine.Store().Snapshot(func(r dataspace.Reader) {
		m.mu.Lock()
		gen := m.gen
		s.members = slices.Grow(s.members, len(m.members))
		for _, rec := range m.members {
			mem := &rec.m
			s.members = append(s.members, mem)
			if sh := mem.shape; sh.Bounded && !sh.Complete && mem.stale {
				mem.stale = false
				s.refresh = append(s.refresh, mem)
			}
		}
		m.mu.Unlock()

		slices.SortFunc(s.members, func(a, b *member) int { return cmp.Compare(a.pid, b.pid) })
		for _, mem := range s.refresh {
			mem.ids = materialize(mem, r)
		}
		total := r.Len()
		for _, mem := range s.members {
			for _, k := range mem.shape.Keys {
				if _, ok := s.counts[k]; !ok {
					s.n = 0
					r.Scan(k.Arity, k.Lead, true, s.count)
					s.counts[k] = s.n
				}
			}
		}

		root := s.overlapSets(total, r)

		m.mu.Lock()
		defer m.mu.Unlock()
		if m.gen != gen || m.closed {
			// The society changed while we computed: start over. The
			// refinements refreshed above are not yet watched, so nothing
			// would record a commit staling them.
			for _, mem := range s.refresh {
				mem.stale = true
			}
			return
		}
		m.install(root, total)
	})
}

// overlapSets closes s.members (ascending pid) under import overlap and
// returns, per member index, the index of its set's representative.
// s.counts holds the live size of every bucket a bounded member imports,
// total the size of the dataspace, r the dataspace.
//
// An unbounded import is probed through its window, so its cost follows
// what the other imports hold, not the dataspace: each nonempty bucket a
// complete import holds and each instance a partial one holds, until the
// first it shows. Only a universal member (is it nonempty?) or a later
// unbounded one (do they share an instance?) makes it scan every arity.
func (s *drainScratch) overlapSets(total int, r dataspace.Reader) []int {
	members := s.members
	parent := grow(s.parent, len(members))
	s.parent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	if total > 0 { // an empty dataspace has no overlaps: every member is a singleton set
		defer clear(s.firstComplete)
		defer clear(s.importers)
		universal := -1
		nonEmpty := grow(s.nonEmpty, len(members))
		s.nonEmpty = nonEmpty
		clear(nonEmpty)
		firstComplete := s.firstComplete // first bucket-complete importer of a nonempty bucket
		for i, mem := range members {
			switch {
			case mem.shape.Universal:
				nonEmpty[i] = true
				if universal >= 0 {
					union(universal, i)
				}
				universal = i
			case mem.shape.Complete:
				for _, k := range mem.shape.Keys {
					if s.counts[k] == 0 {
						continue
					}
					nonEmpty[i] = true
					if first, ok := firstComplete[k]; ok {
						union(first, i)
					} else {
						firstComplete[k] = i
					}
				}
			}
		}
		importers := s.importers
		var unbounded []int
		for i, mem := range members {
			if !mem.shape.Universal && !mem.shape.Bounded {
				unbounded = append(unbounded, i)
			}
			if !mem.shape.Bounded || mem.shape.Complete {
				continue
			}
			for id, k := range mem.ids {
				nonEmpty[i] = true
				if first, ok := importers[id]; ok {
					union(first, i)
				} else {
					importers[id] = i
				}
				if first, ok := firstComplete[k]; ok {
					union(first, i)
				}
			}
		}
		wins := make([]*view.Window, len(unbounded))
		for n, i := range unbounded {
			wins[n] = members[i].view.Window(r, members[i].env)
		}
		for n, i := range unbounded {
			w, later := wins[n], wins[n+1:]
			shown := false
			first := func(tuple.ID, tuple.Tuple) bool { shown = true; return false }
			for k, c := range firstComplete {
				if shown = false; find(c) != find(i) {
					if w.Scan(k.Arity, k.Lead, true, first); shown {
						union(c, i)
						nonEmpty[i] = true
					}
				}
			}
			for id, j := range importers {
				if find(j) != find(i) {
					if inst, ok := r.Get(id); ok && w.Admits(inst.Tuple) {
						union(j, i)
						nonEmpty[i] = true
					}
				}
			}
			each := func(_ tuple.ID, t tuple.Tuple) bool {
				nonEmpty[i] = true
				for l, wl := range later {
					if j := unbounded[n+1+l]; find(j) != find(i) && wl.Admits(t) {
						union(j, i)
					}
				}
				return len(later) > 0
			}
			for _, a := range r.Arities() {
				if len(later) == 0 && (universal < 0 || nonEmpty[i]) {
					break
				}
				w.Scan(a, tuple.Value{}, false, each)
			}
		}
		if universal >= 0 {
			for i, ne := range nonEmpty {
				if ne {
					union(universal, i)
				}
			}
		}
	}
	for i := range parent {
		parent[i] = find(i)
	}
	return parent
}

// install makes the computed partition current: fresh communities with
// their offered counts and lock plans, and the commit hook's index of them
// (bucket watches seeded with the snapshot's counts, the broad sets, the
// dataspace size). Caller holds mu, inside the partition snapshot.
//
// The partition is four blocks, sized by a counting pass: the communities,
// their member lists, the bucket watches and the watches' set lists. They are fresh for every partition, since an
// attempt chosen from the previous one may still hold its community; the
// watch map and the broad list are the commit hook's alone, and are
// refilled in place.
func (m *Manager) install(root []int, total int) {
	s := &m.scratch
	members := s.members

	// Count: number the sets in order of their first member, and size every
	// block.
	commOf := grow(s.commOf, len(members))
	s.commOf = commOf
	for i := range commOf {
		commOf[i] = -1
	}
	ncomm, nkeys := 0, 0
	for i, mem := range members {
		if commOf[root[i]] < 0 {
			commOf[root[i]] = ncomm
			ncomm++
		}
		nkeys += len(mem.shape.Keys)
	}
	sizes := grow(s.sizes, ncomm) // members per set
	s.sizes = sizes
	clear(sizes)
	if m.watch == nil {
		m.watch = make(map[view.BucketKey]*bucketWatch, len(s.counts))
	}
	clear(m.watch)
	watches := make([]bucketWatch, len(s.counts))
	nw := 0
	for i, mem := range members {
		sizes[commOf[root[i]]]++
		for _, key := range mem.shape.Keys {
			w := m.watch[key]
			if w == nil {
				w = &watches[nw]
				nw++
				w.count = s.counts[key]
				m.watch[key] = w
			}
			w.importers++
		}
	}

	// Cut the blocks.
	m.comms = make([]community, ncomm)
	memBlock := make([]*member, len(members))
	for k, n := range sizes {
		m.comms[k] = community{members: memBlock[:0:n], dirty: true, planned: true}
		memBlock = memBlock[n:]
	}
	commBlock := make([]*community, nkeys)
	for i := range watches {
		w := &watches[i]
		w.comms, commBlock = commBlock[:0:w.importers], commBlock[w.importers:]
	}

	// Fill.
	clear(m.broad)
	m.broad, m.volatile, m.total = m.broad[:0], false, total
	for i, mem := range members {
		c := &m.comms[commOf[root[i]]]
		c.members = append(c.members, mem)
		mem.comm = c
		if mem.offer != nil {
			c.offered++
		}
		if !mem.shape.Bounded || mem.wide {
			c.planned = false
			if !mem.shape.Universal && !mem.shape.Bounded {
				m.volatile = true
			}
		}
		for _, k := range mem.shape.Keys {
			w := m.watch[k]
			if !mem.shape.Complete {
				w.partial = append(w.partial, mem)
			}
			w.watchedBy(c)
		}
	}
	for k := range m.comms {
		if c := &m.comms[k]; !c.planned {
			m.broad = append(m.broad, c)
		}
	}
	m.valid = true
}

// materialize computes Import(p) ∩ D for a member whose bounded import is
// not bucket-complete, recording each instance's bucket: it scans exactly
// the import's buckets.
func materialize(mem *member, r dataspace.Reader) map[tuple.ID]view.BucketKey {
	ids := make(map[tuple.ID]view.BucketKey)
	w := mem.view.Window(r, mem.env)
	collect := func(id tuple.ID, t tuple.Tuple) bool {
		ids[id] = bucketOf(t)
		return true
	}
	for _, k := range mem.shape.Keys {
		w.Scan(k.Arity, k.Lead, true, collect)
	}
	return ids
}

// hidingSource is a member's window minus the tuple instances already
// claimed for retraction by an earlier participant of the same composite,
// so participants retract pairwise-distinct instances. It forwards the
// window's secondary-index access path and join estimator, so a query
// evaluated for a firing attempt is planned and served exactly as the same
// query is inside an ordinary transaction.
type hidingSource struct {
	win    *view.Window
	hidden map[tuple.ID]struct{}
}

func (h *hidingSource) visible(fn func(tuple.ID, tuple.Tuple) bool) func(tuple.ID, tuple.Tuple) bool {
	if len(h.hidden) == 0 {
		return fn
	}
	return func(id tuple.ID, t tuple.Tuple) bool {
		if _, hid := h.hidden[id]; hid {
			return true
		}
		return fn(id, t)
	}
}

func (h *hidingSource) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	h.win.Scan(arity, lead, leadKnown, h.visible(fn))
}

func (h *hidingSource) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	h.win.ScanFields(arity, sels, h.visible(fn))
}

func (h *hidingSource) LeadWide(arity int, lead tuple.Value) bool {
	return h.win.LeadWide(arity, lead)
}

func (h *hidingSource) JoinEstimator() pattern.Estimator { return h.win.JoinEstimator() }

var (
	_ pattern.FieldSource       = (*hidingSource)(nil)
	_ pattern.EstimatorProvider = (*hidingSource)(nil)
)

// lockPlan appends to keys[:0] the keys covering everything a firing
// attempt for c can read or write — the set's import buckets plus the
// buckets its offers assert into — or reports planned=false when that is not
// statically known (an unplanned set, or an assertion whose lead depends on
// the solution).
func lockPlan(c *community, offers []claim, keys []dataspace.InterestKey) (_ []dataspace.InterestKey, planned bool) {
	if !c.planned {
		return keys, false
	}
	n := len(offers) // an assertion an offer, as a rule
	for _, mem := range c.members {
		n += len(mem.shape.Keys)
	}
	keys = slices.Grow(keys[:0], n)
	for _, mem := range c.members {
		for _, k := range mem.shape.Keys {
			keys = append(keys, dataspace.InterestKey{Arity: k.Arity, Lead: k.Lead, LeadKnown: k.Arity > 0})
		}
	}
	for _, cl := range offers {
		for _, req := range cl.o.reqs {
			for _, ap := range req.Asserts {
				a := ap.Arity()
				lead, known := ap.Lead(req.Env)
				if a > 0 && !known {
					return keys, false
				}
				keys = append(keys, dataspace.InterestKey{Arity: a, Lead: lead, LeadKnown: a > 0})
			}
		}
	}
	return keys, true
}

// tryFire attempts to execute the composite transaction of consensus set c.
// It claims every member's offer in the incarnation evaluate found it in,
// re-validates all queries inside one exclusive section — over the shards
// of the set's lock plan when there is one, over every shard otherwise —
// applies all retractions then all assertions as one commit, and resolves
// the offers. On any failure the claims revert.
func (m *Manager) tryFire(c *community, offers []claim) bool {
	reg := m.engine.Metrics()
	reg.IncTxnAttempt(metrics.TxnConsensus)
	observed := reg.Observed()
	var start time.Time
	if observed {
		start = time.Now()
	}
	defer func() {
		if observed {
			reg.ObserveTxnLatency(metrics.TxnConsensus, time.Since(start))
		}
	}()
	if perm := m.sc.Perm(sched.PointConsensusClaim, len(offers)); perm != nil {
		// Claim (and therefore phase-1 evaluation) order within a set is
		// unspecified: participants hide the instances they retract from
		// later participants, and any claiming order must yield a consistent
		// composite. Explore permutations of it.
		permuted := make([]claim, len(offers))
		for i, j := range perm {
			permuted[i] = offers[j]
		}
		copy(offers, permuted)
	}
	s := &m.scratch
	s.picks = grow(s.picks, len(offers))
	defer s.endAttempt()
	for n, cl := range offers {
		if cl.o == nil || !cl.o.move(cl.gen, stateOffered, stateClaimed) {
			m.revert(offers[:n])
			return false
		}
	}

	// The process members' assertions are cut from one block for the
	// attempt, sized by their first alternatives; a Go-API offer's (it has
	// Done) get a heap block per tuple, as its other requests do.
	width := 0
	for _, cl := range offers {
		if cl.o.Done() == nil {
			width += pattern.GroundWidth(cl.o.reqs[0].Asserts)
		}
	}
	s.vals.Open(width)
	// The window between claiming and committing is where withdrawals and
	// cancellations race a firing attempt; stretch it.
	m.sc.Yield(sched.PointConsensusClaim)
	attempt := func(w dataspace.Writer) error { return m.attempt(w, c, offers) }
	var err error
	var planned bool
	if s.keys, planned = lockPlan(c, offers, s.keys); planned {
		err = m.engine.Store().UpdateKeys(tuple.Environment, s.keys, attempt)
	} else {
		err = m.engine.Store().Update(tuple.Environment, attempt)
	}
	if err != nil {
		for _, p := range s.picks {
			if p.a != nil {
				p.a.Release()
			}
		}
		m.revert(offers)
		reg.IncTxnRetry(metrics.TxnConsensus)
		return false
	}

	m.mu.Lock()
	// The drain steps again after a fire and sees every event up to here.
	m.firing = false
	m.due.Store(false)
	for _, cl := range offers {
		m.dropOffer(cl.o)
	}
	m.mu.Unlock()
	// Count the fire before resolving any offer: a resolved offerer may run
	// (and its observer read Fires) the moment done closes.
	m.fires.Add(1)
	reg.IncTxnCommit(metrics.TxnConsensus)
	reg.ObserveCommunity(len(offers))
	// Resolution order across participants is unspecified (the composite is
	// already committed); explore permutations and stretch the gaps so some
	// participants resume long before others learn their offer fired.
	order := m.sc.Perm(sched.PointConsensusResolve, len(offers))
	for n := range offers {
		i := n
		if order != nil {
			i = order[n]
		}
		offers[i].o.resolve(offers[i].gen, s.picks[i].a, s.picks[i].alt, nil)
		m.sc.Yield(sched.PointConsensusResolve)
	}
	m.mu.Lock()
	m.settled.Broadcast()
	m.mu.Unlock()
	return true
}

// revert returns the claimed offers to the table and ends the attempt's
// exclusive hold on the drain.
func (m *Manager) revert(claimed []claim) {
	for _, cl := range claimed {
		cl.o.move(cl.gen, stateClaimed, stateOffered)
	}
	m.mu.Lock()
	m.firing = false
	m.settled.Broadcast()
	m.mu.Unlock()
}

// endAttempt clears what a firing attempt left in the scratch, so that it
// pins nothing past the attempt.
func (s *drainScratch) endAttempt() {
	clear(s.offers)
	clear(s.picks)
	clear(s.keys)
	s.offers, s.picks, s.keys = s.offers[:0], s.picks[:0], s.keys[:0]
	s.vals = pattern.Block{}
	s.src.win = nil
	clear(s.src.hidden)
	s.shared.reset()
}

// attempt is the exclusive section of tryFire's attempt for c's claimed
// offers, run by the store under the attempt's locks. A method, not a
// closure over tryFire's locals: those would move to the heap each attempt.
func (m *Manager) attempt(w dataspace.Writer, c *community, offers []claim) error {
	s := &m.scratch
	// The locks now held exclude every commit that could re-partition
	// this set (such a commit writes a bucket one of its members
	// imports); a membership change or an earlier invalidation shows
	// here, and the attempt stands down for the recomputation.
	m.mu.Lock()
	current := m.valid && c.members[0].comm == c
	m.mu.Unlock()
	if !current {
		return errAbortFire
	}
	// Phase 1: evaluate every member's query against the pre-state
	// (minus instances claimed by earlier members) and ground its
	// assertions. For each offer the first alternative whose query
	// succeeds is the one executed. One source serves every
	// alternative, its window set to each in turn; a member issuing a
	// statement an earlier one solved under the same bindings copies
	// that solution (sharing).
	for i, cl := range offers {
		process := cl.o.Done() == nil
		for ai := range cl.o.reqs {
			a := txn.NewAnswer(cl.o.reqs[ai])
			if process {
				a.CutFrom(&s.vals)
			}
			found, err := s.solve(a, &cl.o.reqs[ai], process, w)
			if err == nil && found {
				err = a.Ground(w)
			}
			if err != nil {
				a.Release()
				return err
			}
			if !found {
				a.Release()
				continue
			}
			s.picks[i] = pick{a, ai}
			for _, mt := range a.Rows()[0].Matched() {
				if s.src.hidden == nil {
					s.src.hidden = make(map[tuple.ID]struct{})
				}
				s.src.hidden[mt.ID] = struct{}{}
			}
			break
		}
		if s.picks[i].a == nil {
			return errAbortFire
		}
	}
	// Phase 2: all retractions, then all assertions.
	for _, p := range s.picks {
		if err := p.a.Retract(w); err != nil {
			return err
		}
	}
	for _, p := range s.picks {
		p.a.Insert(w)
	}
	m.mu.Lock()
	m.firing = true // its commit's after-commit hook must not wait for this drain
	m.mu.Unlock()
	return nil
}

// solve evaluates req's query into a for phase 1 over the attempt's source,
// unless a process member's earlier answer to the same statement under the
// same bindings can be copied (sharing).
func (s *drainScratch) solve(a *txn.Answer, req *txn.Request, process bool, w dataspace.Writer) (bool, error) {
	key, share := stmt{}, false
	hidden := len(s.src.hidden)
	if process {
		var from *txn.Answer
		if key, from, share = s.shared.lookup(req, hidden); from != nil {
			return a.CopyRows(from), nil
		}
	}
	s.src.win = a.Window(w)
	found, err := a.Solve(&s.src, true)
	if share && found && err == nil {
		s.shared.keep(key, a, req.Env, hidden)
	}
	return found, err
}
