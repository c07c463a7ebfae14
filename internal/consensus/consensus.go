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
// paper's "very similar to the quiescence detection problem": a detector
// re-evaluates readiness after every relevant event (new offer, dataspace
// commit, membership change).
//
// Processes register with the Manager (carrying their view and parameter
// environment) so that consensus sets range over the whole process
// society: a registered process that is not offering blocks its set, which
// is exactly the paper's semantics — consensus is an agreement of the
// entire community, not of whoever happens to be waiting.
package consensus

import (
	"context"
	"errors"
	"runtime"
	"sort"
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

// offerState tracks the lifecycle of one offer.
type offerState int32

const (
	stateOffered offerState = iota + 1
	stateClaimed            // locked by a firing attempt
	stateFired              // result available
	stateWithdrawn
)

// Offer is one process's pending consensus transaction. An offer carries
// one or more alternative transactions (a selection construct with several
// consensus guards offers them as alternatives of a single offer); when
// the consensus fires, the first alternative whose query succeeds is the
// one executed. Offers are created by StartOffer/StartOfferAlts and
// resolved either by firing (Done closes, Result returns the composite's
// per-process outcome) or by Withdraw.
type Offer struct {
	reqs   []txn.Request
	m      *Manager
	state  atomic.Int32
	done   chan struct{}
	res    txn.Result
	chosen int
	err    error
}

// Done returns a channel closed when the offer has fired.
func (o *Offer) Done() <-chan struct{} { return o.done }

// Result returns the offer's outcome after Done is closed.
func (o *Offer) Result() (txn.Result, error) { return o.res, o.err }

// Chosen returns the index of the alternative that executed, valid after
// Done is closed with a nil error.
func (o *Offer) Chosen() int { return o.chosen }

// pid returns the offering process.
func (o *Offer) pid() tuple.ProcessID { return o.reqs[0].Proc }

// Withdraw removes the offer if it has not fired (and is not being fired).
// It returns true when withdrawn; false means the offer fired (or is about
// to fire) and the caller must take its result. Selection constructs use
// this when another guard commits first.
func (o *Offer) Withdraw() bool {
	if !o.state.CompareAndSwap(int32(stateOffered), int32(stateWithdrawn)) {
		// Claimed or fired: a firing attempt owns it. Claimed reverts to
		// Offered if the attempt aborts; spin until the state settles.
		for {
			switch offerState(o.state.Load()) {
			case stateFired:
				return false
			case stateWithdrawn:
				return true
			case stateOffered:
				if o.state.CompareAndSwap(int32(stateOffered), int32(stateWithdrawn)) {
					o.m.removeOffer(o)
					return true
				}
			default: // stateClaimed: firing in progress, wait for outcome
				runtime.Gosched()
			}
		}
	}
	o.m.removeOffer(o)
	return true
}

// member is one registered process.
type member struct {
	pid  tuple.ProcessID
	view view.View
	env  expr.Env

	// Cached import materialization, maintained by the detector. A member
	// with a bounded import is re-materialized only when a commit touches
	// one of its index buckets (see view.Matcher's bounded contract);
	// unbounded imports are re-materialized on every evaluation. Guarded by
	// Manager.mu.
	cacheIDs   map[tuple.ID]struct{}
	cacheKeys  map[view.BucketKey]struct{}
	cacheValid bool
	bounded    bool
}

// Manager coordinates consensus transactions over one engine/store.
type Manager struct {
	engine *txn.Engine
	sc     *sched.Controller // the store's exploration controller (usually nil)

	mu      sync.Mutex
	members map[tuple.ProcessID]*member
	offers  map[tuple.ProcessID]*Offer
	closed  bool

	kick chan struct{} // detector wakeup (capacity 1)
	stop chan struct{}
	wg   sync.WaitGroup

	// pendingKeys accumulates the index buckets touched by commits since
	// the detector last evaluated; it drives cache invalidation. Guarded
	// by pendingMu (the commit hook runs under the committing shards'
	// write locks and must not take m.mu; commits on disjoint shard sets
	// invoke the hook concurrently, which pendingMu serializes).
	pendingMu   sync.Mutex
	pendingKeys map[view.BucketKey]struct{}

	// relevance is the detector's commit-relevance summary: when non-nil,
	// a commit touching only buckets outside it cannot change any member's
	// import materialization — and, by the bounded-matcher contract, no
	// window-visible query answer either — so the detector kick is elided
	// (the buckets are still recorded in pendingKeys; invalidation is
	// never lost). nil means every commit is relevant (broad): the initial
	// state, and whenever any member's import is universal, unbounded, or
	// not yet materialized. relGen guards summary writes: membership and
	// offer changes bump it (resetRelevance) so a summary computed against
	// a stale society never lands. Both guarded by pendingMu.
	relevance map[view.BucketKey]struct{}
	relGen    uint64

	fires    atomic.Uint64 // successful consensus firings
	attempts atomic.Uint64 // detector evaluations
}

// NewManager creates a manager over the engine and starts its detector.
// Close must be called to stop the detector.
func NewManager(engine *txn.Engine) *Manager {
	m := &Manager{
		engine:      engine,
		sc:          engine.Store().Sched(),
		members:     make(map[tuple.ProcessID]*member),
		offers:      make(map[tuple.ProcessID]*Offer),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		pendingKeys: make(map[view.BucketKey]struct{}),
	}
	engine.Store().OnCommit(func(rec dataspace.CommitRecord) {
		m.pendingMu.Lock()
		relevant := m.relevance == nil
		record := func(inst dataspace.Instance) {
			a := inst.Tuple.Arity()
			key := view.BucketKey{}
			if a > 0 {
				key = view.CanonBucket(a, inst.Tuple.Field(0))
			}
			m.pendingKeys[key] = struct{}{}
			if !relevant {
				if _, hit := m.relevance[key]; hit {
					relevant = true
				}
			}
		}
		for _, inst := range rec.Inserted {
			record(inst)
		}
		for _, inst := range rec.Deleted {
			record(inst)
		}
		m.pendingMu.Unlock()
		if !relevant {
			// Every touched bucket is outside every registered import: the
			// commit can change neither an import materialization nor a
			// window-visible query answer (see Manager.relevance), so the
			// detector's last decision stands. The buckets were recorded
			// above — cache invalidation is deferred, never lost — and any
			// society change that could widen relevance resets the summary
			// (and signals) itself.
			engine.Metrics().IncConsensusKickSuppressed()
			return
		}
		if m.sc != nil && m.sc.DelaySignal() {
			// Delayed-invalidation fault: the touched buckets are already in
			// pendingKeys (above), so only the detector kick is deferred —
			// delivery is late, never lost. The detector must tolerate
			// learning about a commit arbitrarily after it happened.
			go func() {
				runtime.Gosched()
				m.signal()
			}()
			return
		}
		m.signal()
	})
	m.wg.Add(1)
	go m.detector()
	return m
}

// Close stops the detector. Pending offers fail with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	pending := make([]*Offer, 0, len(m.offers))
	for _, o := range m.offers {
		pending = append(pending, o)
	}
	m.offers = map[tuple.ProcessID]*Offer{}
	m.mu.Unlock()

	close(m.stop)
	m.wg.Wait()
	for _, o := range pending {
		if o.state.CompareAndSwap(int32(stateOffered), int32(stateFired)) {
			o.err = ErrClosed
			close(o.done)
		}
	}
}

// Fires reports the number of consensus transactions executed.
func (m *Manager) Fires() uint64 { return m.fires.Load() }

// Register adds a process (with its view and parameter environment) to the
// society the manager considers for consensus sets.
func (m *Manager) Register(pid tuple.ProcessID, v view.View, env expr.Env) {
	m.mu.Lock()
	m.members[pid] = &member{pid: pid, view: v, env: env}
	m.mu.Unlock()
	m.resetRelevance()
	m.signal()
}

// Unregister removes a process (at termination).
func (m *Manager) Unregister(pid tuple.ProcessID) {
	m.mu.Lock()
	delete(m.members, pid)
	delete(m.offers, pid)
	m.mu.Unlock()
	m.resetRelevance()
	m.signal()
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
// several consensus guards offers them this way.
func (m *Manager) StartOfferAlts(reqs []txn.Request) (*Offer, error) {
	if len(reqs) == 0 {
		return nil, errors.New("consensus: offer with no alternatives")
	}
	pid := reqs[0].Proc
	for _, r := range reqs[1:] {
		if r.Proc != pid {
			return nil, errors.New("consensus: alternatives from different processes")
		}
	}
	o := &Offer{reqs: reqs, m: m, done: make(chan struct{})}
	o.state.Store(int32(stateOffered))
	m.mu.Lock()
	switch {
	case m.closed:
		m.mu.Unlock()
		return nil, ErrClosed
	case m.members[pid] == nil:
		m.mu.Unlock()
		return nil, ErrNotRegistered
	}
	m.offers[pid] = o
	m.mu.Unlock()
	m.engine.Metrics().IncTxnBlock(metrics.TxnConsensus)
	m.resetRelevance()
	m.signal()
	return o, nil
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
		return o.Result()
	case <-ctx.Done():
		if o.Withdraw() {
			return txn.Result{}, ctx.Err()
		}
		<-o.Done() // fired while cancelling: the effect is committed
		return o.Result()
	}
}

func (m *Manager) removeOffer(o *Offer) {
	m.mu.Lock()
	if cur := m.offers[o.pid()]; cur == o {
		delete(m.offers, o.pid())
	}
	m.mu.Unlock()
	m.resetRelevance()
	m.signal()
}

func (m *Manager) signal() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// resetRelevance widens the commit-relevance summary back to broad (every
// commit kicks) and bumps the generation so an in-flight detector round
// cannot re-install a summary computed against the previous society.
// Called on every membership or offer change, before the change's own
// signal.
func (m *Manager) resetRelevance() {
	m.pendingMu.Lock()
	m.relGen++
	m.relevance = nil
	m.pendingMu.Unlock()
}

// detector is the manager's background loop: on every signal it looks for
// a consensus set whose members are all ready, and fires it.
func (m *Manager) detector() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case <-m.kick:
		}
		// Keep evaluating until no set fires; each firing changes the
		// dataspace and may enable another set.
		for m.evaluateOnce() {
		}
	}
}

// evaluateOnce looks for a consensus set whose members are all ready and
// fires it. It reports whether anything fired.
//
// The consensus set is defined over the whole society (the transitive
// closure of import overlap), but the expensive part — materializing each
// member's import — is done lazily: first the *offering* members are
// grouped; then non-offering members are examined one at a time only to
// check whether they belong to (and therefore block) a candidate group,
// stopping as soon as every candidate is blocked. Early in a computation,
// when few processes are at their consensus statements, this makes the
// per-commit detection cost proportional to the offers, not the society.
func (m *Manager) evaluateOnce() bool {
	m.sc.Yield(sched.PointConsensusEval)
	m.attempts.Add(1)
	m.engine.Metrics().IncConsensusRound()

	m.mu.Lock()
	if m.closed || len(m.offers) == 0 {
		m.mu.Unlock()
		return false
	}
	members := make([]*member, 0, len(m.members))
	for _, mem := range m.members {
		members = append(members, mem)
	}
	offers := make(map[tuple.ProcessID]*Offer, len(m.offers))
	for pid, o := range m.offers {
		offers[pid] = o
	}
	m.mu.Unlock()

	var offering, idle []*member
	for _, mem := range members {
		if o := offers[mem.pid]; o != nil && offerState(o.state.Load()) == stateOffered {
			offering = append(offering, mem)
		} else {
			idle = append(idle, mem)
		}
	}
	if len(offering) == 0 {
		return false
	}

	groups := m.candidateGroups(members, offering, idle)
	if perm := m.sc.Perm(sched.PointConsensusEval, len(groups)); perm != nil {
		// The attempt order over ready groups is unspecified (each group is
		// an independent consensus set); explore permutations of it.
		permuted := make([][]tuple.ProcessID, len(groups))
		for i, j := range perm {
			permuted[i] = groups[j]
		}
		groups = permuted
	}
	for _, g := range groups {
		if m.tryFire(g, offers) {
			return true
		}
	}
	return false
}

// candidateGroups partitions the offering members into import-overlap
// groups and discards any group that a non-offering member belongs to.
//
// Cache invalidation (draining the commit-touched buckets) happens inside
// the grouping snapshot, while the snapshot's read locks exclude every
// commit: a commit either completed before the snapshot — and its buckets
// are in the drained set, invalidating the caches it staled — or starts
// after it and is drained on the next evaluation. Draining outside the
// snapshot would leave a window (drain, then commit, then snapshot) in
// which a stale cache passes for valid and the overlap relation is
// computed from instance IDs two configurations apart, splitting one
// consensus set into groups that fire separately.
func (m *Manager) candidateGroups(members, offering, idle []*member) [][]tuple.ProcessID {
	parent := make(map[tuple.ProcessID]tuple.ProcessID, len(offering))
	var find func(tuple.ProcessID) tuple.ProcessID
	find = func(x tuple.ProcessID) tuple.ProcessID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b tuple.ProcessID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, mem := range offering {
		parent[mem.pid] = mem.pid
	}

	blockedRoots := make(map[tuple.ProcessID]bool)
	var relGen uint64
	m.engine.Store().Snapshot(func(r dataspace.Reader) {
		// Drain the commit-touched buckets and invalidate affected caches
		// under the snapshot's locks (see the function comment). Cache
		// fields are only ever written by this detector goroutine; never
		// alias the live map outside pendingMu (commit hooks write to it).
		// The relevance generation is read under the same lock: a society
		// change after this point bumps it and voids the summary this
		// round computes.
		m.pendingMu.Lock()
		relGen = m.relGen
		var touched map[view.BucketKey]struct{}
		if len(m.pendingKeys) > 0 {
			touched = m.pendingKeys
			m.pendingKeys = make(map[view.BucketKey]struct{})
		}
		m.pendingMu.Unlock()
		if len(touched) > 0 {
			for _, mem := range members {
				if !mem.cacheValid {
					continue
				}
				for k := range mem.cacheKeys {
					if _, hit := touched[k]; hit {
						mem.cacheValid = false
						break
					}
				}
			}
		}

		if r.Len() == 0 {
			return // empty dataspace: no overlaps; every offer is a singleton set
		}
		// Group the offering members. Universal imports short-circuit: with
		// a nonempty dataspace they overlap each other and every member
		// whose import is nonempty (the Sum1 barrier case).
		var universalRoot tuple.ProcessID
		haveUniversal := false
		for _, mem := range offering {
			if !mem.view.Import.All {
				continue
			}
			if haveUniversal {
				union(universalRoot, mem.pid)
			} else {
				universalRoot, haveUniversal = mem.pid, true
			}
		}
		importers := make(map[tuple.ID]tuple.ProcessID)
		nonEmpty := make(map[tuple.ProcessID]bool)
		for _, mem := range offering {
			if mem.view.Import.All {
				nonEmpty[mem.pid] = true
				continue
			}
			ids := m.importOf(mem, r)
			if len(ids) > 0 {
				nonEmpty[mem.pid] = true
				if haveUniversal {
					union(universalRoot, mem.pid)
				}
			}
			for id := range ids {
				if first, ok := importers[id]; ok {
					union(first, mem.pid)
				} else {
					importers[id] = mem.pid
				}
			}
		}

		// Block-check: a non-offering member whose import overlaps a
		// candidate group is part of that consensus set, so the set is not
		// ready. Stop as soon as everything is blocked.
		totalRoots := make(map[tuple.ProcessID]bool)
		for _, mem := range offering {
			totalRoots[find(mem.pid)] = true
		}
		allBlocked := func() bool { return len(blockedRoots) == len(totalRoots) }
		blockRootOf := func(pid tuple.ProcessID) { blockedRoots[find(pid)] = true }
		for _, mem := range idle {
			if allBlocked() {
				break
			}
			if mem.view.Import.All {
				// Overlaps every group with a nonempty import.
				for _, om := range offering {
					if nonEmpty[om.pid] {
						blockRootOf(om.pid)
					}
				}
				continue
			}
			ids := m.importOf(mem, r)
			if len(ids) == 0 {
				continue
			}
			if haveUniversal {
				blockRootOf(universalRoot)
			}
			for id := range ids {
				if pid, ok := importers[id]; ok {
					blockRootOf(pid)
				}
			}
		}
	})
	m.refreshRelevance(members, relGen)

	groups := make(map[tuple.ProcessID][]tuple.ProcessID)
	for _, mem := range offering {
		root := find(mem.pid)
		if blockedRoots[root] {
			continue
		}
		groups[root] = append(groups[root], mem.pid)
	}
	out := make([][]tuple.ProcessID, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	// Deterministic group order (by first member) for reproducible firing.
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refreshRelevance recomputes the commit-relevance summary from the
// member caches as of the grouping snapshot: the union of every bounded,
// valid cached import's bucket keys (which, for a bounded pure matcher,
// depend only on the member's view and environment — including currently
// empty buckets, per MaterializeKeyed). Any member with a universal,
// unbounded, invalid, or not-yet-materialized import forces the broad
// (nil) summary. The write is dropped when the generation moved — a
// Register/Unregister/offer change raced this round and already reset the
// summary. Only the detector goroutine reads the cache fields here, so no
// member lock is needed.
func (m *Manager) refreshRelevance(members []*member, gen uint64) {
	broad := false
	sum := make(map[view.BucketKey]struct{})
	for _, mem := range members {
		if mem.view.Import.All || !mem.cacheValid || !mem.bounded {
			broad = true
			break
		}
		for k := range mem.cacheKeys {
			sum[k] = struct{}{}
		}
	}
	m.pendingMu.Lock()
	if m.relGen == gen {
		if broad {
			m.relevance = nil
		} else {
			m.relevance = sum
		}
	}
	m.pendingMu.Unlock()
}

// importOf returns the member's materialized import, from the cache when
// it is still valid. Only the detector goroutine touches the cache fields.
func (m *Manager) importOf(mem *member, r dataspace.Reader) map[tuple.ID]struct{} {
	if mem.cacheValid {
		return mem.cacheIDs
	}
	ids, keys, bounded := view.MaterializeKeyed(mem.view, r, mem.env)
	mem.cacheIDs, mem.cacheKeys, mem.bounded = ids, keys, bounded
	// Unbounded imports cannot be invalidated by bucket, so they are never
	// cached (every evaluation recomputes them).
	mem.cacheValid = bounded
	return ids
}

// hidingSource hides tuple instances already claimed for retraction by an
// earlier participant of the same composite, so participants retract
// pairwise-distinct instances.
type hidingSource struct {
	r      dataspace.Reader
	v      view.View
	env    expr.Env
	hidden map[tuple.ID]struct{}
}

func (h hidingSource) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	h.v.Window(h.r, h.env).Scan(arity, lead, leadKnown, func(id tuple.ID, t tuple.Tuple) bool {
		if _, hid := h.hidden[id]; hid {
			return true
		}
		return fn(id, t)
	})
}

// tryFire attempts to execute the composite transaction of a consensus
// set. It claims every member's offer, re-validates all queries under the
// store's full write lock — a composite commit may span member views and
// therefore shards, so it locks every shard rather than planning a
// footprint — applies all retractions then all assertions as one commit,
// and resolves the offers. On any failure the claims revert.
func (m *Manager) tryFire(set []tuple.ProcessID, offers map[tuple.ProcessID]*Offer) bool {
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
	if perm := m.sc.Perm(sched.PointConsensusClaim, len(set)); perm != nil {
		// Claim (and therefore phase-1 evaluation) order within a set is
		// unspecified: participants hide the instances they retract from
		// later participants, and any claiming order must yield a consistent
		// composite. Explore permutations of it.
		permuted := make([]tuple.ProcessID, len(set))
		for i, j := range perm {
			permuted[i] = set[j]
		}
		set = permuted
	}
	claimed := make([]*Offer, 0, len(set))
	revert := func() {
		for _, o := range claimed {
			o.state.CompareAndSwap(int32(stateClaimed), int32(stateOffered))
		}
	}
	for _, pid := range set {
		o := offers[pid]
		if o == nil || !o.state.CompareAndSwap(int32(stateOffered), int32(stateClaimed)) {
			revert()
			return false
		}
		claimed = append(claimed, o)
	}

	results := make([]txn.Result, len(claimed))
	chosen := make([]int, len(claimed))
	// The window between claiming and committing is where withdrawals and
	// cancellations race a firing attempt; stretch it.
	m.sc.Yield(sched.PointConsensusClaim)
	err := m.engine.Store().Update(tuple.Environment, func(w dataspace.Writer) error {
		hidden := make(map[tuple.ID]struct{})
		type planned struct {
			retract []dataspace.Instance
			assert  []tuple.Tuple
			sol     pattern.Binding
			req     txn.Request
		}
		plans := make([]planned, len(claimed))
		// Phase 1: evaluate every member's query against the pre-state
		// (minus instances claimed by earlier members). For each offer the
		// first alternative whose query succeeds is the one executed.
		for i, o := range claimed {
			matched := false
			for ai, req := range o.reqs {
				src := hidingSource{r: w, v: req.View, env: req.Env, hidden: hidden}
				sol, found, err := pattern.Solve(req.Query, src, req.Env)
				if err != nil {
					return err
				}
				if !found {
					continue
				}
				matched = true
				chosen[i] = ai
				plans[i].sol = sol
				plans[i].req = req
				for _, mt := range sol.Matched {
					if !mt.Retract {
						continue
					}
					inst, ok := w.Get(mt.ID)
					if !ok {
						return errAbortFire
					}
					hidden[mt.ID] = struct{}{}
					plans[i].retract = append(plans[i].retract, inst)
				}
				for _, ap := range req.Asserts {
					t, gerr := ap.Ground(sol.Env)
					if gerr != nil {
						return gerr
					}
					if req.View.Exports(w, sol.Env, t) {
						plans[i].assert = append(plans[i].assert, t)
					} else if req.Export == txn.ExportError {
						return txn.ErrExportViolation
					}
				}
				break
			}
			if !matched {
				return errAbortFire
			}
		}
		// Phase 2: all retractions, then all assertions.
		for i := range plans {
			for _, inst := range plans[i].retract {
				if err := w.Delete(inst.ID); err != nil {
					return err
				}
			}
		}
		for i := range plans {
			owner := plans[i].req.Proc
			res := txn.Result{OK: true, Env: plans[i].sol.Env,
				Solutions: []expr.Env{plans[i].sol.Env},
				Retracted: plans[i].retract}
			for _, t := range plans[i].assert {
				id := w.Insert(t, owner)
				res.Asserted = append(res.Asserted,
					dataspace.Instance{ID: id, Tuple: t, Owner: owner})
			}
			results[i] = res
		}
		return nil
	})
	if err != nil {
		revert()
		reg.IncTxnRetry(metrics.TxnConsensus)
		return false
	}

	m.mu.Lock()
	for _, o := range claimed {
		if cur := m.offers[o.pid()]; cur == o {
			delete(m.offers, o.pid())
		}
	}
	m.mu.Unlock()
	// Count the fire before resolving any offer: a resolved offerer may run
	// (and its observer read Fires) the moment done closes.
	m.fires.Add(1)
	reg.IncTxnCommit(metrics.TxnConsensus)
	reg.ObserveCommunity(len(claimed))
	// Resolution order across participants is unspecified (the composite is
	// already committed); explore permutations and stretch the gaps so some
	// participants resume long before others learn their offer fired.
	order := m.sc.Perm(sched.PointConsensusResolve, len(claimed))
	if order == nil {
		order = make([]int, len(claimed))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		o := claimed[i]
		o.res = results[i]
		o.chosen = chosen[i]
		o.state.Store(int32(stateFired))
		close(o.done)
		m.sc.Yield(sched.PointConsensusResolve)
	}
	return true
}
