// Package txn implements SDL's atomic transactions over a dataspace viewed
// through a process window.
//
// A transaction consists of a query (binding query + test query, under an
// ∃ or ∀ quantifier), the retractions implied by the query's retract tags,
// and a list of assertion patterns grounded under the solution environment.
// All four sub-actions — query evaluation, retraction, assertion, and the
// caller's local actions — appear as a single atomic transformation of the
// dataspace: transactions are serializable.
//
// Operational types:
//
//   - Immediate ('→'): evaluated once; either succeeds or fails with no
//     effect (Engine.Immediate).
//   - Delayed ('⇒'): blocks the issuing process until a successful
//     evaluation is possible (Engine.Delayed). Weak fairness: a transaction
//     that remains enabled is eventually executed.
//   - Consensus ('⇑') is built on top of this package by
//     internal/consensus.
//
// A statically read-only transaction — nothing to assert, no retract tag —
// never takes an exclusive lock: it evaluates against a consistent cut of
// its footprint (Engine.read) and its answer is final.
//
// A transaction that can mutate evaluates inside its commit's exclusive
// section, which is the narrowest the request's footprint plan allows (see
// Engine.write): key latches, the planned shards, or the whole store. The
// request alone picks the rung.
package txn

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// ExportPolicy controls what happens when a transaction asserts a tuple
// outside the process's export set.
type ExportPolicy uint8

// Export policies.
const (
	// ExportDrop silently drops disallowed assertions — the formal
	// semantics D' = (D − W_r) ∪ (Export(p) ∩ W_a).
	ExportDrop ExportPolicy = iota
	// ExportError fails the transaction instead; a debugging aid.
	ExportError
)

// ErrExportViolation reports an assertion outside the export set under
// ExportError policy.
var ErrExportViolation = errors.New("txn: assertion outside export set")

// errFailed is the internal sentinel that rolls back a failed evaluation.
var errFailed = errors.New("txn: query failed")

// Request describes one transaction issued by a process.
type Request struct {
	// Proc is the issuing process (owner of asserted tuples).
	Proc tuple.ProcessID
	// View is the issuing process's view; use view.Universal() when the
	// process does not restrict it.
	View view.View
	// Env carries the process parameters and let-constants visible to the
	// query and the assertion patterns: a process's record or a let over it
	// for a process's request, and for a Go caller usually an expr.Env. The
	// engine only reads it, for as long as it holds the request.
	Env expr.Scope
	// Query is the transaction's query.
	Query pattern.Query
	// Asserts are the tuples added on success, grounded under each
	// solution's environment.
	Asserts []pattern.Pattern
	// Export selects the policy for assertions outside the export set.
	Export ExportPolicy
	// Site names the transaction's source for the explain records
	// (metrics.Snapshot.Explain); a Go request may leave it empty. An SDL
	// statement leaves it empty and names itself by Pos, which the record
	// renders as line:col.
	Site string
	Pos  metrics.Pos
}

// Result reports a transaction's outcome.
type Result struct {
	// OK is true when the transaction committed.
	OK bool
	// Env is the solution environment of an ∃ transaction (the request Env
	// extended with the query's bindings); for ∀, and for a failed
	// transaction, it is the request Env as a map (expr.EnvOf: the caller's
	// own map when it passed one).
	Env expr.Env
	// Solutions holds every solution environment of a ∀ transaction (one
	// entry, equal to Env, for ∃).
	Solutions []expr.Env
	// Retracted and Asserted list the tuple instances removed/added.
	Retracted []dataspace.Instance
	Asserted  []dataspace.Instance
}

// Stats counts engine activity.
type Stats struct {
	Attempts uint64 // evaluation attempts
	Commits  uint64 // successful transactions
	Failures uint64 // failed immediate evaluations
	Wakeups  uint64 // delayed-transaction wakeups
}

// Engine executes transactions against a store.
type Engine struct {
	store *dataspace.Store
	m     *metrics.Registry // the store's registry, cached
	sc    *sched.Controller // the store's exploration controller (usually nil)

	attempts atomic.Uint64
	commits  atomic.Uint64
	failures atomic.Uint64
	wakeups  atomic.Uint64
}

// New returns an engine over the store.
func New(store *dataspace.Store) *Engine {
	return &Engine{store: store, m: store.Metrics(), sc: store.Sched()}
}

// Store returns the engine's dataspace.
func (e *Engine) Store() *dataspace.Store { return e.store }

// Metrics returns the store's metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.m }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Attempts: e.attempts.Load(),
		Commits:  e.commits.Load(),
		Failures: e.failures.Load(),
		Wakeups:  e.wakeups.Load(),
	}
}

// Immediate executes req as an immediate ('→') transaction: one atomic
// evaluation that either commits or has no effect. res.OK reports whether
// the query succeeded; err reports evaluation errors (malformed queries,
// export violations under ExportError).
func (e *Engine) Immediate(req Request) (Result, error) {
	return result(e.Run(context.Background(), req, metrics.TxnImmediate))
}

// Delayed executes req as a delayed ('⇒') transaction: it blocks until a
// successful evaluation is possible or ctx is cancelled.
func (e *Engine) Delayed(ctx context.Context, req Request) (Result, error) {
	return result(e.Run(ctx, req, metrics.TxnDelayed))
}

// result copies a run's answer out as the public Result and releases it.
func result(a *Answer, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	defer a.Release()
	return a.Result(), nil
}

// Run executes req and hands its answer to the caller, who reads it and then
// releases it (see Answer). kind is the operational type: metrics.TxnDelayed
// blocks until an evaluation commits or ctx is done; metrics.TxnImmediate
// evaluates once, and the answer's OK reports whether it committed. err
// reports evaluation errors (malformed queries, export violations under
// ExportError) and cancellation; there is no answer with it.
func (e *Engine) Run(ctx context.Context, req Request, kind metrics.TxnKind) (*Answer, error) {
	a := NewAnswer(req)
	var err error
	if kind == metrics.TxnDelayed {
		err = e.await(ctx, a)
	} else {
		err = e.Exec(a, kind)
	}
	if err != nil {
		a.Release()
		return nil, err
	}
	return a, nil
}

// Exec runs one evaluation of a's request into a — on the shared read path
// when the request is statically read-only, inside its exclusive section
// otherwise. It is Run's immediate kind on an answer its caller made
// (NewAnswer), as a process does to ground into its record's block
// (Answer.CutFrom); on an error the caller releases a. Exec records the
// per-kind metrics: one attempt per execution, one commit on success, and — when an observer is attached — the end-to-end
// latency and the execution's explain record (metrics.Explain), filed under
// the request's site. The registry's attempts therefore count executions,
// so per kind latency-histogram count == attempts ≥ commits.
func (e *Engine) Exec(a *Answer, kind metrics.TxnKind) error {
	e.sc.Yield(sched.PointTxnExec)
	e.m.IncTxnAttempt(kind)
	observed := e.m.Observed()
	var start time.Time
	if observed {
		start = time.Now()
		a.explain = metrics.Explain{Steps: a.explain.Steps[:0]}
		a.ex = &a.explain
	}
	var err error
	if len(a.req.Asserts) == 0 && retractFree(a.req.Query) {
		err = e.read(a)
	} else {
		err = e.write(a)
	}
	if observed {
		e.m.ObserveTxnLatency(kind, time.Since(start))
		e.m.RecordExplain(a.req.Site, a.req.Pos, a.ex)
		a.ex = nil
	}
	if err == nil && a.OK() {
		e.m.IncTxnCommit(kind)
	}
	return err
}

// footprintKeys plans, before evaluation, the set of index buckets req can
// scan, retract from, or assert into. When the plan is exact (ok=true),
// the store needs to lock only the shards owning those buckets
// (UpdateKeys/SnapshotKeys) — transactions with disjoint footprints then
// commit in parallel. It is the engine's only footprint planner, and it
// plans a request iff
//
//   - its view is universal or View.Plannable — every matcher is pure, so
//     the import filter and the export check decide on the candidate tuple
//     alone and window scans with planned leads touch only planned buckets
//     (a dynamic matcher may consult arbitrary buckets); and
//   - every pattern and assertion lead of arity > 0 evaluates under
//     req.Env.
//
// The plan is sound because pattern matching never rebinds a variable
// already bound in req.Env (a bound variable compiles to an equality
// test), so a lead determined under req.Env keeps that value under every
// solution environment: every bucket the join, the negation checks, or the
// assertion grounding can touch is in the plan.
//
// Secondary field indexes never narrow this plan: a pattern with an
// unknown lead stays unplanned even when constant non-lead fields give the
// matcher an indexed access path, because the field index serves a
// (possibly stale-shape) subset of the arity scan's buckets across every
// shard — the footprint must still cover any shard a tuple of that arity
// can live in. The index changes which tuples a scan visits inside the
// locked footprint, not which shards the footprint locks.
//
// The keys are appended to buf — callers pass a stack array, so a plan costs
// no allocation; the store copies what it keeps of them. When the request
// does not plan, the keys are nil and the block names why: the view, or the
// first pattern or assertion lead that req.Env does not determine.
func footprintKeys(req Request, buf []dataspace.InterestKey) ([]dataspace.InterestKey, metrics.Block) {
	if !req.View.Plannable() {
		return nil, metrics.Block{Cause: metrics.CauseView}
	}
	keys := buf
	add := func(p *pattern.Pattern) metrics.Cause {
		a := p.Arity()
		if a == 0 {
			keys = append(keys, dataspace.InterestKey{Arity: 0})
			return metrics.CauseNone
		}
		lead, known := p.Lead(req.Env)
		switch {
		case known:
		case p.Fields[0].Kind == pattern.FieldWildcard:
			return metrics.CauseWildcard
		default:
			return metrics.CauseQueryVar
		}
		keys = append(keys, dataspace.InterestKey{Arity: a, Lead: lead, LeadKnown: true})
		return metrics.CauseNone
	}
	for i := range req.Query.Patterns {
		if c := add(&req.Query.Patterns[i]); c != metrics.CauseNone {
			return nil, metrics.Block{Cause: c, Index: i}
		}
	}
	for i := range req.Asserts {
		if c := add(&req.Asserts[i]); c != metrics.CauseNone {
			return nil, metrics.Block{Cause: c, Assert: true, Index: i}
		}
	}
	return keys, metrics.Block{}
}

// planKeys runs the footprint planner for a's request and counts the
// execution as planned or unplanned (planned executions are the commuting
// fast path's and the epoch read path's intake; unplanned mutating ones
// serialize on the full-store lock, unplanned reads share it), noting the
// outcome in a's explain record when there is one. The keys are appended to
// buf, as footprintKeys does.
func (e *Engine) planKeys(a *Answer, buf []dataspace.InterestKey) ([]dataspace.InterestKey, bool) {
	keys, block := footprintKeys(a.req, buf)
	planned := block.Cause == metrics.CauseNone
	e.m.IncFootprintPlan(planned)
	if a.ex != nil {
		a.ex.Block = block
	}
	return keys, planned
}

// write evaluates and applies a's mutating request inside its exclusive
// section, under the narrowest sound lock: the commutativity-aware key-level
// path when the footprint plan is exact (per-bucket latches plus group
// commit, falling back to shard locks for plans the lock table cannot
// latch), the whole store otherwise. A query with no solution is a failure
// with no effect; any other error aborts the transaction.
func (e *Engine) write(a *Answer) error {
	e.attempts.Add(1)
	fn := a.evalAndApply
	var (
		err error
		buf [8]dataspace.InterestKey
	)
	if keys, planned := e.planKeys(a, buf[:0]); planned {
		err = e.store.UpdateCommuting(a.req.Proc, keys, fn)
	} else {
		err = e.store.Update(a.req.Proc, fn)
	}
	if a.ex != nil && (err != nil || len(a.Retracted)+len(a.Asserted) == 0) {
		a.ex.Rung = metrics.RungNone // the store published nothing
	}
	switch {
	case errors.Is(err, errFailed):
		e.failures.Add(1)
		return nil
	case err != nil:
		return err
	}
	e.commits.Add(1)
	return nil
}

// read executes a statically read-only request — nothing to assert and a
// retract-free query — without any exclusive lock, key
// latch, intent lock or commit record. A planned footprint evaluates
// lock-free against epoch snapshots (a read the store declines or finds
// torn falls through); otherwise the evaluation holds the shared locks of
// the footprint's shards, or of every shard when the footprint is unplanned.
//
// Either way the query sees a consistent cut of its whole footprint.
// Commits apply and allocate their version inside the exclusive mu section
// of every shard they write, so the cut holds exactly the commits that
// finished that section before the read began — a prefix, in version order,
// of the commits that touch the footprint — and the read serializes right
// after that prefix. Success and failure are therefore both final: there is
// nothing to validate and nothing to retry (a delayed guard's subscription,
// registered before the evaluation, covers every commit past the cut).
func (e *Engine) read(a *Answer) error {
	var (
		err error
		buf [8]dataspace.InterestKey
	)
	eval := func(r dataspace.Reader) { _, err = a.solve(r) }
	e.attempts.Add(1)
	e.m.IncSharedRead()
	keys, planned := e.planKeys(a, buf[:0])
	rung := metrics.RungShared
	switch {
	case !planned:
		e.store.Snapshot(eval)
	case e.store.SnapshotKeysEpoch(keys, eval):
		rung = metrics.RungEpoch
	default:
		e.store.SnapshotKeys(keys, eval)
	}
	if a.ex != nil {
		a.ex.Rung = rung
	}
	switch {
	case err != nil:
	case !a.OK():
		e.failures.Add(1)
	default:
		e.commits.Add(1)
	}
	return err
}

// retractFree reports whether the query is statically retract-free: no
// pattern carries a retract tag, so no solution can imply a deletion.
func retractFree(q pattern.Query) bool {
	for _, p := range q.Patterns {
		if p.Retract {
			return false
		}
	}
	return true
}

// evalAndApply evaluates a's query against the window over w and applies
// its retractions and assertions. It returns errFailed when the query has no
// solution.
func (a *Answer) evalAndApply(w dataspace.Writer) error {
	if a.ex != nil {
		a.ex.Rung = dataspace.CommitRung(w)
	}
	dataspace.SkipWait(w, a.armed)
	found, err := a.solve(w)
	switch {
	case err != nil:
		return err
	case !found:
		return errFailed
	}
	if err := a.Retract(w); err != nil {
		return err
	}
	if err := a.Ground(w); err != nil {
		return err
	}
	a.Insert(w)
	return nil
}

// interest derives the wakeup subscription for a blocked request: one key
// per pattern (positive and negated), with the lead pinned when it is
// determined by the request environment alone, and — for a delta-safe
// request (indexed), whose filter accepts only standalone matches of one of
// its patterns — each key's selector: the field the store files that
// registration under. Keys and selectors are appended to the caller's
// buffers (stack arrays: Subscribe copies what it keeps).
func interest(req Request, indexed bool, keys []dataspace.InterestKey, sels []pattern.FieldSel) ([]dataspace.InterestKey, []pattern.FieldSel) {
	for _, p := range req.Query.Patterns {
		lead, known := p.Lead(req.Env)
		keys = append(keys, dataspace.InterestOf(p.Arity(), lead, known))
		if indexed {
			sels = append(sels, subscriptionSel(p, req.Env))
		}
	}
	return keys, sels
}

// subscriptionSel picks the one (pos, value) a delta-safe pattern's
// subscription is indexed under, among the non-lead fields the request
// environment determines (pattern.FieldSels). An environment-bound variable
// or computed field is preferred over a literal — sibling processes of one
// definition share their literals but differ in their parameters, so the
// parameter is what tells their subscriptions apart. The zero selector
// means none.
func subscriptionSel(p pattern.Pattern, s expr.Scope) pattern.FieldSel {
	var buf [8]pattern.FieldSel
	sels := pattern.FieldSels(p, s, buf[:0])
	for _, s := range sels {
		if p.Fields[s.Pos].Kind != pattern.FieldConst {
			return s
		}
	}
	if len(sels) > 0 {
		return sels[0]
	}
	return pattern.FieldSel{}
}

// deltaSafe reports whether a blocked req's guard may be re-evaluated
// lazily, waking only when a commit asserts a tuple that matches one of
// its patterns standalone. The class is deliberately conservative — every
// exclusion falls back to the sound wake-on-any-covering-commit behavior:
//
//   - Restricted views with impure (configuration-dependent) matchers can
//     change an OLD tuple's window membership on an unrelated commit;
//     universal and pure-matcher (Plannable) views cannot.
//   - Negated patterns let retractions flip the guard from unsatisfiable
//     to satisfiable (a retract-tagged pattern is positive, so cannot);
//     only assertions are delta-checked.
//   - A pattern whose lead is not determined by the request environment,
//     or with an expression field that is not closed under it, cannot be
//     matched standalone against a candidate tuple (Pattern.Match would
//     wrongly reject tuples whose match depends on earlier join bindings).
//
// For the surviving class — positive, lead-known, standalone-
// matchable patterns under a stable window — an unsatisfiable query
// becomes satisfiable only when a NEW tuple matching some pattern is
// asserted, so filtering deltas to standalone pattern matches (ignoring
// guards and the test query: an over-approximation that may overfire but
// never suppresses a needed wakeup) is sound under both quantifiers.
func deltaSafe(req Request) bool {
	if !req.View.Import.All && !req.View.Plannable() {
		return false
	}
	for _, p := range req.Query.Patterns {
		if p.Negated {
			return false
		}
		if p.Arity() > 0 {
			if _, known := p.Lead(req.Env); !known {
				return false
			}
		}
		for _, f := range p.Fields {
			if f.Kind == pattern.FieldExpr {
				if _, err := f.Expr.Eval(req.Env); err != nil {
					return false
				}
			}
		}
	}
	return true
}

// readyWaker wakes a goroutine waiting on the channel: a cap-1 channel, so
// a wake while one is pending is dropped.
type readyWaker chan struct{}

// Wake implements dataspace.Waker.
func (r readyWaker) Wake() {
	select {
	case r <- struct{}{}:
	default:
	}
}

// await runs a's request as a delayed ('⇒') transaction: it blocks until an
// evaluation commits or ctx is cancelled. It is the Go API's blocking loop
// over Attempt, its wait kept in the answer: the subscription, made by the
// answer's first wait and re-armed by every later one, so a wait on a pooled
// answer allocates none; the ready channel it wakes; and the answer itself as
// the filter.
func (e *Engine) await(ctx context.Context, a *Answer) error {
	if a.sub == nil {
		a.sub, a.ready = new(dataspace.Subscription), make(readyWaker, 1)
	}
	select {
	case <-a.ready: // a wake the answer's last wait left: its own commit's delivery
	default:
	}
	for woke := false; ; woke = true {
		if done, err := e.Attempt(a, a.sub, a.ready, a, woke); done {
			return err
		}
		select {
		case <-a.ready:
		case <-ctx.Done():
			return ctx.Err() // Run's Release cancels the subscription
		}
	}
}

// Attempt is one evaluation of a delayed ('⇒') run of a's request, for an
// owner that waits its own way on the wait it passes in: sub, whose
// deliveries wake w, filtered by filter — which must accept what Wakes
// accepts for a's request. A process passes its record's subscription, with
// the record as waker and filter, and takes a fresh answer for each
// evaluation; the Go API's await passes the answer's own. The first call
// (woke false) arms sub and evaluates; each later one, made after sub woke
// its owner, drains it and evaluates again. Attempt reports done when the
// run is over — committed into a, or failed with err — and has then
// cancelled sub; otherwise the request blocked and sub stays armed for the
// next wake. The subscribe-then-evaluate order loses no wakeup.
//
// The blocked guard holds one subscription for the whole wait, re-armed in
// place. Commits put their asserted/retracted tuples through the
// publisher-side filter, irrelevant commits are suppressed before any
// wakeup, and the commits that land before the owner drains batch into a
// single re-evaluation. A guard that is not delta-safe arms with a nil
// filter and re-queries on every covering commit. A re-evaluation after a
// wakeup that blocks again is counted wasted. The evaluation's own commit
// skips sub, which is cancelled right after it (dataspace.SkipWait).
func (e *Engine) Attempt(a *Answer, sub *dataspace.Subscription, w dataspace.Waker, filter dataspace.DeltaFilter, woke bool) (done bool, err error) {
	if woke {
		e.wakeups.Add(1)
		e.sc.Yield(sched.PointTxnWakeup)
		// An unfiltered subscription's deliveries are always full, so deltas
		// without the full flag mean the filter took them.
		deltas, full := sub.Drain()
		e.m.IncReactiveEval()
		if !full && len(deltas) > 0 {
			e.m.IncReactiveHit()
		} else {
			e.m.IncReactiveFallback()
		}
	} else {
		if !deltaSafe(a.req) {
			filter = nil
		}
		var keyBuf [8]dataspace.InterestKey
		var selBuf [8]pattern.FieldSel
		keys, sels := interest(a.req, filter != nil, keyBuf[:0], selBuf[:0])
		e.store.Arm(sub, w, keys, filter, sels...)
	}
	a.armed = sub
	err = e.Exec(a, metrics.TxnDelayed)
	if a.armed = nil; err != nil || a.OK() {
		sub.Cancel()
		return true, err
	}
	if woke {
		e.m.IncReactiveWasted()
	}
	e.m.IncTxnBlock(metrics.TxnDelayed)
	return false, nil
}
