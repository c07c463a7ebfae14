package txn

import (
	"slices"
	"sync"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// Answer is a transaction's outcome as the engine produces it: its solutions
// as the rows of one pooled pattern.Table, and its effects. It is the only
// form an evaluation produces. The process runtime reads rows directly; the
// map-shaped Result that Immediate, Delayed and consensus offers return is
// built from an answer at that public edge (Result).
//
// Lifetime: answers are pooled, and an answer lives for one evaluation and
// what its caller reads of it. Whoever Engine.Run or NewAnswer hands one to
// reads it — OK, Rows, Scope, the effects — and then calls Release, after
// which none of it may be used: the next transaction reuses the memory. What
// must outlive the answer is copied out first, as Result does. A process
// that parks on a delayed statement gives its answer back first: its wait is
// its record's (see Engine.Attempt). Only a Go-API delayed run (Run's await)
// keeps one answer, and its wait in it, until the run is over.
type Answer struct {
	// Retracted and Asserted list the tuple instances removed/added, in
	// application order.
	Retracted []dataspace.Instance
	Asserted  []dataspace.Instance

	req    Request
	first  bool // one solution sought: the ∃ form, or a consensus participant
	rows   pattern.Table
	win    view.Window             // the restricted import's window, reused by every evaluation
	ground []tuple.Tuple           // the assertions to insert, see Ground
	vals   *pattern.Block          // their fields' block, see CutFrom; nil: one heap block per tuple
	seen   map[tuple.ID]struct{}   // retractions already applied, when several rows may share one
	sub    *dataspace.Subscription // a Go-API delayed run's wait (await): made by the answer's first, re-armed by every later one
	ready  readyWaker              // that wait's waker, made with sub and kept across uses

	// The execution's explain record: ex is &explain while the engine
	// records one (the registry is observed), nil otherwise.
	explain metrics.Explain
	ex      *metrics.Explain
}

var answers = sync.Pool{New: func() any { return new(Answer) }}

// NewAnswer returns an empty answer for req from the pool.
func NewAnswer(req Request) *Answer {
	a := answers.Get().(*Answer)
	a.req = req
	return a
}

// maxPooledEffects bounds the effects an answer keeps across uses: past it,
// Release drops the arrays (or the dedup map) rather than pin them in the
// pool, as the rows' table and the commit journal do.
const maxPooledEffects = 256

// Release returns the answer to the pool, emptied so the pool pins nothing.
// A Go-API delayed run abandoned before it was done (its context cancelled)
// has its subscription cancelled here.
func (a *Answer) Release() {
	if a.sub != nil {
		a.sub.Cancel()
	}
	big := cap(a.Retracted)+cap(a.Asserted)+cap(a.ground) > maxPooledEffects
	bigSeen := len(a.seen) > maxPooledEffects
	a.reset()
	if big {
		a.Retracted, a.Asserted, a.ground = nil, nil, nil
	}
	if bigSeen {
		a.seen = nil
	}
	a.rows.Reset()
	a.win.Reset(view.View{}, nil, nil)
	a.req, a.first, a.ex, a.vals = Request{}, false, nil, nil
	answers.Put(a)
}

// reset empties the effects before an evaluation: a delayed transaction
// re-evaluates into the same answer after every failed attempt.
func (a *Answer) reset() {
	clear(a.Retracted)
	clear(a.Asserted)
	clear(a.ground)
	clear(a.seen)
	a.Retracted, a.Asserted, a.ground = a.Retracted[:0], a.Asserted[:0], a.ground[:0]
}

// CutFrom makes Ground cut the fields of the tuples it grounds from b, and
// returns a. b is the committer's (pattern.Block): a process record's, or a
// consensus fire's, used only by the goroutine running the answer until
// Release. An answer without one — a Go-API request's — gives each tuple a
// heap block of its own.
func (a *Answer) CutFrom(b *pattern.Block) *Answer {
	a.vals = b
	return a
}

// OK reports whether the evaluation succeeded: the query has a solution.
func (a *Answer) OK() bool { return len(a.rows.Rows()) > 0 }

// Rows returns the solutions: the one of an ∃ query, every one of a ∀ query,
// none when the query failed. Each is an expr.Scope over the request
// environment and the solution's bindings.
func (a *Answer) Rows() []pattern.Row { return a.rows.Rows() }

// Scope is Result.Env as a scope: the solution when one was sought (∃), the
// request environment otherwise (∀, or a failed query).
func (a *Answer) Scope() expr.Scope {
	if rows := a.rows.Rows(); a.first && len(rows) > 0 {
		return &rows[0]
	}
	return a.req.Env
}

// AcceptDelta is the delta filter of a Go-API delayed run (await): the
// answer's request's (Wakes). The store calls it only while the answer's
// subscription is armed, so it never sees the request of the answer's next
// use.
func (a *Answer) AcceptDelta(d dataspace.Delta) bool { return Wakes(d, a.req.Query, a.req.Env) }

// Wakes is the delta filter of a blocked delayed request with query q under
// env (see Engine.Attempt and deltaSafe), whoever owns its wait: it accepts
// exactly the asserted tuples that match one of q's patterns standalone
// under env.
func Wakes(d dataspace.Delta, q pattern.Query, env expr.Scope) bool {
	if !d.Asserted {
		return false
	}
	for _, p := range q.Patterns {
		if p.Match(d.Inst.Tuple, env, nil) {
			return true
		}
	}
	return false
}

// Window returns the window through which a's request sees r: the answer's
// own, pointed at the request's view, so an evaluation boxes nothing.
func (a *Answer) Window(r dataspace.Reader) *view.Window {
	a.win.Reset(a.req.View, r, a.req.Env)
	return &a.win
}

// Solve evaluates the request's query over src — its window (Window), or a
// source wrapping that window — into a's rows, replacing what a held: only
// the first solution when first is set, every one otherwise. It reports
// whether there is a solution.
func (a *Answer) Solve(src pattern.Source, first bool) (bool, error) {
	a.reset()
	a.first = first
	err := a.rows.Collect(a.req.Query, src, a.req.Env, first, a.ex)
	return a.OK(), err
}

// CopyRows gives a the solutions of from, an answer to the same query, in
// place of evaluating a's own: from's rows over a's environment. It is
// Solve's result when a's environment binds every variable the query reads
// as from's does and nothing the query reads has changed since from was
// solved; the caller ensures both. It reports whether there is a solution.
func (a *Answer) CopyRows(from *Answer) bool {
	a.reset()
	a.first = from.first
	a.rows.Rebase(&from.rows, a.req.Env)
	return a.OK()
}

// solve is the engine's evaluation over r: the universal import's window is
// the reader itself; ∃ seeks one solution, ∀ every one.
func (a *Answer) solve(r dataspace.Reader) (bool, error) {
	var src pattern.Source = r
	if !a.req.View.Import.All {
		src = a.Window(r)
	}
	return a.Solve(src, a.req.Query.Quant == pattern.Exists)
}

// Retract deletes the instances a's rows matched for retraction — each once:
// the solutions of a ∀ may share one — and records them in Retracted.
func (a *Answer) Retract(w dataspace.Writer) error {
	rows := a.rows.Rows()
	for i := range rows {
		for _, m := range rows[i].Matched() {
			// One solution's retract-tagged matches are pairwise distinct by
			// construction; an instance can recur only across solutions.
			if len(rows) > 1 {
				if a.seen == nil {
					a.seen = make(map[tuple.ID]struct{})
				}
				if _, dup := a.seen[m.ID]; dup {
					continue
				}
				a.seen[m.ID] = struct{}{}
			}
			inst, ok := w.Get(m.ID)
			if !ok {
				// The instance vanished between evaluation and application;
				// cannot happen under the write lock.
				return dataspace.ErrNoSuchTuple
			}
			if err := w.Delete(m.ID); err != nil {
				return err
			}
			a.Retracted = append(a.Retracted, inst)
		}
	}
	return nil
}

// Ground grounds the request's assertions under every row — their fields
// cut from the answer's block, if it has one (CutFrom) — and keeps, for
// Insert, those the export clause admits under the same row: D' takes
// Export(p) ∩ W_a, so the others are dropped, or fail the transaction with
// ErrExportViolation under ExportError. r is the configuration dynamic
// export matchers consult.
func (a *Answer) Ground(r dataspace.Reader) error {
	rows := a.rows.Rows()
	a.ground = slices.Grow(a.ground, len(rows)*len(a.req.Asserts))
	if a.vals != nil {
		a.vals.Open(len(rows) * pattern.GroundWidth(a.req.Asserts))
	}
	for i := range rows {
		row := &rows[i]
		for _, ap := range a.req.Asserts {
			t, err := ap.GroundIn(row, a.vals)
			if err != nil {
				return err
			}
			if !a.req.View.Exports(r, row, t) {
				if a.req.Export == ExportError {
					return ErrExportViolation
				}
				continue
			}
			a.ground = append(a.ground, t)
		}
	}
	return nil
}

// Insert asserts the tuples Ground kept, owned by the issuing process, and
// records them in Asserted.
func (a *Answer) Insert(w dataspace.Writer) {
	a.Asserted = slices.Grow(a.Asserted, len(a.ground))
	for _, t := range a.ground {
		id := w.Insert(t, a.req.Proc)
		a.Asserted = append(a.Asserted, dataspace.Instance{ID: id, Tuple: t, Owner: a.req.Proc})
	}
}

// Result builds the public, map-shaped form of the answer — the one place a
// Result is built. Each solution becomes an environment of its own (a map),
// Solutions is one slice, and when one solution was sought Env is the same
// map as Solutions[0]; otherwise Env is the request environment as a map
// (expr.EnvOf). The effects are copied into one array, Retracted and
// Asserted capped so that an append to one cannot run into the other. A
// failed answer is Result{Env: expr.EnvOf(req.Env)}.
func (a *Answer) Result() Result {
	if !a.OK() {
		return Result{Env: expr.EnvOf(a.req.Env)}
	}
	res := Result{OK: true}
	rows := a.rows.Rows()
	res.Solutions = make([]expr.Env, len(rows))
	for i := range rows {
		res.Solutions[i] = rows[i].Env()
	}
	if a.first {
		res.Env = res.Solutions[0]
	} else {
		res.Env = expr.EnvOf(a.req.Env)
	}
	nr, na := len(a.Retracted), len(a.Asserted)
	if nr+na > 0 {
		effects := make([]dataspace.Instance, nr+na)
		copy(effects, a.Retracted)
		copy(effects[nr:], a.Asserted)
		if nr > 0 {
			res.Retracted = effects[:nr:nr]
		}
		if na > 0 {
			res.Asserted = effects[nr:]
		}
	}
	return res
}
