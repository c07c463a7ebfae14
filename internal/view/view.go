// Package view implements SDL's programmer-defined process views: the
// abstraction mechanism that replaces the dataspace with a window
//
//	W  = Import(p) ∩ D
//	D' = (D − W_r) ∪ (Export(p) ∩ W_a)
//
// A view has an import clause (the tuples the process may query and
// retract) and an export clause (the tuples it may assert). Clauses are
// sets of matchers: pattern matchers (tuples with constants, wildcards and
// process-parameter variables, optionally guarded by a predicate — the
// paper's `α: α ≤ 87 :: <year, α>` form) and dynamic matchers, arbitrary
// predicates that may consult the current dataspace configuration (used by
// the region-labeling Label process, whose import set depends on the
// threshold tuples currently present).
//
// Beyond abstraction, views bound the scope of transactions: when every
// import matcher for a given arity pins the leading field, window scans
// touch only those index buckets instead of the whole dataspace. That is
// the paper's pragmatic claim ("the view also provides bounds on the scope
// of the transactions which, in turn, reduce the transaction execution
// time"), reproduced by experiment E5.
package view

import (
	"slices"
	"sync"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Matcher decides whether a clause admits a tuple, and exposes the index
// restriction it implies so windows can scan narrowly.
//
// Contract for bounded matchers: when Restriction reports bounded leads
// for every arity the matcher covers, the matcher's Admits decision may
// depend only on tuples whose leading field is one of those leads (its
// own candidates, and — for dataspace-dependent matchers — any tuples it
// consults through the reader). The consensus gate relies on this to
// invalidate cached imports by index bucket.
type Matcher interface {
	// Admits reports whether the tuple belongs to the clause under s: the
	// process environment (parameters and let-constants) for an import, and
	// for an export the solution the asserted tuple was grounded under. r
	// provides the current configuration for dynamic matchers; it is never
	// nil during transaction evaluation.
	Admits(r dataspace.Reader, s expr.Scope, t tuple.Tuple) bool
	// Restriction appends to leads the matcher's scan restriction for tuples
	// of the given arity under s, the process environment: the concrete
	// leading values it can admit. It reports applies=false when it admits
	// no tuple of this arity, bounded=true when admitted tuples must carry
	// one of the leading values it appended, and bounded=false, appending
	// nothing, when unbounded.
	Restriction(s expr.Scope, arity int, leads []tuple.Value) (_ []tuple.Value, applies, bounded bool)
	// Arities reports the arity of the tuples the matcher can admit, or
	// anyArity=true when it can admit any (the arity is then ignored).
	Arities() (arity int, anyArity bool)
}

// PureMatcher marks matchers whose Admits decision depends only on the
// candidate tuple and the environment — never on the dataspace reader.
// Purity is what makes a restricted view plannable: window scans with
// statically planned leads touch only the planned buckets, and the
// admit/export filters cannot reach outside them. The marker method is
// unexported on purpose: purity is audited in this package, not asserted
// by callers.
type PureMatcher interface {
	Matcher
	pureMatcher()
}

// PatternMatcher admits tuples matching a pattern under an optional
// predicate over the pattern's variables and the process environment.
type PatternMatcher struct {
	Pattern pattern.Pattern
	Where   expr.Expr
}

// pureMatcher marks PatternMatcher pure: Admits ignores the reader.
func (PatternMatcher) pureMatcher() {}

// Pat builds a pattern matcher.
func Pat(p pattern.Pattern) PatternMatcher { return PatternMatcher{Pattern: p} }

// PatWhere builds a guarded pattern matcher.
func PatWhere(p pattern.Pattern, where expr.Expr) PatternMatcher {
	return PatternMatcher{Pattern: p, Where: where}
}

// Admits implements Matcher.
func (m PatternMatcher) Admits(_ dataspace.Reader, s expr.Scope, t tuple.Tuple) bool {
	return m.Pattern.Match(t, s, m.Where)
}

// Restriction implements Matcher.
func (m PatternMatcher) Restriction(s expr.Scope, arity int, leads []tuple.Value) ([]tuple.Value, bool, bool) {
	if m.Pattern.Arity() != arity {
		return leads, false, true
	}
	lead, known := m.Pattern.Lead(s)
	if !known {
		return leads, true, false
	}
	return append(leads, lead), true, true
}

// Arities implements Matcher.
func (m PatternMatcher) Arities() (int, bool) { return m.Pattern.Arity(), false }

// DynamicMatcher admits tuples via an arbitrary predicate with access to
// the current dataspace configuration. Arity restricts the matcher to
// tuples of one arity; zero means any arity. Dynamic matchers are
// unbounded: windows fall back to arity scans for them.
type DynamicMatcher struct {
	Arity int
	Fn    func(r dataspace.Reader, env expr.Env, t tuple.Tuple) bool
}

// Dyn builds a dynamic matcher for a fixed arity (0 = any).
func Dyn(arity int, fn func(r dataspace.Reader, env expr.Env, t tuple.Tuple) bool) DynamicMatcher {
	return DynamicMatcher{Arity: arity, Fn: fn}
}

// Admits implements Matcher. Fn sees s as an environment (expr.EnvOf): an
// Env as it is, and any other scope — a process's record, a solution row
// of an export check — as a map of its bindings, built for the call.
func (m DynamicMatcher) Admits(r dataspace.Reader, s expr.Scope, t tuple.Tuple) bool {
	if m.Arity != 0 && t.Arity() != m.Arity {
		return false
	}
	return m.Fn(r, expr.EnvOf(s), t)
}

// Restriction implements Matcher.
func (m DynamicMatcher) Restriction(_ expr.Scope, arity int, leads []tuple.Value) ([]tuple.Value, bool, bool) {
	return leads, m.Arity == 0 || m.Arity == arity, false
}

// Arities implements Matcher.
func (m DynamicMatcher) Arities() (int, bool) { return m.Arity, m.Arity == 0 }

// Clause is one side of a view (import or export): a union of matchers, or
// the universal clause admitting everything.
type Clause struct {
	All      bool
	Matchers []Matcher
}

// Everything is the universal clause.
func Everything() Clause { return Clause{All: true} }

// Union builds a clause from matchers.
func Union(ms ...Matcher) Clause { return Clause{Matchers: ms} }

// Admits reports whether the clause admits t under s.
func (c Clause) Admits(r dataspace.Reader, s expr.Scope, t tuple.Tuple) bool {
	if c.All {
		return true
	}
	for _, m := range c.Matchers {
		if m.Admits(r, s, t) {
			return true
		}
	}
	return false
}

// Same reports whether c and o are the same clause value — both universal,
// or sharing one matcher list — as when a process issues transactions under
// the view it was registered with. It is an identity test, not an
// equivalence: clauses built separately from equal matchers are not Same.
func (c Clause) Same(o Clause) bool {
	if c.All || o.All {
		return c.All && o.All
	}
	if len(c.Matchers) != len(o.Matchers) {
		return false
	}
	return len(c.Matchers) == 0 || &c.Matchers[0] == &o.Matchers[0]
}

// Pure reports whether every matcher of the clause is a PureMatcher (the
// universal clause is trivially pure). A pure clause's admit decisions
// never consult the dataspace, so they hold identically under any reader.
func (c Clause) Pure() bool {
	if c.All {
		return true
	}
	for _, m := range c.Matchers {
		if _, ok := m.(PureMatcher); !ok {
			return false
		}
	}
	return true
}

// restriction aggregates the matchers' restrictions for one arity, appending
// the leads to the caller's buffer: admitsAny=false means no matcher covers
// the arity at all; bounded=true means all covering matchers pin the lead,
// with leads the (deduplicated) union. With a buffer the caller reuses, a
// clause of pattern matchers restricts without allocating.
func (c Clause) restriction(s expr.Scope, arity int, leads []tuple.Value) (_ []tuple.Value, admitsAny, bounded bool) {
	if c.All {
		return leads, true, false
	}
	bounded = true
	for _, m := range c.Matchers {
		n := len(leads)
		var applies, b bool
		if leads, applies, b = m.Restriction(s, arity, leads); !applies {
			continue
		}
		admitsAny = true
		if !b {
			bounded = false
			continue
		}
		leads = dedupe(leads, n)
	}
	if !admitsAny {
		return leads, false, true
	}
	return leads, true, bounded
}

// dedupe drops each of leads[from:] that Equals a lead before it.
func dedupe(leads []tuple.Value, from int) []tuple.Value {
	out := leads[:from]
next:
	for _, l := range leads[from:] {
		for _, have := range out {
			if have.Equal(l) {
				continue next
			}
		}
		out = append(out, l)
	}
	clear(leads[len(out):])
	return out
}

// leadBufs lends eachBucket the buffer its matchers append their leads to:
// a buffer handed to an interface method escapes, so a stack array would be
// allocated on every walk.
var leadBufs = sync.Pool{New: func() any { return new([]tuple.Value) }}

// eachBucket calls fn with the canonical bucket of every lead the clause
// pins under s — one call per matcher and lead, duplicates included — and
// reports whether the clause is bounded: false for the universal clause, an
// any-arity matcher or a lead s leaves open. A false from fn ends the walk
// and is reported as false too. Over a clause of pattern matchers the walk
// allocates nothing.
func (c Clause) eachBucket(s expr.Scope, fn func(BucketKey) bool) bool {
	if c.All {
		return false
	}
	buf := leadBufs.Get().(*[]tuple.Value)
	defer putLeads(buf)
	for _, m := range c.Matchers {
		a, anyArity := m.Arities()
		if anyArity {
			return false
		}
		leads, applies, bounded := m.Restriction(s, a, (*buf)[:0])
		*buf = leads
		if !applies {
			continue
		}
		if !bounded {
			return false
		}
		for _, l := range leads {
			if !fn(CanonBucket(a, l)) {
				return false
			}
		}
	}
	return true
}

// putLeads empties a buffer eachBucket borrowed and returns it to the pool.
func putLeads(buf *[]tuple.Value) {
	clear(*buf)
	*buf = (*buf)[:0]
	leadBufs.Put(buf)
}

// View pairs the import and export clauses of a process.
type View struct {
	Import Clause
	Export Clause
}

// Universal is the unrestricted view: the window is the whole dataspace.
// The paper omits view specifications in this case.
func Universal() View {
	return View{Import: Everything(), Export: Everything()}
}

// New builds a view from explicit clauses.
func New(imp, exp Clause) View { return View{Import: imp, Export: exp} }

// Plannable reports whether transactions under this view may be footprint-
// planned despite the restriction: both clauses are pure, so evaluating
// the transaction under locks covering only its own pattern and assertion
// buckets is sound — the import filter and the export check read nothing
// outside those buckets. Views with dynamic matchers (whose admit sets
// depend on the current configuration) are never plannable.
func (v View) Plannable() bool {
	return v.Import.Pure() && v.Export.Pure()
}

// Exports reports whether the process may assert t (the Export(p) ∩ W_a
// filter) under s, the solution t was grounded under.
func (v View) Exports(r dataspace.Reader, s expr.Scope, t tuple.Tuple) bool {
	return v.Export.Admits(r, s, t)
}

// Window returns the pattern.Source presenting Import(p) ∩ D over the given
// reader. The scope s carries the process parameters referenced by the
// view's patterns.
func (v View) Window(r dataspace.Reader, s expr.Scope) *Window {
	w := new(Window)
	w.Reset(v, r, s)
	return w
}

// Window is the transaction-time projection of the dataspace through a
// view's import clause. It implements pattern.Source. A window is reusable —
// Reset points it at another view, reader or environment and keeps its scan
// state — and supports the nested scans of one goroutine's join, not scans
// from several goroutines at once.
type Window struct {
	r   dataspace.Reader
	v   View
	env expr.Scope

	// scans holds one entry per restricted scan in progress, the innermost
	// last. The reader only ever calls back the innermost scan — an outer
	// one resumes after the scans nested in it have ended — so one import
	// filter, admit, built on the window's first restricted scan, serves
	// every scan. The first scans' states live in the window itself.
	scans  []scanState
	admit  func(tuple.ID, tuple.Tuple) bool
	inline [2]scanState
}

// scanState is one restricted scan in progress: its consumer, whether the
// consumer stopped — a scan over several lead buckets ends with the first
// stop — and the buffer its restriction's leads go to.
type scanState struct {
	fn      func(tuple.ID, tuple.Tuple) bool
	stopped bool
	leads   []tuple.Value
}

// Reset points the window at Import(p) ∩ D for view v over r under s.
// Reset(View{}, nil, nil) drops every reference, as a pooled owner does.
func (w *Window) Reset(v View, r dataspace.Reader, s expr.Scope) {
	w.v, w.r, w.env = v, r, s
}

// filter is the import filter: it forwards the tuples the import clause
// admits to the innermost scan's consumer.
func (w *Window) filter(id tuple.ID, t tuple.Tuple) bool {
	if !w.v.Import.Admits(w.r, w.env, t) {
		return true
	}
	// The consumer may run nested scans, which can move w.scans: index it
	// again afterwards.
	top := len(w.scans) - 1
	stop := !w.scans[top].fn(id, t)
	w.scans[top].stopped = stop
	return !stop
}

// push starts a scan delivering to fn and returns its index in scans; pop
// ends the innermost scan. A depth reached before keeps its leads buffer.
func (w *Window) push(fn func(tuple.ID, tuple.Tuple) bool) int {
	if w.admit == nil {
		w.admit, w.scans = w.filter, w.inline[:0]
	}
	if n := len(w.scans); n < cap(w.scans) {
		w.scans = w.scans[:n+1]
	} else {
		w.scans = append(w.scans, scanState{})
	}
	top := len(w.scans) - 1
	w.scans[top].fn, w.scans[top].stopped = fn, false
	return top
}

func (w *Window) pop() {
	s := &w.scans[len(w.scans)-1]
	clear(s.leads)
	s.fn, s.leads = nil, s.leads[:0]
	w.scans = w.scans[:len(w.scans)-1]
}

// Scan implements pattern.Source, filtering by the import clause and using
// the clause's lead restrictions to avoid full-arity scans when possible.
func (w *Window) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	imp := w.v.Import
	if imp.All {
		w.r.Scan(arity, lead, leadKnown, fn)
		return
	}
	top := w.push(fn)
	defer w.pop()
	if leadKnown {
		w.r.Scan(arity, lead, true, w.admit)
		return
	}
	leads, admitsAny, bounded := imp.restriction(w.env, arity, w.scans[top].leads)
	w.scans[top].leads = leads
	switch {
	case !admitsAny:
		return // the view imports nothing of this arity
	case bounded:
		// fn's stop ends the whole scan, not only the current lead's bucket:
		// a negated pattern stops at its first violation, and a later bucket
		// must not overwrite that verdict.
		for _, l := range leads {
			if w.r.Scan(arity, l, true, w.admit); w.scans[top].stopped {
				return
			}
		}
	default:
		w.r.Scan(arity, tuple.Value{}, false, w.admit)
	}
}

// ScanFields implements pattern.FieldSource, forwarding the secondary
// field-index access path through the import filter. With a lead selector
// the underlying reader chooses between the lead bucket and a promoted
// field bucket. Without one, a bounded restriction already narrows the scan
// to concrete lead buckets — cheaper than any field index — so only the
// unbounded cases forward to the underlying reader's ScanFields. Readers
// without field indexes fall back to what Scan performs.
func (w *Window) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	imp := w.v.Import
	fs, indexed := w.r.(pattern.FieldSource)
	lead, leadKnown := pattern.LeadSel(sels)
	if !indexed {
		w.Scan(arity, lead, leadKnown, fn)
		return
	}
	if imp.All {
		fs.ScanFields(arity, sels, fn)
		return
	}
	top := w.push(fn)
	defer w.pop()
	if !leadKnown {
		leads, admitsAny, bounded := imp.restriction(w.env, arity, w.scans[top].leads)
		if w.scans[top].leads = leads; !admitsAny || bounded {
			w.Scan(arity, lead, false, fn)
			return
		}
	}
	fs.ScanFields(arity, sels, w.admit)
}

// LeadWide implements pattern.FieldSource by asking the underlying reader.
func (w *Window) LeadWide(arity int, lead tuple.Value) bool {
	fs, ok := w.r.(pattern.FieldSource)
	return ok && fs.LeadWide(arity, lead)
}

// JoinEstimator implements pattern.EstimatorProvider, exposing the
// underlying reader's cardinalities to the join planner. For restricted
// views the estimates ignore the import filter — a uniform overestimate
// that still orders patterns usefully.
func (w *Window) JoinEstimator() pattern.Estimator {
	if p, ok := w.r.(pattern.EstimatorProvider); ok {
		return p.JoinEstimator()
	}
	if e, ok := w.r.(pattern.Estimator); ok {
		return e
	}
	return nil
}

// Get exposes the underlying reader's Get so callers holding a window can
// re-inspect matched instances.
func (w *Window) Get(id tuple.ID) (dataspace.Instance, bool) { return w.r.Get(id) }

// Admits reports whether the window contains the tuple (import check for a
// specific instance; used by retraction validation).
func (w *Window) Admits(t tuple.Tuple) bool {
	return w.v.Import.Admits(w.r, w.env, t)
}

// Reader returns the underlying dataspace reader.
func (w *Window) Reader() dataspace.Reader { return w.r }

// Materialize returns the IDs of every tuple in Import(p) ∩ D. Consensus-set
// computation uses this to evaluate the import-overlap relation
// `p needs q ≡ Import(p) ∩ Import(q) ∩ D ≠ ∅`.
//
// It goes through the window's bucket-aware Scan, so a view whose matchers
// pin their leading fields materializes in time proportional to its own
// import, not to |D| — the property that keeps consensus detection cheap
// for community-model programs.
func Materialize(v View, r dataspace.Reader, s expr.Scope) map[tuple.ID]struct{} {
	out := make(map[tuple.ID]struct{})
	w := v.Window(r, s)
	for _, arity := range r.Arities() {
		w.Scan(arity, tuple.Value{}, false, func(id tuple.ID, _ tuple.Tuple) bool {
			out[id] = struct{}{}
			return true
		})
	}
	return out
}

// BucketKey identifies one index bucket: an arity plus the canonical form
// of a leading value. Keys from ImportShape and from commit records compare
// with ==.
type BucketKey struct {
	Arity int
	Lead  tuple.Value
}

// CanonBucket canonicalizes a bucket key so that leads that are Equal
// (Int(2) vs Float(2.0)) produce identical keys.
func CanonBucket(arity int, lead tuple.Value) BucketKey {
	if n, ok := lead.Numeric(); ok {
		return BucketKey{Arity: arity, Lead: tuple.Float(n)}
	}
	return BucketKey{Arity: arity, Lead: lead}
}

// ImportShape is the static shape of a view's import clause under a process
// scope — what the consensus gate can know about Import(p) ∩ D
// without reading D.
type ImportShape struct {
	// Universal: the import is the whole dataspace.
	Universal bool
	// Bounded: every matcher pins its leading field, so the import lies
	// inside the buckets Keys (including currently empty ones) and — by the
	// bounded-matcher contract — depends on nothing outside them. An
	// unbounded import (universal clause, lead-free pattern, any-arity
	// dynamic matcher) can be changed by any commit.
	Bounded bool
	// Complete: Bounded, and every matcher admits its whole bucket (a
	// pattern such as <a, *, *, *> with no predicate), so Import(p) ∩ D is
	// exactly the union of the Keys buckets and two complete imports
	// overlap iff they share a nonempty bucket.
	Complete bool
	// Keys are the canonical buckets of a Bounded import, deduplicated.
	Keys []BucketKey
}

// ImportShape classifies the view's import clause under s.
func (v View) ImportShape(s expr.Scope) ImportShape {
	imp := v.Import
	if imp.All {
		return ImportShape{Universal: true}
	}
	sh := ImportShape{Bounded: true, Complete: true}
	for _, m := range imp.Matchers {
		if pm, ok := m.(PatternMatcher); !ok || pm.Where != nil || !wildcardTail(pm.Pattern) {
			sh.Complete = false
		}
	}
	n := 0 // the walk's calls: Keys is sized once, duplicates included
	if !imp.eachBucket(s, func(BucketKey) bool { n++; return true }) {
		return ImportShape{}
	}
	sh.Keys = make([]BucketKey, 0, n)
	imp.eachBucket(s, func(k BucketKey) bool {
		if !slices.Contains(sh.Keys, k) {
			sh.Keys = append(sh.Keys, k)
		}
		return true
	})
	return sh
}

// ImportWithin reports whether the import clause, under s, is bounded to
// buckets among keys: ImportShape(s) is Bounded and every one of its Keys
// is in keys. It builds no shape, so for a clause of pattern matchers it
// allocates nothing.
func (v View) ImportWithin(s expr.Scope, keys []BucketKey) bool {
	return v.Import.eachBucket(s, func(k BucketKey) bool { return slices.Contains(keys, k) })
}

// wildcardTail reports whether every non-lead field of p is a wildcard and p
// carries no guard: with its lead pinned, p admits its whole bucket.
func wildcardTail(p pattern.Pattern) bool {
	if p.Guard != nil {
		return false
	}
	for i := 1; i < len(p.Fields); i++ {
		if p.Fields[i].Kind != pattern.FieldWildcard {
			return false
		}
	}
	return true
}

// Compile-time interface checks.
var (
	_ Matcher                   = PatternMatcher{}
	_ Matcher                   = DynamicMatcher{}
	_ pattern.FieldSource       = (*Window)(nil)
	_ pattern.EstimatorProvider = (*Window)(nil)
)
