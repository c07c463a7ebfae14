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
// consults through the reader). The consensus detector relies on this to
// invalidate cached imports by index bucket.
type Matcher interface {
	// Admits reports whether the tuple belongs to the clause under the
	// process environment (parameters and let-constants). r provides the
	// current configuration for dynamic matchers; it is never nil during
	// transaction evaluation.
	Admits(r dataspace.Reader, env expr.Env, t tuple.Tuple) bool
	// Restriction returns the matcher's scan restriction for tuples of the
	// given arity: the concrete leading values it can admit. It reports
	// (nil, false, true) when it admits no tuple of this arity,
	// (keys, true, true) when admitted tuples must carry one of the given
	// leading values, and (nil, _, false) when unbounded.
	Restriction(env expr.Env, arity int) (leads []tuple.Value, applies bool, bounded bool)
	// Arities returns the tuple arities the matcher can admit; all=true
	// means any arity (and the list is ignored).
	Arities() (list []int, all bool)
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
func (m PatternMatcher) Admits(_ dataspace.Reader, env expr.Env, t tuple.Tuple) bool {
	return m.Pattern.Match(t, env, m.Where)
}

// Restriction implements Matcher.
func (m PatternMatcher) Restriction(env expr.Env, arity int) ([]tuple.Value, bool, bool) {
	if m.Pattern.Arity() != arity {
		return nil, false, true
	}
	lead, known := m.Pattern.Lead(env)
	if !known {
		return nil, true, false
	}
	return []tuple.Value{lead}, true, true
}

// Arities implements Matcher.
func (m PatternMatcher) Arities() ([]int, bool) {
	return []int{m.Pattern.Arity()}, false
}

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

// Admits implements Matcher.
func (m DynamicMatcher) Admits(r dataspace.Reader, env expr.Env, t tuple.Tuple) bool {
	if m.Arity != 0 && t.Arity() != m.Arity {
		return false
	}
	return m.Fn(r, env, t)
}

// Restriction implements Matcher.
func (m DynamicMatcher) Restriction(_ expr.Env, arity int) ([]tuple.Value, bool, bool) {
	if m.Arity != 0 && m.Arity != arity {
		return nil, false, true
	}
	return nil, true, false
}

// Arities implements Matcher.
func (m DynamicMatcher) Arities() ([]int, bool) {
	if m.Arity == 0 {
		return nil, true
	}
	return []int{m.Arity}, false
}

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

// Admits reports whether the clause admits t.
func (c Clause) Admits(r dataspace.Reader, env expr.Env, t tuple.Tuple) bool {
	if c.All {
		return true
	}
	for _, m := range c.Matchers {
		if m.Admits(r, env, t) {
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

// restriction aggregates the matchers' restrictions for one arity:
// admitsAny=false means no matcher covers the arity at all; bounded=true
// means all covering matchers pin the lead, with leads the (deduplicated)
// union.
func (c Clause) restriction(env expr.Env, arity int) (leads []tuple.Value, admitsAny, bounded bool) {
	if c.All {
		return nil, true, false
	}
	bounded = true
	for _, m := range c.Matchers {
		ls, applies, b := m.Restriction(env, arity)
		if !applies {
			continue
		}
		admitsAny = true
		if !b {
			bounded = false
			continue
		}
		for _, l := range ls {
			dup := false
			for _, have := range leads {
				if have.Equal(l) {
					dup = true
					break
				}
			}
			if !dup {
				leads = append(leads, l)
			}
		}
	}
	if !admitsAny {
		return nil, false, true
	}
	return leads, true, bounded
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
// filter).
func (v View) Exports(r dataspace.Reader, env expr.Env, t tuple.Tuple) bool {
	return v.Export.Admits(r, env, t)
}

// Window returns the pattern.Source presenting Import(p) ∩ D over the given
// reader. The environment carries the process parameters referenced by the
// view's patterns.
func (v View) Window(r dataspace.Reader, env expr.Env) Window {
	return Window{r: r, v: v, env: env}
}

// Window is the transaction-time projection of the dataspace through a
// view's import clause. It implements pattern.Source.
type Window struct {
	r   dataspace.Reader
	v   View
	env expr.Env
}

// Scan implements pattern.Source, filtering by the import clause and using
// the clause's lead restrictions to avoid full-arity scans when possible.
func (w Window) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	imp := w.v.Import
	if imp.All {
		w.r.Scan(arity, lead, leadKnown, fn)
		return
	}
	filtered := func(id tuple.ID, t tuple.Tuple) bool {
		if !imp.Admits(w.r, w.env, t) {
			return true
		}
		return fn(id, t)
	}
	if leadKnown {
		w.r.Scan(arity, lead, true, filtered)
		return
	}
	leads, admitsAny, bounded := imp.restriction(w.env, arity)
	switch {
	case !admitsAny:
		return // the view imports nothing of this arity
	case bounded:
		// fn's stop ends the whole scan, not only the current lead's bucket:
		// a negated pattern stops at its first violation, and a later bucket
		// must not overwrite that verdict.
		stopped := false
		each := func(id tuple.ID, t tuple.Tuple) bool {
			stopped = !filtered(id, t)
			return !stopped
		}
		for _, l := range leads {
			if w.r.Scan(arity, l, true, each); stopped {
				return
			}
		}
	default:
		w.r.Scan(arity, tuple.Value{}, false, filtered)
	}
}

// ScanFields implements pattern.FieldSource, forwarding the secondary
// field-index access path through the import filter. With a lead selector
// the underlying reader chooses between the lead bucket and a promoted
// field bucket. Without one, a bounded restriction already narrows the scan
// to concrete lead buckets — cheaper than any field index — so only the
// unbounded cases forward to the underlying reader's ScanFields. Readers
// without field indexes fall back to what Scan performs.
func (w Window) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
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
	if !leadKnown {
		if _, admitsAny, bounded := imp.restriction(w.env, arity); !admitsAny || bounded {
			w.Scan(arity, lead, false, fn)
			return
		}
	}
	fs.ScanFields(arity, sels, func(id tuple.ID, t tuple.Tuple) bool {
		if !imp.Admits(w.r, w.env, t) {
			return true
		}
		return fn(id, t)
	})
}

// LeadWide implements pattern.FieldSource by asking the underlying reader.
func (w Window) LeadWide(arity int, lead tuple.Value) bool {
	fs, ok := w.r.(pattern.FieldSource)
	return ok && fs.LeadWide(arity, lead)
}

// JoinEstimator implements pattern.EstimatorProvider, exposing the
// underlying reader's cardinalities to the join planner. For restricted
// views the estimates ignore the import filter — a uniform overestimate
// that still orders patterns usefully.
func (w Window) JoinEstimator() pattern.Estimator {
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
func (w Window) Get(id tuple.ID) (dataspace.Instance, bool) { return w.r.Get(id) }

// Admits reports whether the window contains the tuple (import check for a
// specific instance; used by retraction validation).
func (w Window) Admits(t tuple.Tuple) bool {
	return w.v.Import.Admits(w.r, w.env, t)
}

// Reader returns the underlying dataspace reader.
func (w Window) Reader() dataspace.Reader { return w.r }

// Materialize returns the IDs of every tuple in Import(p) ∩ D. Consensus-set
// computation uses this to evaluate the import-overlap relation
// `p needs q ≡ Import(p) ∩ Import(q) ∩ D ≠ ∅`.
//
// It goes through the window's bucket-aware Scan, so a view whose matchers
// pin their leading fields materializes in time proportional to its own
// import, not to |D| — the property that keeps consensus detection cheap
// for community-model programs.
func Materialize(v View, r dataspace.Reader, env expr.Env) map[tuple.ID]struct{} {
	out := make(map[tuple.ID]struct{})
	w := v.Window(r, env)
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
// environment — what the consensus detector can know about Import(p) ∩ D
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

// ImportShape classifies the view's import clause under env.
func (v View) ImportShape(env expr.Env) ImportShape {
	imp := v.Import
	if imp.All {
		return ImportShape{Universal: true}
	}
	sh := ImportShape{Bounded: true, Complete: true}
	for _, m := range imp.Matchers {
		arities, anyArity := m.Arities()
		if anyArity {
			return ImportShape{}
		}
		if pm, ok := m.(PatternMatcher); !ok || pm.Where != nil || !wildcardTail(pm.Pattern) {
			sh.Complete = false
		}
		for _, a := range arities {
			leads, applies, bounded := m.Restriction(env, a)
			if !applies {
				continue
			}
			if !bounded {
				return ImportShape{}
			}
			for _, l := range leads {
				k := CanonBucket(a, l)
				dup := false
				for _, have := range sh.Keys {
					if have == k {
						dup = true
						break
					}
				}
				if !dup {
					sh.Keys = append(sh.Keys, k)
				}
			}
		}
	}
	return sh
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
	_ pattern.FieldSource       = Window{}
	_ pattern.EstimatorProvider = Window{}
)
