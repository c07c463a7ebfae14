package pattern

import (
	"fmt"
	"strings"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Quantifier selects between the paper's ∃ and ∀ query forms.
type Quantifier uint8

// Quantifiers.
const (
	Exists Quantifier = iota + 1 // ∃ — an arbitrary single solution
	ForAll                       // ∀ — every solution, as one composite
)

// String renders the quantifier in ASCII surface syntax.
func (q Quantifier) String() string {
	switch q {
	case Exists:
		return "exists"
	case ForAll:
		return "forall"
	default:
		return "?"
	}
}

// Plan selects how the matcher orders the positive patterns of a query.
type Plan uint8

// Plans.
const (
	// PlanAuto (the default) reorders positive patterns greedily by
	// boundness: patterns whose leading field is determined by the
	// bindings accumulated so far are matched first (they hit index
	// buckets instead of arity scans), then patterns sharing a variable
	// with the bindings. The solution set is unchanged — only the join
	// order and therefore the scan cost. Experiment E11 measures it.
	PlanAuto Plan = iota
	// PlanWritten evaluates patterns exactly in written order (the naive
	// semantics, and the ablation baseline).
	PlanWritten
)

// Query is a complete SDL query: quantifier, binding query (patterns), and
// test query (boolean expression over the bound variables).
type Query struct {
	Quant    Quantifier
	Patterns []Pattern
	Test     expr.Expr
	Plan     Plan
}

// Q builds an existential query.
func Q(patterns ...Pattern) Query {
	return Query{Quant: Exists, Patterns: patterns}
}

// QAll builds a universal query.
func QAll(patterns ...Pattern) Query {
	return Query{Quant: ForAll, Patterns: patterns}
}

// Where attaches a test query, returning the modified query.
func (q Query) Where(test expr.Expr) Query {
	q.Test = test
	return q
}

// Validate reports structural errors in the query.
func (q Query) Validate() error {
	if q.Quant != Exists && q.Quant != ForAll {
		return fmt.Errorf("pattern: invalid quantifier %d", q.Quant)
	}
	for _, p := range q.Patterns {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Vars returns the variables bound by the query's positive patterns.
func (q Query) Vars() []string {
	var dst []string
	for _, p := range q.Patterns {
		dst = p.Vars(dst)
	}
	return dst
}

func (q Query) String() string {
	parts := make([]string, len(q.Patterns))
	for i, p := range q.Patterns {
		parts[i] = p.String()
	}
	s := q.Quant.String() + " " + strings.Join(parts, ", ")
	if q.Test != nil {
		s += " where " + q.Test.String()
	}
	return s
}

// splitPatterns returns the indexes of q's positive and negated patterns,
// each in written order.
func splitPatterns(q Query) (positives, negatives []int) {
	positives = make([]int, 0, len(q.Patterns))
	for i, p := range q.Patterns {
		if p.Negated {
			negatives = append(negatives, i)
		} else {
			positives = append(positives, i)
		}
	}
	return positives, negatives
}

// Source supplies candidate tuples to the matcher. Implementations (the
// dataspace window) must support reentrant Scan calls: the matcher nests a
// Scan per pattern during the join.
type Source interface {
	// Scan calls fn for every tuple instance with the given arity and —
	// when leadKnown — whose first field Equals lead. Iteration stops when
	// fn returns false. The iteration order is unspecified; SDL's ∃ picks
	// an arbitrary match.
	Scan(arity int, lead tuple.Value, leadKnown bool, fn func(id tuple.ID, t tuple.Tuple) bool)
}

// Match records one positive pattern's matched tuple instance.
type Match struct {
	PatternIndex int
	ID           tuple.ID
	Tuple        tuple.Tuple
	Retract      bool
}

// Binding is one solution of a query: the final variable environment plus
// the tuple instances matched by each positive pattern.
type Binding struct {
	Env     expr.Env
	Matched []Match
}

// RetractedIDs returns the distinct identifiers of tuples tagged for
// retraction by this solution.
func (b Binding) RetractedIDs() []tuple.ID {
	var ids []tuple.ID
	for _, m := range b.Matched {
		if m.Retract {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// Enumerate finds solutions to q against src starting from the base
// environment, invoking fn for each; enumeration stops early when fn
// returns false. Within one solution, retract-tagged patterns always match
// pairwise-distinct tuple instances (one instance can be retracted only
// once); read patterns may alias.
//
// Negated patterns and the test query are checked per candidate solution
// after all positive patterns have matched; variables that appear only in
// negated patterns act as wildcards.
func Enumerate(q Query, src Source, base expr.Env, fn func(Binding) bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	positives, negatives := splitPatterns(q)
	if base == nil {
		base = expr.Env{}
	}
	if q.Plan == PlanAuto {
		positives = planJoinOrder(q, positives, base, src)
	}

	// The join mutates one environment in place, recording newly bound
	// variables on a trail and deleting them when backtracking; the
	// environment is cloned only when a solution escapes to fn. This keeps
	// the candidate loop allocation-free (MatchInto would clone per
	// binding candidate).
	env := make(expr.Env, len(base)+8)
	for k, v := range base {
		env[k] = v
	}
	fsrc, hasFields := src.(FieldSource)
	// slots holds the per-depth FieldSel buffers, reused across candidates.
	// They are carved on the first scan that builds selectors, so lead-keyed
	// point queries never pay for them.
	slots := selSlots{q: q, positives: positives, negatives: negatives}

	matched := make([]Match, 0, len(positives))
	var (
		trail   []string
		walkErr error
	)
	stopped := false

	var walk func(k int)
	walk = func(k int) {
		if stopped || walkErr != nil {
			return
		}
		if k == len(positives) {
			ok, err := checkSolution(q, negatives, src, fsrc, &slots, env, &trail)
			if err != nil {
				walkErr = err
				return
			}
			if !ok {
				return
			}
			sol := Binding{Env: env, Matched: make([]Match, len(matched))}
			copy(sol.Matched, matched)
			if !fn(sol) {
				// env escaped inside sol; stopped suppresses the
				// unwinding undos so the handed-off bindings stay intact.
				stopped = true
				return
			}
			// fn kept a live reference but wants more solutions: continue
			// the join on a private copy. The copy carries the same
			// bindings, so the outer frames' trail undos still resolve.
			env = env.Clone()
			return
		}
		pi := positives[k]
		p := q.Patterns[pi]
		lead, known := p.Lead(env)
		deliver := func(id tuple.ID, t tuple.Tuple) bool {
			if p.Retract && retractedAlready(matched, id) {
				return true // distinctness for retract tags
			}
			mark := len(trail)
			var ok bool
			trail, ok = matchTrail(p, t, env, trail)
			if !ok {
				return true
			}
			undo := func() {
				if stopped {
					return // env escaped with the final solution
				}
				for _, name := range trail[mark:] {
					delete(env, name)
				}
				trail = trail[:mark]
			}
			if p.Guard != nil {
				pass, err := expr.EvalBool(p.Guard, env)
				if err != nil {
					walkErr = fmt.Errorf("pattern: guard: %w", err)
					undo()
					return false
				}
				if !pass {
					undo()
					return true
				}
			}
			matched = append(matched, Match{PatternIndex: pi, ID: id, Tuple: t, Retract: p.Retract})
			walk(k + 1)
			matched = matched[:len(matched)-1]
			undo()
			return !stopped && walkErr == nil
		}
		if hasFields && fieldScan(p, lead, known, env, fsrc, &slots, k, deliver) {
			return
		}
		src.Scan(p.Arity(), lead, known, deliver)
	}
	walk(0)
	return walkErr
}

// selSlots is one enumeration's set of FieldSel buffers: slot k belongs to
// the k-th positive pattern in join order, the slots after them to the
// negated patterns. A nested scan must not overwrite the selectors of the
// scan it runs inside (a source may consult them once per shard), hence one
// slot per depth; all of them are carved from a single allocation sized by
// the patterns' arities.
type selSlots struct {
	q                    Query
	positives, negatives []int
	bufs                 [][]FieldSel
}

func (s *selSlots) slot(k int) []FieldSel {
	if s.bufs == nil {
		total := 0
		for _, p := range s.q.Patterns {
			total += len(p.Fields)
		}
		arena := make([]FieldSel, total)
		s.bufs = make([][]FieldSel, 0, len(s.positives)+len(s.negatives))
		for _, order := range [2][]int{s.positives, s.negatives} {
			for _, pi := range order {
				n := len(s.q.Patterns[pi].Fields)
				s.bufs = append(s.bufs, arena[:0:n])
				arena = arena[n:]
			}
		}
	}
	return s.bufs[k]
}

// fieldScan runs pattern p's candidate scan through the source's secondary
// field indexes when that can beat the plain scan: always for an unknown
// lead (the alternative is the arity scan), and for a known lead only when
// the source reports the lead bucket wide enough that a (pos, value) bucket
// could be smaller — small lead buckets never reach the selector buffers, so
// lead-keyed point queries pay one LeadWide probe and allocate nothing. It
// reports whether the scan ran; false means no non-lead field of p is
// determined under env (or the bucket is narrow) and the caller scans
// plainly. slot is p's index into slots.
func fieldScan(p Pattern, lead tuple.Value, known bool, env expr.Env, fsrc FieldSource, slots *selSlots, slot int, deliver func(tuple.ID, tuple.Tuple) bool) bool {
	if known && !(constrainsFields(p) && fsrc.LeadWide(p.Arity(), lead)) {
		return false
	}
	sels := slots.slot(slot)
	if known {
		sels = append(sels, FieldSel{Pos: 0, Val: lead})
	}
	fixed := len(sels)
	sels = FieldSels(p, env, sels)
	if len(sels) == fixed {
		return false
	}
	fsrc.ScanFields(p.Arity(), sels, deliver)
	return true
}

// matchTrail matches p against t by extending env in place, appending each
// newly bound variable to trail. On failure the partial bindings are
// removed and the original trail returned; the caller undoes successful
// binds when backtracking. This is MatchInto without the defensive clone.
func matchTrail(p Pattern, t tuple.Tuple, env expr.Env, trail []string) ([]string, bool) {
	if t.Arity() != len(p.Fields) {
		return trail, false
	}
	mark := len(trail)
	undo := func() []string {
		for _, name := range trail[mark:] {
			delete(env, name)
		}
		return trail[:mark]
	}
	for i, f := range p.Fields {
		fv := t.Field(i)
		switch f.Kind {
		case FieldWildcard:
			// matches anything
		case FieldConst:
			if !f.Value.Equal(fv) {
				return undo(), false
			}
		case FieldVar:
			if bound, ok := env[f.Name]; ok {
				if !bound.Equal(fv) {
					return undo(), false
				}
			} else {
				env[f.Name] = fv
				trail = append(trail, f.Name)
			}
		case FieldExpr:
			want, err := f.Expr.Eval(env)
			if err != nil {
				return undo(), false
			}
			if !want.Equal(fv) {
				return undo(), false
			}
		default:
			return undo(), false
		}
	}
	return trail, true
}

func retractedAlready(matched []Match, id tuple.ID) bool {
	for _, m := range matched {
		if m.Retract && m.ID == id {
			return true
		}
	}
	return false
}

// checkSolution evaluates the test query and the negated patterns under the
// candidate environment. Negated patterns bind via the same trail as the
// join (undone before returning) and build their selectors in the slots
// after the positive patterns'.
func checkSolution(q Query, negatives []int, src Source, fsrc FieldSource, slots *selSlots, env expr.Env, trail *[]string) (bool, error) {
	ok, err := expr.EvalBool(q.Test, env)
	if err != nil {
		return false, fmt.Errorf("pattern: test query: %w", err)
	}
	if !ok {
		return false, nil
	}
	for nk, ni := range negatives {
		p := q.Patterns[ni]
		lead, known := p.Lead(env)
		found := false
		var guardErr error
		deliver := func(_ tuple.ID, t tuple.Tuple) bool {
			mark := len(*trail)
			var m bool
			*trail, m = matchTrail(p, t, env, *trail)
			if !m {
				return true
			}
			undo := func() {
				for _, name := range (*trail)[mark:] {
					delete(env, name)
				}
				*trail = (*trail)[:mark]
			}
			if p.Guard != nil {
				pass, err := expr.EvalBool(p.Guard, env)
				undo()
				if err != nil {
					guardErr = err
					return false
				}
				if !pass {
					return true // guarded out: does not count as a violation
				}
			} else {
				undo()
			}
			found = true
			return false
		}
		if fsrc == nil || !fieldScan(p, lead, known, env, fsrc, slots, len(slots.positives)+nk, deliver) {
			src.Scan(p.Arity(), lead, known, deliver)
		}
		if guardErr != nil {
			return false, fmt.Errorf("pattern: negation guard: %w", guardErr)
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}

// Solve finds a single solution for an existential query (or the first
// solution of a universal one). found is false when the query has no
// solution.
func Solve(q Query, src Source, base expr.Env) (Binding, bool, error) {
	var (
		sol   Binding
		found bool
	)
	err := Enumerate(q, src, base, func(b Binding) bool {
		sol = b
		found = true
		return false
	})
	return sol, found, err
}

// SolveAll collects every solution of the query. For ForAll transactions
// the composite effect is the union of the per-solution retractions and
// assertions; the caller deduplicates retraction IDs.
func SolveAll(q Query, src Source, base expr.Env) ([]Binding, error) {
	var out []Binding
	err := Enumerate(q, src, base, func(b Binding) bool {
		out = append(out, b)
		return true
	})
	return out, err
}
