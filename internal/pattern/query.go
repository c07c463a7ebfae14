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

// Query is a complete SDL query: quantifier, binding query (patterns), and
// test query (boolean expression over the bound variables).
type Query struct {
	Quant    Quantifier
	Patterns []Pattern
	Test     expr.Expr
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

// Match records the tuple instance one retract-tagged pattern matched.
type Match struct {
	PatternIndex int
	ID           tuple.ID
	Tuple        tuple.Tuple
	Retract      bool // always true: read patterns' matches are not recorded
}

// Binding is one solution of a query: the final variable environment plus
// the tuple instances its retract-tagged patterns matched, in join order.
// Both belong to the caller. (The instances read patterns matched are not
// recorded: no consumer translates them into anything.)
type Binding struct {
	Env     expr.Env
	Matched []Match
}

// RetractedIDs returns the distinct identifiers of tuples tagged for
// retraction by this solution.
func (b Binding) RetractedIDs() []tuple.ID {
	if len(b.Matched) == 0 {
		return nil
	}
	ids := make([]tuple.ID, len(b.Matched))
	for i, m := range b.Matched {
		ids[i] = m.ID
	}
	return ids
}

// Enumerate finds solutions to q against src starting from the base scope,
// invoking fn for each; enumeration stops early when fn returns false.
// Within one solution, retract-tagged patterns always match pairwise-distinct
// tuple instances (one instance can be retracted only once); read patterns
// may alias.
//
// Negated patterns and the test query are checked per candidate solution
// after all positive patterns have matched; variables that appear only in
// negated patterns act as wildcards.
//
// base is never modified, every Binding is independent of the enumeration
// that produced it, and fn may itself enumerate.
func Enumerate(q Query, src Source, base expr.Scope, fn func(Binding) bool) error {
	m := matchers.Get().(*matcher)
	defer m.release()
	return m.run(q, src, base, fn, false, nil, nil)
}

// Solve finds a single solution for an existential query (or the first
// solution of a universal one). found is false when the query has no
// solution.
func Solve(q Query, src Source, base expr.Scope) (Binding, bool, error) {
	m := matchers.Get().(*matcher)
	defer m.release()
	err := m.run(q, src, base, nil, true, nil, nil)
	if len(m.sols) == 0 {
		return Binding{}, false, err
	}
	return m.sols[0], true, err
}

// SolveAll collects every solution of the query. For ForAll transactions
// the composite effect is the union of the per-solution retractions and
// assertions; the caller deduplicates retraction IDs.
func SolveAll(q Query, src Source, base expr.Scope) ([]Binding, error) {
	return AppendSolutions(nil, q, src, base)
}

// AppendSolutions appends every solution of the query to dst and returns
// the extended slice (nil when dst is nil and there is none). The matcher's
// buffer grows as solutions arrive and dst grows once, so SolveAll's answer
// is one exact-size slice, and a caller that recycles dst pays only for the
// solutions themselves.
func AppendSolutions(dst []Binding, q Query, src Source, base expr.Scope) ([]Binding, error) {
	m := matchers.Get().(*matcher)
	defer m.release()
	err := m.run(q, src, base, nil, false, nil, nil)
	return append(dst, m.sols...), err
}
