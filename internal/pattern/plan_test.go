package pattern

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// countingSource counts tuples visited by scans. A lead-known scan visits
// only the tuples of its lead, as an index bucket would.
type countingSource struct {
	inner   *sliceSource
	visited int
}

func (c *countingSource) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	c.inner.Scan(arity, lead, leadKnown, func(id tuple.ID, t tuple.Tuple) bool {
		c.visited++
		return fn(id, t)
	})
}

func TestPlannerReducesScans(t *testing.T) {
	// Written order starts with an unbounded scan of the 100 arity-3
	// tuples. The planner starts from the constant-led adjacency pattern
	// <7, p2>, whose bucket holds <7, 8>; the label pattern's lead is then
	// bound, and its scan of bucket 8 meets <8, label, 8> first. Solve stops
	// at that solution: 2 visits in all.
	var ts []tuple.Tuple
	for i := int64(0); i < 50; i++ {
		ts = append(ts, tuple.New(tuple.Int(i), tuple.Int((i+1)%50)))                   // adjacency
		ts = append(ts, tuple.New(tuple.Int(i), tuple.Atom("label"), tuple.Int(i)))     // labels
		ts = append(ts, tuple.New(tuple.Int(i), tuple.Atom("noise"), tuple.Int(100+i))) // noise
	}
	q := Q(
		P(V("p2"), C(tuple.Atom("label")), V("l2")), // written first: full arity-3 scan
		P(C(tuple.Int(7)), V("p2")),                 // constant lead: one bucket
	)
	src := &countingSource{inner: &sliceSource{tuples: ts}}
	b, found, err := Solve(q, src, nil)
	if err != nil || !found {
		t.Fatalf("Solve = %v, %v, %v; want the solution p2 = 8", b, found, err)
	}
	if b.Env["p2"] != tuple.Int(8) || b.Env["l2"] != tuple.Int(8) {
		t.Errorf("solution %v, want p2 = l2 = 8", b.Env)
	}
	if src.visited != 2 {
		t.Errorf("planned Solve visited %d tuples, want 2", src.visited)
	}
}

func TestPlannerRespectsComputedFieldDependencies(t *testing.T) {
	// <k, v> binds k; <k+1, w> must stay after it even though it has a
	// "known" lead expression — its variable is unbound initially.
	s := src(
		tuple.New(tuple.Int(1), tuple.Int(10)),
		tuple.New(tuple.Int(2), tuple.Int(20)),
	)
	q := Q(
		P(pattern_E_add("k"), V("w")), // written first, depends on k
		P(V("k"), V("v")).Guarded(expr.Eq(expr.V("k"), expr.Const(tuple.Int(1)))),
	)
	sols, err := SolveAll(QAll(q.Patterns...).Where(q.Test), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("solutions = %d", len(sols))
	}
	if sols[0].Env["w"] != tuple.Int(20) {
		t.Errorf("w = %v", sols[0].Env["w"])
	}
}

func pattern_E_add(name string) Field {
	return E(expr.Add(expr.V(name), expr.Const(tuple.Int(1))))
}

// stubEstimator is a Source carrying a fixed cost table, for golden plan
// tests: scans are never executed, only estimated. Zero-value lookups fall
// back to the listed defaults so tests only spell out what they exercise.
type stubEstimator struct {
	Source
	arity    map[int]float64    // per-arity full-scan cost (default 1000)
	leadVal  map[string]float64 // LeadValueEstimate by value rendering (default 2)
	lead     map[int]float64    // LeadEstimate by arity (default 10)
	field    map[[2]int]float64 // FieldEstimate by (arity, pos) (default arity cost)
	fieldVal map[string]float64 // FieldValueEstimate by "pos:value" (default arity cost)
}

func (s *stubEstimator) ArityEstimate(arity int) float64 {
	if c, ok := s.arity[arity]; ok {
		return c
	}
	return 1000
}

func (s *stubEstimator) LeadEstimate(arity int) float64 {
	if c, ok := s.lead[arity]; ok {
		return c
	}
	return 10
}

func (s *stubEstimator) LeadValueEstimate(arity int, lead tuple.Value) float64 {
	if c, ok := s.leadVal[lead.String()]; ok {
		return c
	}
	return 2
}

func (s *stubEstimator) FieldEstimate(arity, pos int) float64 {
	if c, ok := s.field[[2]int{arity, pos}]; ok {
		return c
	}
	return s.ArityEstimate(arity)
}

func (s *stubEstimator) FieldValueEstimate(arity, pos int, val tuple.Value) float64 {
	if c, ok := s.fieldVal[itoa(pos)+":"+val.String()]; ok {
		return c
	}
	return s.ArityEstimate(arity)
}

func itoa(n int) string { return string(rune('0' + n)) }

// TestPlanOrderGolden pins planJoinOrder's exact output for the
// eligibility edge cases: guard variables that are not bound yet, computed
// (FieldExpr) fields as hoisting barriers, the written-order fallback when
// nothing is eligible, and estimator-driven cost ordering with its
// written-order tie-break.
func TestPlanOrderGolden(t *testing.T) {
	label := tuple.Atom("label")
	cases := []struct {
		name string
		q    Query
		base expr.Env
		src  Source
		want []int
	}{
		{
			// Legacy heuristic (no estimator): the constant-led pattern
			// scores 2 and jumps ahead of the written-first arity scan.
			name: "legacy-boundness",
			q: Q(
				P(V("a"), V("b")),
				P(C(tuple.Int(1)), V("a")),
			),
			src:  src(),
			want: []int{1, 0},
		},
		{
			// A guard over a variable bound only by the OTHER pattern makes
			// the constant-led pattern ineligible until that variable exists:
			// hoisting it would let the guard see an unbound variable.
			name: "guard-variable-barrier",
			q: Q(
				P(V("x"), V("y")),
				P(C(tuple.Int(5)), V("z")).
					Guarded(expr.Eq(expr.V("y"), expr.V("z"))),
			),
			src:  src(),
			want: []int{0, 1},
		},
		{
			// A computed field over an unbound variable cannot be hoisted —
			// an unevaluable FieldExpr silently fails to match.
			name: "computed-field-barrier",
			q: Q(
				P(pattern_E_add("k"), V("w")),
				P(V("k"), V("v")),
			),
			src:  src(),
			want: []int{1, 0},
		},
		{
			// A guard variable already carried by the base environment is no
			// barrier: the guarded constant-led pattern may go first.
			name: "base-env-unblocks-guard",
			q: Q(
				P(V("x"), V("y")),
				P(C(tuple.Int(5)), V("z")).
					Guarded(expr.Eq(expr.V("y"), expr.V("z"))),
			),
			base: expr.Env{"y": tuple.Int(9)},
			src:  src(),
			want: []int{1, 0},
		},
		{
			// Nothing eligible at the first step (each guard needs the other
			// pattern's variable): fall back to written order, which then
			// unblocks the second pattern.
			name: "written-order-fallback",
			q: Q(
				P(V("a")).Guarded(expr.Eq(expr.V("b"), expr.V("b"))),
				P(V("b")).Guarded(expr.Eq(expr.V("a"), expr.V("a"))),
			),
			src:  src(),
			want: []int{0, 1},
		},
		{
			// Estimator-driven: the written-last pattern's concrete lead
			// bucket (cost 2) beats the lead-unknown patterns (arity 1000),
			// and after it binds "a", pattern 0's lead is runtime-known
			// (LeadEstimate 10) and beats pattern 1's full scan.
			name: "estimator-cheapest-first",
			q: Q(
				P(V("a"), V("x")),
				P(V("y"), V("x")),
				P(C(tuple.Int(7)), V("a")),
			),
			src:  &stubEstimator{},
			want: []int{2, 0, 1},
		},
		{
			// Estimator tie-break: identical costs keep written order.
			name: "estimator-tie-written-order",
			q: Q(
				P(C(tuple.Int(1)), V("p")),
				P(C(tuple.Int(2)), V("q")),
			),
			src:  &stubEstimator{},
			want: []int{0, 1},
		},
		{
			// A constant non-lead field with a cheap field-index bucket
			// overtakes a runtime-known lead whose mean bucket is larger.
			name: "estimator-field-selectivity",
			q: Q(
				P(V("r"), V("s")),
				P(V("w"), C(label), C(tuple.Int(3))),
			),
			base: expr.Env{"r": tuple.Int(1)},
			src: &stubEstimator{
				leadVal:  map[string]float64{tuple.Int(1).String(): 50},
				fieldVal: map[string]float64{"2:" + tuple.Int(3).String(): 4},
			},
			want: []int{1, 0},
		},
		{
			// An unbound variable field is NOT a selector at plan time: the
			// pattern costs a full arity scan until the variable is bound,
			// so the lead-known pattern still goes first.
			name: "estimator-unbound-field-var",
			q: Q(
				P(V("m"), C(label), V("g")),
				P(C(tuple.Int(9)), V("g")),
			),
			src: &stubEstimator{
				field: map[[2]int]float64{{3, 2}: 1},
			},
			want: []int{1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			positives := make([]int, 0, len(tc.q.Patterns))
			for i, p := range tc.q.Patterns {
				if !p.Negated {
					positives = append(positives, i)
				}
			}
			got := planJoinOrder(tc.q, positives, tc.base, tc.src, new([]float64))
			if len(got) != len(tc.want) {
				t.Fatalf("plan = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("plan = %v, want %v", got, tc.want)
				}
			}
		})
	}
}
