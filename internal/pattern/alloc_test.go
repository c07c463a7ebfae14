package pattern

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Count-exact allocation guards of the matcher: an enumeration into a
// reused Table allocates nothing; the Binding-shaped entry points allocate
// what they hand out — two allocations per solution environment (a map:
// header plus buckets), one slice of solutions — and nothing per candidate,
// per depth or per backtrack.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
}

// groupStore is join-read's layout in miniature: groups of n records
// <id, rec, g> and one <g, link, g> per group.
func groupStore(groups, n int) *sliceSource {
	rec, link := tuple.Atom("rec"), tuple.Atom("link")
	s := &sliceSource{}
	for g := 0; g < groups; g++ {
		s.tuples = append(s.tuples, tuple.New(tuple.Int(int64(g)), link, tuple.Int(int64(g))))
		for i := 0; i < n; i++ {
			s.tuples = append(s.tuples, tuple.New(tuple.Int(int64(1000+g*n+i)), rec, tuple.Int(int64(g))))
		}
	}
	return s
}

func TestSolveAllAllocatesPerSolution(t *testing.T) {
	skipUnderRace(t)
	const n = 10
	s := groupStore(4, n)
	rec, link := tuple.Atom("rec"), tuple.Atom("link")
	shapes := map[string]Query{
		"join":    QAll(P(C(tuple.Int(2)), C(link), V("g")), P(V("y"), C(rec), V("g"))),
		"fetch":   QAll(P(V("x"), C(rec), C(tuple.Int(2)))),
		"guarded": QAll(P(V("x"), C(rec), V("g")).Guarded(expr.Eq(expr.V("g"), expr.Const(tuple.Int(2))))),
	}
	for name, q := range shapes {
		for _, base := range []expr.Env{nil, {"p": tuple.Int(1)}} {
			got := testing.AllocsPerRun(100, func() {
				if sols, err := SolveAll(q, s, base); err != nil || len(sols) != n {
					t.Fatalf("%s: %d solutions, err %v", name, len(sols), err)
				}
			})
			if max := float64(2*n + 4); got > max {
				t.Errorf("%s under %v: %.0f allocations for %d solutions, want <= %.0f", name, base, got, n, max)
			}
			// The rows themselves cost nothing once the table has grown.
			var tab Table
			collect := func() {
				if err := tab.Collect(q, s, base, false, nil); err != nil || len(tab.Rows()) != n {
					t.Fatalf("%s: %d rows, err %v", name, len(tab.Rows()), err)
				}
			}
			collect()
			if got := testing.AllocsPerRun(100, collect); got != 0 {
				t.Errorf("%s under %v: Collect of %d rows allocated %.0f times, want 0", name, base, n, got)
			}
		}
	}
}

// TestCandidatesAllocateNothing: what an enumeration allocates does not
// depend on how many candidates it rejects — a failing query allocates
// nothing at all, and a 64-candidate scan with one solution allocates what
// a 1-candidate scan does — with and without expressions in the query.
func TestCandidatesAllocateNothing(t *testing.T) {
	skipUnderRace(t)
	k := tuple.Atom("k")
	store := func(cands int) *sliceSource {
		s := &sliceSource{}
		for i := 0; i < cands; i++ {
			s.tuples = append(s.tuples, tuple.New(k, tuple.Int(int64(i)), tuple.Int(int64(i%2))))
		}
		return s
	}
	last := func(cands int) expr.Expr { return expr.Eq(expr.V("v"), expr.Const(tuple.Int(int64(cands-1)))) }
	queries := map[string]func(cands int) Query{
		"constant": func(c int) Query { return Q(P(C(k), C(tuple.Int(int64(c-1))), V("b"))) },
		"join":     func(c int) Query { return Q(P(C(k), V("v"), V("b")), P(C(k), C(tuple.Int(int64(c-1))), V("v"))) },
		"guard":    func(c int) Query { return Q(P(C(k), V("v"), W()).Guarded(last(c))) },
		"test":     func(c int) Query { return Q(R(C(k), V("v"), W())).Where(last(c)) },
		"negation": func(c int) Query {
			return Q(P(C(k), V("v"), W()), N(C(k), V("w"), W()).Guarded(expr.Gt(expr.V("w"), expr.V("v"))))
		},
		"computed": func(c int) Query {
			return Q(P(C(k), V("v"), W()), P(C(k), E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))), C(tuple.Int(int64((c-1)%2))))).Where(last(c - 1))
		},
		"unmatched": func(int) Query { return Q(P(C(k), C(tuple.Int(-1)), W())) },
	}
	for name, mk := range queries {
		run := func(cands int) float64 {
			s, q := store(cands), mk(cands)
			base := expr.Env{"p": tuple.Int(1)}
			want := name != "unmatched" && !(name == "computed" && cands < 2)
			return testing.AllocsPerRun(100, func() {
				if _, found, err := Solve(q, s, base); err != nil || found != want {
					t.Fatalf("%s over %d candidates: found %v, err %v", name, cands, found, err)
				}
			})
		}
		one, many := run(2), run(64)
		if many != one {
			t.Errorf("%s: %.0f allocations over 64 candidates, %.0f over 2", name, many, one)
		}
		if name == "unmatched" && one != 0 {
			t.Errorf("a failing query allocated %.0f times, want 0", one)
		}
		// ("test" also hands out one retract-tagged match; planning
		// "computed" lists the computed field's variables.)
		if name != "unmatched" && name != "test" && name != "computed" && one > 2 {
			t.Errorf("%s: one solution cost %.0f allocations, want <= 2 (its environment)", name, one)
		}
	}
}

// TestMatchAllocatesNothing: the single-tuple match behind view admission and
// delta filters allocates nothing, even when a where clause or a computed
// field reads a binding the pattern makes: the frame is their scope.
func TestMatchAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	tp := tuple.New(tuple.Atom("k"), tuple.Int(5), tuple.Int(5))
	env := expr.Env{"p": tuple.Int(5)}
	lt := expr.Lt(expr.V("p"), expr.Const(tuple.Int(9)))
	for name, c := range map[string]struct {
		p     Pattern
		where expr.Expr
		max   float64
	}{
		"binding":        {P(C(tuple.Atom("k")), V("v"), V("v")), nil, 0},
		"bound":          {P(C(tuple.Atom("k")), V("p"), W()), nil, 0},
		"where, bound":   {P(C(tuple.Atom("k")), V("p"), W()), lt, 0},
		"where, binding": {P(C(tuple.Atom("k")), V("v"), W()), expr.Lt(expr.V("v"), expr.Const(tuple.Int(9))), 2},
	} {
		got := testing.AllocsPerRun(100, func() {
			if !c.p.Match(tp, env, c.where) {
				t.Fatalf("%s: no match", name)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations, want <= %.0f", name, got, c.max)
		}
	}
	// Nor does a tuple the pattern rejects.
	miss, where := P(C(tuple.Atom("other")), V("v"), W()), expr.Expr(lt)
	if got := testing.AllocsPerRun(100, func() { miss.Match(tp, env, where) }); got != 0 {
		t.Errorf("rejected tuple under a where clause: %.0f allocations, want 0", got)
	}
}
