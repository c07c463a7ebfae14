package process

// Integration tests: the paper's three array-summation programs (§3.1),
// executed end-to-end through the process runtime. They double as the
// reference implementations for experiment E1.

import (
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// ints is a convenience literal.
func iv(n int64) expr.Expr { return expr.Const(tuple.Int(n)) }

// sumArray loads <k, A(k)> tuples for k = 1..n with A(k) = k.
func loadArray(s *dataspace.Store, n int64) int64 {
	total := int64(0)
	for k := int64(1); k <= n; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(k), tuple.Int(k)))
		total += k
	}
	return total
}

// --- Sum3: the replication program -------------------------------------
//
//	PROCESS Sum3
//	≋ [ ∃ν,µ,α,β: <ν,α>!, <µ,β>! : ν ≠ µ → <µ, α+β> ]
func sum3Def() *Definition {
	return &Definition{
		Name: "Sum3",
		Body: []Stmt{Replicate{Branches: []Branch{{
			Guard: Transact{
				Kind: Immediate,
				Query: pattern.Q(
					pattern.R(pattern.V("n"), pattern.V("a")),
					pattern.R(pattern.V("m"), pattern.V("b")),
				).Where(expr.Ne(expr.V("n"), expr.V("m"))),
				Asserts: []pattern.Pattern{pattern.P(
					pattern.V("m"),
					pattern.E(expr.Add(expr.V("a"), expr.V("b"))),
				)},
			},
		}}}},
	}
}

func TestSum3Replication(t *testing.T) {
	// The subtest IDs are those of the two concurrency-control modes the
	// engine once had, kept so the suite's test IDs stay stable; both run
	// the one engine.
	for _, name := range []string{"coarse", "optimistic"} {
		t.Run(name, func(t *testing.T) {
			s, rt := newRuntime(t)
			want := loadArray(s, 16)
			if err := rt.Define(sum3Def()); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Spawn("Sum3"); err != nil {
				t.Fatal(err)
			}
			waitDone(t, rt, 20*time.Second)
			if s.Len() != 1 {
				t.Fatalf("store len = %d, want 1", s.Len())
			}
			var got int64
			s.Snapshot(func(r dataspace.Reader) {
				r.Each(func(inst dataspace.Instance) bool {
					got, _ = inst.Tuple.Field(1).AsInt()
					return false
				})
			})
			if got != want {
				t.Errorf("sum = %d, want %d", got, want)
			}
		})
	}
}

// --- Sum2: the asynchronous program ------------------------------------
//
//	PROCESS Sum2(k, j)
//	∃α,β: <k−2^(j−1), α, j>!, <k, β, j>! ⇒ <k, α+β, j+1>
func sum2Def() *Definition {
	return &Definition{
		Name:   "Sum2",
		Params: []string{"k", "j"},
		Body: []Stmt{Transact{
			Kind: Delayed,
			Query: pattern.Q(
				pattern.R(
					pattern.E(expr.Sub(expr.V("k"), expr.Fn("pow2", expr.Sub(expr.V("j"), iv(1))))),
					pattern.V("alpha"),
					pattern.V("j"),
				),
				pattern.R(pattern.V("k"), pattern.V("beta"), pattern.V("j")),
			),
			Asserts: []pattern.Pattern{pattern.P(
				pattern.V("k"),
				pattern.E(expr.Add(expr.V("alpha"), expr.V("beta"))),
				pattern.E(expr.Add(expr.V("j"), iv(1))),
			)},
		}},
	}
}

func TestSum2Asynchronous(t *testing.T) {
	s, rt := newRuntime(t)
	const n, phases = 16, 4
	want := int64(0)
	for k := int64(1); k <= n; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(k), tuple.Int(k), tuple.Int(1)))
		want += k
	}
	if err := rt.Define(sum2Def()); err != nil {
		t.Fatal(err)
	}
	// Society: Sum2(k, j) for 1 ≤ j ≤ a and k mod 2^j == 0.
	for j := int64(1); j <= phases; j++ {
		for k := int64(1); k <= n; k++ {
			if k%(1<<j) == 0 {
				if _, err := rt.Spawn("Sum2", tuple.Int(k), tuple.Int(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waitDone(t, rt, 20*time.Second)
	if s.Len() != 1 {
		t.Fatalf("store len = %d, want 1", s.Len())
	}
	var got, phase int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			got, _ = inst.Tuple.Field(1).AsInt()
			phase, _ = inst.Tuple.Field(2).AsInt()
			return false
		})
	})
	if got != want || phase != phases+1 {
		t.Errorf("sum = %d (phase %d), want %d (phase %d)", got, phase, want, phases+1)
	}
}

// --- Sum1: the synchronous (consensus-barrier) program ------------------
//
//	PROCESS Sum1(k, j)
//	∃α,β: <k−2^(j−1), α>!, <k, β>! ⇒ <k, α+β> ;
//	[ k mod 2^(j+1) = 0 ⇑ Sum1(k, j+1)
//	| k mod 2^(j+1) ≠ 0 ⇑ skip ]
func sum1Def() *Definition {
	phaseDone := expr.Eq(
		expr.Mod(expr.V("k"), expr.Fn("pow2", expr.Add(expr.V("j"), iv(1)))), iv(0))
	phaseNotDone := expr.Ne(
		expr.Mod(expr.V("k"), expr.Fn("pow2", expr.Add(expr.V("j"), iv(1)))), iv(0))
	return &Definition{
		Name:   "Sum1",
		Params: []string{"k", "j"},
		Body: []Stmt{
			Transact{
				Kind: Delayed,
				Query: pattern.Q(
					pattern.R(
						pattern.E(expr.Sub(expr.V("k"), expr.Fn("pow2", expr.Sub(expr.V("j"), iv(1))))),
						pattern.V("alpha"),
					),
					pattern.R(pattern.V("k"), pattern.V("beta")),
				),
				Asserts: []pattern.Pattern{pattern.P(
					pattern.V("k"),
					pattern.E(expr.Add(expr.V("alpha"), expr.V("beta"))),
				)},
			},
			Select{Branches: []Branch{
				{Guard: Transact{
					Kind:  Consensus,
					Query: pattern.Query{Quant: pattern.Exists, Test: phaseDone},
					Actions: []Action{&Spawn{
						Type: "Sum1",
						Args: []expr.Expr{expr.V("k"), expr.Add(expr.V("j"), iv(1))},
					}},
				}},
				{Guard: Transact{
					Kind:  Consensus,
					Query: pattern.Query{Quant: pattern.Exists, Test: phaseNotDone},
				}},
			}},
		},
	}
}

func TestSum1SynchronousConsensus(t *testing.T) {
	s, rt := newRuntime(t)
	const n = 8
	want := loadArray(s, n)
	if err := rt.Define(sum1Def()); err != nil {
		t.Fatal(err)
	}
	// Initial society: Sum1(k, 1) for even k.
	for k := int64(2); k <= n; k += 2 {
		if _, err := rt.Spawn("Sum1", tuple.Int(k), tuple.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, rt, 30*time.Second)
	if s.Len() != 1 {
		t.Fatalf("store len = %d, want 1", s.Len())
	}
	var got int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			got, _ = inst.Tuple.Field(1).AsInt()
			return false
		})
	})
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if fires := rt.Consensus().Fires(); fires < 2 {
		t.Errorf("consensus fires = %d, want phase barriers", fires)
	}
}

func TestSelectionWithTwoConsensusGuards(t *testing.T) {
	// Directly exercises the alternatives mechanism: two processes, each
	// in a selection with two mutually exclusive consensus guards.
	s, rt := newRuntime(t)
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("seed"), tuple.Int(1)))
	if err := rt.Define(&Definition{
		Name:   "Chooser",
		Params: []string{"x"},
		Body: []Stmt{Select{Branches: []Branch{
			{Guard: Transact{
				Kind:    Consensus,
				Query:   pattern.Query{Quant: pattern.Exists, Test: expr.Eq(expr.Mod(expr.V("x"), iv(2)), iv(0))},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("even")), pattern.V("x"))},
			}},
			{Guard: Transact{
				Kind:    Consensus,
				Query:   pattern.Query{Quant: pattern.Exists, Test: expr.Ne(expr.Mod(expr.V("x"), iv(2)), iv(0))},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("odd")), pattern.V("x"))},
			}},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{3, 4} {
		if _, err := rt.Spawn("Chooser", tuple.Int(x)); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, rt, 10*time.Second)
	var even, odd int64 = -1, -1
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, tuple.Atom("even"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			even, _ = tp.Field(1).AsInt()
			return false
		})
		r.Scan(2, tuple.Atom("odd"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			odd, _ = tp.Field(1).AsInt()
			return false
		})
	})
	if even != 4 || odd != 3 {
		t.Errorf("even=%d odd=%d", even, odd)
	}
}
