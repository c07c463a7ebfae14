// Package arraysum implements the paper's §3.1 parallel array-summation
// programs as reusable runners for the benchmark harness (experiment E1):
//
//   - Sum1: synchronous phase-by-phase summation, one process per active
//     array position, with a consensus transaction as the phase barrier
//     (the Connection-Machine-style solution).
//   - Sum2: asynchronous summation with phase-tagged data and delayed
//     transactions (the message-passing-style solution).
//   - Sum3: the replication one-liner the paper prefers — "it conveniently
//     expresses the desired computation while imposing minimal control
//     constraints".
package arraysum

import (
	"context"
	"fmt"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/workload"
)

func iv(n int64) expr.Expr { return expr.Const(tuple.Int(n)) }

// Sum3Def returns the replication program:
//
//	≋ [ ∃ν,µ,α,β: <ν,α>!, <µ,β>! : ν ≠ µ → <µ, α+β> ]
func Sum3Def() *process.Definition {
	return &process.Definition{
		Name: "Sum3",
		Body: []process.Stmt{process.Replicate{Branches: []process.Branch{{
			Guard: process.Transact{
				Kind: process.Immediate,
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

// Sum2Def returns the asynchronous program:
//
//	PROCESS Sum2(k, j)
//	∃α,β: <k−2^(j−1), α, j>!, <k, β, j>! ⇒ <k, α+β, j+1>
func Sum2Def() *process.Definition {
	return &process.Definition{
		Name:   "Sum2",
		Params: []string{"k", "j"},
		Body: []process.Stmt{process.Transact{
			Kind: process.Delayed,
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

// Sum1Def returns the synchronous program with the consensus phase barrier:
//
//	PROCESS Sum1(k, j)
//	∃α,β: <k−2^(j−1), α>!, <k, β>! ⇒ <k, α+β> ;
//	[ k mod 2^(j+1) = 0 ⇑ Sum1(k, j+1) | k mod 2^(j+1) ≠ 0 ⇑ skip ]
func Sum1Def() *process.Definition {
	phase := expr.Mod(expr.V("k"), expr.Fn("pow2", expr.Add(expr.V("j"), iv(1))))
	return &process.Definition{
		Name:   "Sum1",
		Params: []string{"k", "j"},
		Body: []process.Stmt{
			process.Transact{
				Kind: process.Delayed,
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
			process.Select{Branches: []process.Branch{
				{Guard: process.Transact{
					Kind:  process.Consensus,
					Query: pattern.Query{Quant: pattern.Exists, Test: expr.Eq(phase, iv(0))},
					Actions: []process.Action{&process.Spawn{
						Type: "Sum1",
						Args: []expr.Expr{expr.V("k"), expr.Add(expr.V("j"), iv(1))},
					}},
				}},
				{Guard: process.Transact{
					Kind:  process.Consensus,
					Query: pattern.Query{Quant: pattern.Exists, Test: expr.Ne(phase, iv(0))},
				}},
			}},
		},
	}
}

// result extracts the final sum from a store expected to hold exactly one
// tuple whose second field is the sum.
func result(s *dataspace.Store) (int64, error) {
	if s.Len() != 1 {
		return 0, fmt.Errorf("arraysum: %d tuples left, want 1", s.Len())
	}
	var got int64
	var ok bool
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			got, ok = inst.Tuple.Field(1).AsInt()
			return false
		})
	})
	if !ok {
		return 0, fmt.Errorf("arraysum: malformed result tuple")
	}
	return got, nil
}

// wait drains the runtime and surfaces the first process error.
func wait(ctx context.Context, rt *process.Runtime) error {
	if err := rt.WaitCtx(ctx); err != nil {
		return err
	}
	if errs := rt.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// RunSum3 loads <k, A(k)> for n values, runs the replication program, and
// returns the computed sum.
func RunSum3(ctx context.Context, rt *process.Runtime, n int, seed int64) (int64, error) {
	workload.LoadArray(rt.Engine().Store(), n, seed)
	if err := rt.Define(Sum3Def()); err != nil {
		return 0, err
	}
	if _, err := rt.Spawn("Sum3"); err != nil {
		return 0, err
	}
	if err := wait(ctx, rt); err != nil {
		return 0, err
	}
	return result(rt.Engine().Store())
}

// RunSum2 loads <k, A(k), 1>, spawns the Sum2(k, j) society, and returns
// the computed sum. n must be a power of two.
func RunSum2(ctx context.Context, rt *process.Runtime, n int, seed int64) (int64, error) {
	if n&(n-1) != 0 || n < 2 {
		return 0, fmt.Errorf("arraysum: n must be a power of two, got %d", n)
	}
	workload.LoadArrayPhased(rt.Engine().Store(), n, seed)
	if err := rt.Define(Sum2Def()); err != nil {
		return 0, err
	}
	for j := int64(1); 1<<j <= int64(n); j++ {
		for k := int64(1); k <= int64(n); k++ {
			if k%(1<<j) == 0 {
				if _, err := rt.Spawn("Sum2", tuple.Int(k), tuple.Int(j)); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := wait(ctx, rt); err != nil {
		return 0, err
	}
	s := rt.Engine().Store()
	if s.Len() != 1 {
		return 0, fmt.Errorf("arraysum: %d tuples left, want 1", s.Len())
	}
	var got int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			got, _ = inst.Tuple.Field(1).AsInt()
			return false
		})
	})
	return got, nil
}

// RunSum1 loads <k, A(k)>, spawns Sum1(k, 1) for even k, and returns the
// computed sum. n must be a power of two.
func RunSum1(ctx context.Context, rt *process.Runtime, n int, seed int64) (int64, error) {
	if n&(n-1) != 0 || n < 2 {
		return 0, fmt.Errorf("arraysum: n must be a power of two, got %d", n)
	}
	workload.LoadArray(rt.Engine().Store(), n, seed)
	if err := rt.Define(Sum1Def()); err != nil {
		return 0, err
	}
	// The phase barrier is a consensus over every live Sum1 process, so the
	// initial community must be registered as a group: spawning one by one
	// would let an early member's consensus fire before the rest exist.
	reqs := make([]process.SpawnReq, 0, n/2)
	for k := int64(2); k <= int64(n); k += 2 {
		reqs = append(reqs, process.SpawnReq{
			Type: "Sum1",
			Args: []tuple.Value{tuple.Int(k), tuple.Int(1)},
		})
	}
	if _, err := rt.SpawnGroup(reqs); err != nil {
		return 0, err
	}
	if err := wait(ctx, rt); err != nil {
		return 0, err
	}
	return result(rt.Engine().Store())
}

// NewRuntime builds a fresh runtime for one summation run.
func NewRuntime() *process.Runtime {
	return process.NewRuntime(txn.New(dataspace.New()), nil)
}

// CloseRuntime tears a runtime down.
func CloseRuntime(rt *process.Runtime) {
	rt.Shutdown()
	rt.Consensus().Close()
}
