// Arraysum runs the paper's three §3.1 parallel-summation programs over
// the same array and compares them — the paper's first programming-style
// discussion, and experiment E1.
//
//	go run ./examples/arraysum [-n 256]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	sdl "github.com/sdl-lang/sdl"
)

func main() {
	n := flag.Int("n", 256, "array length (power of two)")
	flag.Parse()
	if err := run(*n); err != nil {
		fmt.Fprintln(os.Stderr, "arraysum:", err)
		os.Exit(1)
	}
}

func iv(n int64) sdl.Expr { return sdl.Lit(sdl.Int(n)) }

// sum3 is the replication one-liner the paper prefers:
//
//	≋ [ ∃ν,µ,α,β: <ν,α>!, <µ,β>! : ν ≠ µ → <µ, α+β> ]
func sum3() *sdl.Definition {
	return &sdl.Definition{
		Name: "Sum3",
		Body: []sdl.Stmt{sdl.Replicate{Branches: []sdl.Branch{{
			Guard: sdl.Transact{
				Kind: sdl.Immediate,
				Query: sdl.Q(
					sdl.R(sdl.V("n"), sdl.V("a")),
					sdl.R(sdl.V("m"), sdl.V("b")),
				).Where(sdl.Ne(sdl.X("n"), sdl.X("m"))),
				Asserts: []sdl.Pattern{sdl.P(sdl.V("m"), sdl.E(sdl.Add(sdl.X("a"), sdl.X("b"))))},
			},
		}}}},
	}
}

// sum2 is the asynchronous phase-tagged program.
func sum2() *sdl.Definition {
	return &sdl.Definition{
		Name:   "Sum2",
		Params: []string{"k", "j"},
		Body: []sdl.Stmt{sdl.Transact{
			Kind: sdl.Delayed,
			Query: sdl.Q(
				sdl.R(
					sdl.E(sdl.Sub(sdl.X("k"), sdl.Call("pow2", sdl.Sub(sdl.X("j"), iv(1))))),
					sdl.V("alpha"), sdl.V("j"),
				),
				sdl.R(sdl.V("k"), sdl.V("beta"), sdl.V("j")),
			),
			Asserts: []sdl.Pattern{sdl.P(
				sdl.V("k"),
				sdl.E(sdl.Add(sdl.X("alpha"), sdl.X("beta"))),
				sdl.E(sdl.Add(sdl.X("j"), iv(1))),
			)},
		}},
	}
}

// sum1 is the synchronous program: a consensus transaction is the phase
// barrier, exactly as on a SIMD machine.
func sum1() *sdl.Definition {
	phase := sdl.Mod(sdl.X("k"), sdl.Call("pow2", sdl.Add(sdl.X("j"), iv(1))))
	return &sdl.Definition{
		Name:   "Sum1",
		Params: []string{"k", "j"},
		Body: []sdl.Stmt{
			sdl.Transact{
				Kind: sdl.Delayed,
				Query: sdl.Q(
					sdl.R(
						sdl.E(sdl.Sub(sdl.X("k"), sdl.Call("pow2", sdl.Sub(sdl.X("j"), iv(1))))),
						sdl.V("alpha"),
					),
					sdl.R(sdl.V("k"), sdl.V("beta")),
				),
				Asserts: []sdl.Pattern{sdl.P(sdl.V("k"), sdl.E(sdl.Add(sdl.X("alpha"), sdl.X("beta"))))},
			},
			sdl.Select{Branches: []sdl.Branch{
				{Guard: sdl.Transact{
					Kind:  sdl.Consensus,
					Query: sdl.Query{Quant: sdl.Exists, Test: sdl.Eq(phase, iv(0))},
					Actions: []sdl.Action{&sdl.Spawn{
						Type: "Sum1",
						Args: []sdl.Expr{sdl.X("k"), sdl.Add(sdl.X("j"), iv(1))},
					}},
				}},
				{Guard: sdl.Transact{
					Kind:  sdl.Consensus,
					Query: sdl.Query{Quant: sdl.Exists, Test: sdl.Ne(phase, iv(0))},
				}},
			}},
		},
	}
}

func run(n int) error {
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("n must be a power of two, got %d", n)
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	fmt.Printf("summing %d values, expected total %d\n\n", n, want)

	type variant struct {
		name  string
		setup func(sys *sdl.System) error
	}
	variants := []variant{
		{"Sum3 (replication — the paper's preferred form)", func(sys *sdl.System) error {
			for k, v := range values {
				sys.Store.Assert(sdl.Environment, sdl.NewTuple(sdl.Int(int64(k+1)), sdl.Int(v)))
			}
			if err := sys.Define(sum3()); err != nil {
				return err
			}
			_, err := sys.SpawnVals("Sum3")
			return err
		}},
		{"Sum2 (asynchronous, delayed transactions)", func(sys *sdl.System) error {
			for k, v := range values {
				sys.Store.Assert(sdl.Environment,
					sdl.NewTuple(sdl.Int(int64(k+1)), sdl.Int(v), sdl.Int(1)))
			}
			if err := sys.Define(sum2()); err != nil {
				return err
			}
			for j := int64(1); 1<<j <= int64(n); j++ {
				for k := int64(1); k <= int64(n); k++ {
					if k%(1<<j) == 0 {
						if _, err := sys.SpawnVals("Sum2", sdl.Int(k), sdl.Int(j)); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}},
		{"Sum1 (synchronous, consensus phase barriers)", func(sys *sdl.System) error {
			for k, v := range values {
				sys.Store.Assert(sdl.Environment, sdl.NewTuple(sdl.Int(int64(k+1)), sdl.Int(v)))
			}
			if err := sys.Define(sum1()); err != nil {
				return err
			}
			for k := int64(2); k <= int64(n); k += 2 {
				if _, err := sys.SpawnVals("Sum1", sdl.Int(k), sdl.Int(1)); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, v := range variants {
		sys := sdl.New(sdl.Options{})
		start := time.Now()
		if err := v.setup(sys); err != nil {
			sys.Close()
			return fmt.Errorf("%s: %w", v.name, err)
		}
		if err := sys.Runtime.WaitCtx(ctx); err != nil {
			sys.Close()
			return fmt.Errorf("%s: %w", v.name, err)
		}
		elapsed := time.Since(start)

		var got int64
		sys.Store.Snapshot(func(r sdl.Reader) {
			r.Each(func(inst sdl.Instance) bool {
				got, _ = inst.Tuple.Field(1).AsInt()
				return false
			})
		})
		status := "OK"
		if got != want {
			status = fmt.Sprintf("WRONG (got %d)", got)
		}
		fmt.Printf("%-52s  %8v  sum=%d  %s\n", v.name, elapsed.Round(time.Microsecond), got, status)
		sys.Close()
	}
	return nil
}
