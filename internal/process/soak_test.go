package process

// Randomized soak: pipelines of random shape (stage count, token count,
// movers per stage) built from delayed guards,
// repetitions, negation-based termination, and dynamic spawning. Each
// configuration must drain completely with every token accounted for —
// a liveness and atomicity workout across the whole runtime.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// stageDef builds the mover process for stage s: it shifts <s, i, v>
// tokens to <s+1, i, v+1>, and exits — forwarding the end-of-stream marker
// — once the stage is drained.
func stageDef() *Definition {
	return &Definition{
		Name:   "Stage",
		Params: []string{"s"},
		Body: []Stmt{Repeat{Branches: []Branch{
			{Guard: Transact{
				Kind:  Delayed,
				Query: pattern.Q(pattern.R(pattern.V("s"), pattern.V("i"), pattern.V("v"))),
				Asserts: []pattern.Pattern{pattern.P(
					pattern.E(expr.Add(expr.V("s"), expr.Const(tuple.Int(1)))),
					pattern.V("i"),
					pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))),
				)},
			}},
			{Guard: Transact{
				Kind: Delayed,
				Query: pattern.Q(
					pattern.P(pattern.C(tuple.Atom("eof")), pattern.V("s")),
					pattern.N(pattern.V("s"), pattern.W(), pattern.W()),
				),
				Asserts: []pattern.Pattern{pattern.P(
					pattern.C(tuple.Atom("eof")),
					pattern.E(expr.Add(expr.V("s"), expr.Const(tuple.Int(1)))),
				)},
				Actions: []Action{Exit{}},
			}},
		}}},
	}
}

func TestSoakRandomPipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(1988))
	for trial := 0; trial < 8; trial++ {
		stages := 1 + rng.Intn(4)
		tokens := 5 + rng.Intn(40)
		movers := 1 + rng.Intn(3)
		t.Logf("trial %d: stages=%d tokens=%d movers=%d", trial, stages, tokens, movers)

		s, rt := newRuntime(t)
		if err := rt.Define(stageDef()); err != nil {
			t.Fatal(err)
		}
		// Seed stage 0 and its end-of-stream marker.
		batch := make([]tuple.Tuple, 0, tokens+1)
		for i := 0; i < tokens; i++ {
			batch = append(batch, tuple.New(tuple.Int(0), tuple.Int(int64(i)), tuple.Int(0)))
		}
		batch = append(batch, tuple.New(tuple.Atom("eof"), tuple.Int(0)))
		s.Assert(tuple.Environment, batch...)

		for st := 0; st < stages; st++ {
			for w := 0; w < movers; w++ {
				if _, err := rt.Spawn("Stage", tuple.Int(int64(st))); err != nil {
					t.Fatal(err)
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := rt.WaitCtx(ctx)
		cancel()
		if err != nil {
			t.Fatalf("trial %d stalled: %v\nsociety: %+v", trial, err, rt.Society())
		}
		for _, perr := range rt.Errors() {
			t.Fatalf("trial %d process error: %v", trial, perr)
		}

		// Every token must sit at the final stage with v == stages, and
		// every eof marker 0..stages must exist exactly once per... the
		// final marker is asserted once per mover of the last stage; count
		// tokens strictly.
		got := 0
		s.Snapshot(func(r dataspace.Reader) {
			r.Scan(3, tuple.Int(int64(stages)), true, func(_ tuple.ID, tp tuple.Tuple) bool {
				v, _ := tp.Field(2).AsInt()
				if v != int64(stages) {
					t.Errorf("trial %d: token %v at wrong version", trial, tp)
				}
				got++
				return true
			})
			// No stragglers at earlier stages.
			for st := 0; st < stages; st++ {
				r.Scan(3, tuple.Int(int64(st)), true, func(_ tuple.ID, tp tuple.Tuple) bool {
					t.Errorf("trial %d: straggler %v at stage %d", trial, tp, st)
					return true
				})
			}
		})
		if got != tokens {
			t.Errorf("trial %d: %d tokens at final stage, want %d", trial, got, tokens)
		}
	}
}
