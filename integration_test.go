package sdl_test

// Full-system integration: one scenario exercising processes, views,
// delayed transactions, consensus, replication, tracing with replay, the
// watcher, and checkpointing — through the public API only.

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	sdl "github.com/sdl-lang/sdl"
)

func TestFullSystemScenario(t *testing.T) {
	sys := sdl.New(sdl.Options{Trace: -1})
	defer sys.Close()

	var samples atomic.Int32
	watcher := sdl.NewWatcher(sys.Store, time.Millisecond, func(r sdl.Reader) {
		samples.Add(1)
	})

	// Stage 1 — producers: each emits its value as <raw, i, v>.
	if err := sys.Define(&sdl.Definition{
		Name:   "Produce",
		Params: []string{"i", "v"},
		Body: []sdl.Stmt{sdl.Transact{
			Kind:    sdl.Immediate,
			Query:   sdl.Query{Quant: sdl.Exists},
			Asserts: []sdl.Pattern{sdl.P(sdl.C(sdl.Atom("raw")), sdl.V("i"), sdl.V("v"))},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	// Stage 2 — a replication worker squares every raw into <cooked, i, v²>,
	// counting down the shared <remaining, n> tuple in the same atomic
	// transaction. The counter is what lets stage 3 know production is
	// complete — without it the tallies' consensus could fire before any
	// cooking happened, the "premature termination" the paper warns the
	// community model about (and exactly what an earlier version of this
	// test did under unlucky scheduling).
	if err := sys.Define(&sdl.Definition{
		Name: "Cook",
		Body: []sdl.Stmt{sdl.Replicate{Branches: []sdl.Branch{{
			Guard: sdl.Transact{
				Kind: sdl.Immediate,
				Query: sdl.Q(
					sdl.R(sdl.C(sdl.Atom("raw")), sdl.V("i"), sdl.V("v")),
					sdl.R(sdl.C(sdl.Atom("remaining")), sdl.V("n")),
				),
				Asserts: []sdl.Pattern{
					sdl.P(sdl.C(sdl.Atom("cooked")), sdl.V("i"),
						sdl.E(sdl.Mul(sdl.X("v"), sdl.X("v")))),
					sdl.P(sdl.C(sdl.Atom("remaining")),
						sdl.E(sdl.Sub(sdl.X("n"), sdl.Lit(sdl.Int(1))))),
				},
			},
		}}}},
	}); err != nil {
		t.Fatal(err)
	}

	// Stage 3 — two tallies, each with a view over half the keyspace,
	// folding cooked tuples into a private sum; when production is done
	// (<remaining, 0>) and a tally's window holds no cooked tuples, it is
	// willing to synchronize. Their imports overlap on the <remaining>
	// tuple, so the two tallies are one consensus community and emit their
	// totals together.
	tallyView := func(parity int64) sdl.ViewFunc {
		return func(sdl.Scope) sdl.View {
			imp := sdl.Union(
				sdl.PatWhere(
					sdl.P(sdl.C(sdl.Atom("cooked")), sdl.V("i"), sdl.W()),
					sdl.Eq(sdl.Mod(sdl.X("i"), sdl.Lit(sdl.Int(2))), sdl.Lit(sdl.Int(parity))),
				),
				sdl.Pat(sdl.P(sdl.C(sdl.Atom("sum")), sdl.C(sdl.Int(parity)), sdl.W())),
				sdl.Pat(sdl.P(sdl.C(sdl.Atom("remaining")), sdl.W())),
			)
			return sdl.NewView(imp, sdl.Everything())
		}
	}
	tallyDef := func(name string, parity int64) *sdl.Definition {
		return &sdl.Definition{
			Name: name,
			View: tallyView(parity),
			Body: []sdl.Stmt{sdl.Repeat{Branches: []sdl.Branch{
				{Guard: sdl.Transact{
					Kind: sdl.Immediate,
					Query: sdl.Q(
						sdl.R(sdl.C(sdl.Atom("cooked")), sdl.W(), sdl.V("v")),
						sdl.R(sdl.C(sdl.Atom("sum")), sdl.C(sdl.Int(parity)), sdl.V("s")),
					),
					Asserts: []sdl.Pattern{sdl.P(sdl.C(sdl.Atom("sum")), sdl.C(sdl.Int(parity)),
						sdl.E(sdl.Add(sdl.X("s"), sdl.X("v"))))},
				}},
				{Guard: sdl.Transact{
					Kind: sdl.Consensus,
					Query: sdl.Q(
						sdl.P(sdl.C(sdl.Atom("remaining")), sdl.C(sdl.Int(0))),
						sdl.N(sdl.C(sdl.Atom("cooked")), sdl.W(), sdl.W()),
						sdl.P(sdl.C(sdl.Atom("sum")), sdl.C(sdl.Int(parity)), sdl.V("s")),
					),
					Asserts: []sdl.Pattern{sdl.P(sdl.C(sdl.Atom("total")), sdl.V("s"))},
					Actions: []sdl.Action{sdl.Exit{}},
				}},
			}}},
		}
	}
	if err := sys.Define(tallyDef("TallyEven", 0), tallyDef("TallyOdd", 1)); err != nil {
		t.Fatal(err)
	}

	// Seed and launch everything concurrently.
	const n = 24
	sys.Store.Assert(sdl.Environment,
		sdl.NewTuple(sdl.Atom("sum"), sdl.Int(0), sdl.Int(0)),
		sdl.NewTuple(sdl.Atom("sum"), sdl.Int(1), sdl.Int(0)),
		sdl.NewTuple(sdl.Atom("remaining"), sdl.Int(n)),
	)
	var want0, want1 int64
	for i := int64(1); i <= n; i++ {
		if _, err := sys.SpawnVals("Produce", sdl.Int(i), sdl.Int(i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			want0 += i * i
		} else {
			want1 += i * i
		}
	}
	// A replication quiesces when no guard fires against a stable
	// configuration, so Cook must not start before production exists;
	// wait for every producer to commit. (In a long-running program the
	// Cook stage would instead be gated on a delayed transaction.)
	deadline := time.Now().Add(30 * time.Second)
	for {
		raws := 0
		sys.Store.Snapshot(func(r sdl.Reader) {
			r.Scan(3, sdl.Atom("raw"), true, func(sdl.TupleID, sdl.Tuple) bool {
				raws++
				return true
			})
		})
		if raws == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producers stalled at %d/%d", raws, n)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sys.SpawnVals("Cook"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SpawnVals("TallyEven"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SpawnVals("TallyOdd"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sys.Runtime.WaitCtx(ctx); err != nil {
		t.Fatalf("society did not drain: %v\nsociety: %+v", err, sys.Runtime.Society())
	}
	for _, err := range sys.Runtime.Errors() {
		t.Errorf("process error: %v", err)
	}
	watcher.Stop()
	if samples.Load() == 0 {
		t.Error("watcher took no samples")
	}

	// Results: the two totals must partition the sum of squares.
	totals := sys.CollectInt(sdl.Atom("total"))
	if len(totals) != 2 {
		t.Fatalf("totals = %v", totals)
	}
	if totals[0]+totals[1] != want0+want1 {
		t.Errorf("totals = %v, want parts of %d", totals, want0+want1)
	}
	seen := map[int64]bool{totals[0]: true, totals[1]: true}
	if !seen[want0] || !seen[want1] {
		t.Errorf("totals = %v, want {%d, %d}", totals, want0, want1)
	}
	// Exactly one consensus fired (both tallies share the barrier tuple).
	if fires := sys.Cons.Fires(); fires != 1 {
		t.Errorf("consensus fires = %d, want 1", fires)
	}

	// Trace replay at head must equal the live store.
	replay := sys.Recorder.ReplayAt(sys.Store.Version())
	if len(replay) != sys.Store.Len() {
		t.Errorf("replay = %d instances, store = %d", len(replay), sys.Store.Len())
	}

	// Checkpoint round trip preserves everything.
	var buf bytes.Buffer
	if err := sys.Store.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := sdl.NewStore()
	if err := restored.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != sys.Store.Len() || restored.Version() != sys.Store.Version() {
		t.Errorf("restored %d/%d, want %d/%d",
			restored.Len(), restored.Version(), sys.Store.Len(), sys.Store.Version())
	}
}
