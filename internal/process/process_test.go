package process

import (
	"errors"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
)

// newRuntime builds a runtime over a fresh store, cleaning up at test end.
func newRuntime(t *testing.T) (*dataspace.Store, *Runtime) {
	t.Helper()
	s := dataspace.New()
	e := txn.New(s)
	rt := NewRuntime(e, nil)
	t.Cleanup(func() {
		rt.Shutdown()
		rt.Consensus().Close()
	})
	return s, rt
}

// waitDone waits for the society to empty, failing the test on timeout.
func waitDone(t *testing.T, rt *Runtime, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { rt.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("society not empty after %v (running=%d)", d, rt.Running())
	}
	for _, err := range rt.Errors() {
		t.Errorf("process error: %v", err)
	}
}

func atom(s string) tuple.Value { return tuple.Atom(s) }

func TestDefineAndSpawnValidation(t *testing.T) {
	_, rt := newRuntime(t)
	def := &Definition{Name: "P", Params: []string{"x"}}
	if err := rt.Define(def); err != nil {
		t.Fatal(err)
	}
	if err := rt.Define(def); err == nil {
		t.Error("duplicate Define should fail")
	}
	if err := rt.Define(nil); err == nil {
		t.Error("nil Define should fail")
	}
	if _, err := rt.Spawn("NoSuch"); !errors.Is(err, ErrUnknownDefinition) {
		t.Errorf("err = %v", err)
	}
	if _, err := rt.Spawn("P"); !errors.Is(err, ErrArity) {
		t.Errorf("err = %v", err)
	}
	if _, err := rt.Spawn("P", tuple.Int(1)); err != nil {
		t.Errorf("valid spawn failed: %v", err)
	}
	waitDone(t, rt, 2*time.Second)
}

func TestSequenceAndAssert(t *testing.T) {
	s, rt := newRuntime(t)
	err := rt.Define(&Definition{
		Name:   "Asserter",
		Params: []string{"n"},
		Body: []Stmt{
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("out")), pattern.V("n"))},
			},
			Transact{
				Kind:  Immediate,
				Query: pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(
					pattern.C(atom("out")),
					pattern.E(expr.Add(expr.V("n"), expr.Const(tuple.Int(1)))),
				)},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Asserter", tuple.Int(10)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	got := map[int64]bool{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("out"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			n, _ := tp.Field(1).AsInt()
			got[n] = true
			return true
		})
	})
	if !got[10] || !got[11] {
		t.Errorf("outputs = %v", got)
	}
}

func TestImmediateFailureContinuesSequence(t *testing.T) {
	s, rt := newRuntime(t)
	err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Transact{Kind: Immediate, Query: pattern.Q(pattern.P(pattern.C(atom("missing"))))},
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("reached")))},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	if s.Len() != 1 {
		t.Errorf("store len = %d; failed immediate should not stop the sequence", s.Len())
	}
}

func TestDelayedStatementBlocksAndResumes(t *testing.T) {
	s, rt := newRuntime(t)
	err := rt.Define(&Definition{
		Name: "Waiter",
		Body: []Stmt{
			Transact{
				Kind:    Delayed,
				Query:   pattern.Q(pattern.R(pattern.C(atom("go")), pattern.V("x"))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("went")), pattern.V("x"))},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Waiter"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if rt.Running() != 1 {
		t.Fatal("waiter terminated prematurely")
	}
	s.Assert(tuple.Environment, tuple.New(atom("go"), tuple.Int(5)))
	waitDone(t, rt, 2*time.Second)
	found := false
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("went"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			found = tp.Field(1).Equal(tuple.Int(5))
			return false
		})
	})
	if !found {
		t.Error("went tuple missing")
	}
}

func TestLetBindsConstantForLaterStatements(t *testing.T) {
	s, rt := newRuntime(t)
	// let N = a; assert <const, N> in a later transaction.
	err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Transact{
				Kind:    Immediate,
				Query:   pattern.Q(pattern.R(pattern.C(atom("year")), pattern.V("a"))),
				Actions: []Action{Let{Name: "N", Expr: expr.V("a")}},
			},
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("const")), pattern.V("N"))},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(atom("year"), tuple.Int(90)))
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	found := false
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("const"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			found = tp.Field(1).Equal(tuple.Int(90))
			return false
		})
	})
	if !found {
		t.Error("let-bound constant not visible to later statement")
	}
}

func TestSpawnActionCreatesProcess(t *testing.T) {
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name:   "Child",
		Params: []string{"v"},
		Body: []Stmt{Transact{
			Kind:    Immediate,
			Query:   pattern.Query{Quant: pattern.Exists},
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("child")), pattern.V("v"))},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Define(&Definition{
		Name: "Parent",
		Body: []Stmt{Transact{
			Kind:  Immediate,
			Query: pattern.Q(pattern.P(pattern.C(atom("year")), pattern.V("a"))),
			Actions: []Action{&Spawn{
				Type: "Child",
				Args: []expr.Expr{expr.Add(expr.V("a"), expr.Const(tuple.Int(1)))},
			}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(atom("year"), tuple.Int(87)))
	if _, err := rt.Spawn("Parent"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	if rt.SpawnCount() != 2 {
		t.Errorf("spawned = %d", rt.SpawnCount())
	}
	found := false
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("child"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			found = tp.Field(1).Equal(tuple.Int(88))
			return false
		})
	})
	if !found {
		t.Error("child tuple missing")
	}
}

func TestAbortStopsProcess(t *testing.T) {
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Actions: []Action{Abort{}},
			},
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("unreachable")))},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	if s.Len() != 0 {
		t.Error("statement after abort executed")
	}
}

func TestSelectionPicksExactlyOneGuard(t *testing.T) {
	s, rt := newRuntime(t)
	branch := func(tag string) Branch {
		return Branch{Guard: Transact{
			Kind:    Immediate,
			Query:   pattern.Q(pattern.R(pattern.C(atom("tok")))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom(tag)))},
		}}
	}
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{Select{Branches: []Branch{branch("a"), branch("b")}}},
	}); err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(atom("tok")))
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	if s.Len() != 1 {
		t.Errorf("store len = %d, want exactly one branch effect", s.Len())
	}
}

func TestSelectionAllImmediateFailIsSkip(t *testing.T) {
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Select{Branches: []Branch{{Guard: Transact{
				Kind:  Immediate,
				Query: pattern.Q(pattern.P(pattern.C(atom("missing")))),
			}}}},
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("after")))},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	if s.Len() != 1 {
		t.Error("failed selection should act as skip and continue")
	}
}

func TestSelectionDelayedGuardBlocks(t *testing.T) {
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{Select{Branches: []Branch{
			{Guard: Transact{
				Kind:    Delayed,
				Query:   pattern.Q(pattern.R(pattern.C(atom("a")), pattern.V("x"))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("got_a")), pattern.V("x"))},
			}},
			{Guard: Transact{
				Kind:    Delayed,
				Query:   pattern.Q(pattern.R(pattern.C(atom("b")), pattern.V("x"))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("got_b")), pattern.V("x"))},
			}},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if rt.Running() != 1 {
		t.Fatal("selection with delayed guards should block")
	}
	s.Assert(tuple.Environment, tuple.New(atom("b"), tuple.Int(7)))
	waitDone(t, rt, 2*time.Second)
	found := false
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("got_b"), true, func(tuple.ID, tuple.Tuple) bool {
			found = true
			return false
		})
	})
	if !found {
		t.Error("delayed guard b did not fire")
	}
}

func TestRepeatDrainsAndTerminates(t *testing.T) {
	// The paper's index/value pairing repetition, simplified: pair each
	// positive index with a fresh output; drop non-positive indices;
	// terminate when no index tuples remain.
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "Pairer",
		Body: []Stmt{Repeat{Branches: []Branch{
			{Guard: Transact{
				Kind: Immediate,
				Query: pattern.Q(pattern.R(pattern.C(atom("index")), pattern.V("p"))).
					Where(expr.Gt(expr.V("p"), expr.Const(tuple.Int(0)))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("paired")), pattern.V("p"))},
			}},
			{Guard: Transact{
				Kind: Immediate,
				Query: pattern.Q(pattern.R(pattern.C(atom("index")), pattern.V("p"))).
					Where(expr.Le(expr.V("p"), expr.Const(tuple.Int(0)))),
			}},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(-2); i <= 3; i++ {
		s.Assert(tuple.Environment, tuple.New(atom("index"), tuple.Int(i)))
	}
	if _, err := rt.Spawn("Pairer"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 5*time.Second)
	var paired, index int
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, atom("paired"), true, func(tuple.ID, tuple.Tuple) bool { paired++; return true })
		r.Scan(2, atom("index"), true, func(tuple.ID, tuple.Tuple) bool { index++; return true })
	})
	if paired != 3 || index != 0 {
		t.Errorf("paired=%d index=%d", paired, index)
	}
}

func TestRepeatExitAction(t *testing.T) {
	s, rt := newRuntime(t)
	// Repetition that consumes tokens but exits on the stop token even
	// though more work remains.
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Repeat{Branches: []Branch{
				{Guard: Transact{
					Kind:    Immediate,
					Query:   pattern.Q(pattern.R(pattern.C(atom("stop")))),
					Actions: []Action{Exit{}},
				}},
				{Guard: Transact{
					Kind:    Immediate,
					Query:   pattern.Q(pattern.R(pattern.C(atom("work")))),
					Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("done_one")))},
				}},
			}},
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("after_repeat")))},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(atom("stop")))
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 2*time.Second)
	var after bool
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(1, atom("after_repeat"), true, func(tuple.ID, tuple.Tuple) bool {
			after = true
			return false
		})
	})
	if !after {
		t.Error("exit did not continue after the repetition")
	}
}

func TestReplicateGuardValidation(t *testing.T) {
	_, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "Bad",
		Body: []Stmt{Replicate{Branches: []Branch{{Guard: Transact{
			Kind:  Delayed,
			Query: pattern.Query{Quant: pattern.Exists},
		}}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Bad"); err != nil {
		t.Fatal(err)
	}
	rt.Wait()
	errs := rt.Errors()
	if len(errs) != 1 || !errors.Is(errs[0], ErrReplicationGuard) {
		t.Errorf("errors = %v", errs)
	}
}

func TestRuntimeShutdownCancelsBlockedProcesses(t *testing.T) {
	_, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "Stuck",
		Body: []Stmt{Transact{
			Kind:  Delayed,
			Query: pattern.Q(pattern.P(pattern.C(atom("never")))),
		}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Spawn("Stuck"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	rt.Shutdown()
	if rt.Running() != 0 {
		t.Errorf("running = %d after Shutdown", rt.Running())
	}
	if _, err := rt.Spawn("Stuck"); !errors.Is(err, ErrRuntimeClosed) {
		t.Errorf("spawn after shutdown: %v", err)
	}
}

func TestSelectionFairnessRotation(t *testing.T) {
	// Two always-enabled guards in a repetition: both must be selected
	// over the run ("an arbitrary one of them is selected" — our
	// implementation rotates).
	s, rt := newRuntime(t)
	for i := 0; i < 20; i++ {
		s.Assert(tuple.Environment, tuple.New(atom("tok"), tuple.Int(int64(i))))
	}
	branch := func(tag string) Branch {
		return Branch{Guard: Transact{
			Kind:    Immediate,
			Query:   pattern.Q(pattern.R(pattern.C(atom("tok")), pattern.V("i"))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom(tag)), pattern.V("i"))},
		}}
	}
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{Repeat{Branches: []Branch{branch("a"), branch("b")}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 5*time.Second)
	count := func(tag string) int {
		n := 0
		s.Snapshot(func(r dataspace.Reader) {
			r.Scan(2, atom(tag), true, func(tuple.ID, tuple.Tuple) bool { n++; return true })
		})
		return n
	}
	na, nb := count("a"), count("b")
	if na+nb != 20 {
		t.Fatalf("a=%d b=%d", na, nb)
	}
	if na == 0 || nb == 0 {
		t.Errorf("guard starvation: a=%d b=%d", na, nb)
	}
}

func TestNestedConstructs(t *testing.T) {
	// A repetition containing a selection whose branch body contains
	// another transaction; exit in the inner selection terminates the
	// outer repetition (per the paper: "the exit action terminates the
	// guarded sequence and the repetition").
	s, rt := newRuntime(t)
	s.Assert(tuple.Environment,
		tuple.New(atom("work"), tuple.Int(1)),
		tuple.New(atom("work"), tuple.Int(2)),
		tuple.New(atom("halt")))
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{
			Repeat{Branches: []Branch{
				{
					Guard: Transact{
						Kind:    Immediate,
						Query:   pattern.Q(pattern.R(pattern.C(atom("work")), pattern.V("i"))),
						Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("did")), pattern.V("i"))},
					},
					Body: []Stmt{Select{Branches: []Branch{{
						Guard: Transact{
							Kind:    Immediate,
							Query:   pattern.Q(pattern.P(pattern.C(atom("did")), pattern.C(tuple.Int(2)))),
							Actions: []Action{Exit{}},
						},
					}}}},
				},
			}},
			Transact{
				Kind:    Immediate,
				Query:   pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("after")))},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 5*time.Second)
	var after int
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(1, atom("after"), true, func(tuple.ID, tuple.Tuple) bool { after++; return true })
	})
	if after != 1 {
		t.Errorf("after = %d; exit should terminate the repetition and continue", after)
	}
}

func TestReplicationMultipleBranches(t *testing.T) {
	// Two branch families drain two tuple populations concurrently.
	s, rt := newRuntime(t)
	for i := 0; i < 30; i++ {
		s.Assert(tuple.Environment, tuple.New(atom("xs"), tuple.Int(int64(i))))
		s.Assert(tuple.Environment, tuple.New(atom("ys"), tuple.Int(int64(i))))
	}
	mk := func(from, to string) Branch {
		return Branch{Guard: Transact{
			Kind:    Immediate,
			Query:   pattern.Q(pattern.R(pattern.C(atom(from)), pattern.V("i"))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom(to)), pattern.V("i"))},
		}}
	}
	if err := rt.Define(&Definition{
		Name: "Drain",
		Body: []Stmt{Replicate{Branches: []Branch{mk("xs", "xd"), mk("ys", "yd")}, Workers: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Drain"); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rt, 10*time.Second)
	count := func(tag string) int {
		n := 0
		s.Snapshot(func(r dataspace.Reader) {
			r.Scan(2, atom(tag), true, func(tuple.ID, tuple.Tuple) bool { n++; return true })
		})
		return n
	}
	if count("xd") != 30 || count("yd") != 30 || count("xs") != 0 || count("ys") != 0 {
		t.Errorf("xd=%d yd=%d xs=%d ys=%d", count("xd"), count("yd"), count("xs"), count("ys"))
	}
}

func TestSocietyIntrospection(t *testing.T) {
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "Stuck",
		Body: []Stmt{Transact{
			Kind:  Delayed,
			Query: pattern.Q(pattern.P(pattern.C(atom("never")))),
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Define(&Definition{
		Name: "Waiting",
		Body: []Stmt{Select{Branches: []Branch{{
			Guard: Transact{
				Kind:  Delayed,
				Query: pattern.Q(pattern.P(pattern.C(atom("also_never")))),
			},
		}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Stuck"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Waiting"); err != nil {
		t.Fatal(err)
	}
	// Wait until both are blocked.
	deadline := time.Now().Add(5 * time.Second)
	var soc []ProcessInfo
	for time.Now().Before(deadline) {
		soc = rt.Society()
		blocked := 0
		for _, p := range soc {
			if p.State != StateRunning {
				blocked++
			}
		}
		if len(soc) == 2 && blocked == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(soc) != 2 {
		t.Fatalf("society = %+v", soc)
	}
	states := map[string]State{}
	for _, p := range soc {
		states[p.Type] = p.State
	}
	if states["Stuck"] != StateBlockedDelayed {
		t.Errorf("Stuck state = %v", states["Stuck"])
	}
	if states["Waiting"] != StateBlockedSelect {
		t.Errorf("Waiting state = %v", states["Waiting"])
	}
	// Unblock one and check it leaves the society.
	s.Assert(tuple.Environment, tuple.New(atom("never")))
	for time.Now().Before(deadline) && len(rt.Society()) != 1 {
		time.Sleep(time.Millisecond)
	}
	if got := rt.Society(); len(got) != 1 || got[0].Type != "Waiting" {
		t.Errorf("society after unblock = %+v", got)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateRunning: "running", StateBlockedDelayed: "blocked-delayed",
		StateBlockedConsensus: "blocked-consensus", StateBlockedSelect: "blocked-select",
		State(0): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

// A selection blocked on a delayed guard holds ONE subscription for the
// whole wait: covering commits wake it to re-try its guards, but it neither
// re-registers per pass nor leaks the registration when it finally commits.
func TestSelectionHoldsOneSubscription(t *testing.T) {
	s, rt := newRuntime(t)
	if err := rt.Define(&Definition{
		Name: "P",
		Body: []Stmt{Select{Branches: []Branch{{Guard: Transact{
			Kind:    Delayed,
			Query:   pattern.Q(pattern.R(pattern.C(atom("go")), pattern.C(tuple.Int(1)))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("went")))},
		}}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("P"); err != nil {
		t.Fatal(err)
	}
	// awaitBlocked waits until the selection has evaluated its guard
	// `attempts` times and is blocked again.
	awaitBlocked := func(attempts uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			soc := rt.Society()
			if rt.engine.Stats().Attempts >= attempts && len(soc) == 1 && soc[0].State == StateBlockedSelect {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("selection not blocked after %d attempts: society %+v, attempts %d",
					attempts, soc, rt.engine.Stats().Attempts)
			}
			time.Sleep(time.Millisecond)
		}
	}
	live := func() int64 { return s.Metrics().Snapshot().ReactiveSubscriptions }

	awaitBlocked(2) // the first pass, then the re-try after subscribing
	if n := live(); n != 1 {
		t.Fatalf("blocked selection holds %d subscriptions, want 1", n)
	}
	const covering = 10
	for k := 0; k < covering; k++ {
		// Same index bucket as the guard, never a match.
		s.Assert(tuple.Environment, tuple.New(atom("go"), tuple.Int(int64(-k))))
		awaitBlocked(uint64(3 + k))
		if n := live(); n != 1 {
			t.Fatalf("after covering commit %d: %d live subscriptions, want 1", k, n)
		}
	}
	s.Assert(tuple.Environment, tuple.New(atom("go"), tuple.Int(1)))
	waitDone(t, rt, 2*time.Second)

	snap := s.Metrics().Snapshot()
	if snap.ReactiveSubscriptions != 0 {
		t.Errorf("%d subscriptions live after the selection committed, want 0", snap.ReactiveSubscriptions)
	}
	// The covering commits, the release, and the selection's own retraction
	// of <go, 1> (committed while it is still subscribed).
	if snap.ReactiveSignals != covering+2 || snap.ReactiveSuppressed != 0 {
		t.Errorf("signals=%d suppressed=%d, want %d/0: every covering commit wakes a nil-filter subscription",
			snap.ReactiveSignals, snap.ReactiveSuppressed, covering+2)
	}
	if snap.ReactiveEvals != 0 {
		t.Errorf("selection wakeups counted as %d reactive evals, want 0", snap.ReactiveEvals)
	}
}
