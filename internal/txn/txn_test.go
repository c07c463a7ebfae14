package txn

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

func year(n int64) tuple.Tuple { return tuple.New(tuple.Atom("year"), tuple.Int(n)) }

// stableIDs runs fn as the subtests "coarse" and "optimistic": the IDs these
// scenarios had when the engine offered two concurrency-control modes, kept
// so the suite's test IDs stay stable. Both run the one engine.
func stableIDs(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("coarse", fn)
	t.Run("optimistic", fn)
}

func TestImmediatePaperExample(t *testing.T) {
	// ∃α: <year, α>! : α > 87 → (found, α)
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85), year(90))
		e := New(s)
		res, err := e.Immediate(Request{
			Proc: 1,
			View: view.Universal(),
			Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("year")), pattern.V("a"))).
				Where(expr.Gt(expr.V("a"), expr.Const(tuple.Int(87)))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Atom("found")), pattern.V("a")),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatal("transaction failed")
		}
		if res.Env["a"] != tuple.Int(90) {
			t.Errorf("a = %v", res.Env["a"])
		}
		if len(res.Retracted) != 1 || !res.Retracted[0].Tuple.Equal(year(90)) {
			t.Errorf("retracted = %v", res.Retracted)
		}
		if len(res.Asserted) != 1 {
			t.Fatalf("asserted = %v", res.Asserted)
		}
		want := tuple.New(tuple.Atom("found"), tuple.Int(90))
		if !res.Asserted[0].Tuple.Equal(want) {
			t.Errorf("asserted %v, want %v", res.Asserted[0].Tuple, want)
		}
		if s.Len() != 2 { // year(85) + found(90)
			t.Errorf("store len = %d", s.Len())
		}
	})
}

func TestImmediateFailureHasNoEffect(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85))
		e := New(s)
		v0 := s.Version()
		res, err := e.Immediate(Request{
			Proc: 1,
			View: view.Universal(),
			Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("year")), pattern.V("a"))).
				Where(expr.Gt(expr.V("a"), expr.Const(tuple.Int(87)))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Atom("found")), pattern.V("a")),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			t.Fatal("should have failed")
		}
		if s.Version() != v0 || s.Len() != 1 {
			t.Error("failed transaction changed the dataspace")
		}
		st := e.Stats()
		if st.Failures != 1 || st.Commits != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestMembershipTestNoEffect(t *testing.T) {
	// A pure membership test commits without mutating (version unchanged).
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(87))
		e := New(s)
		v0 := s.Version()
		res, err := e.Immediate(Request{
			Proc:  1,
			View:  view.Universal(),
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.C(tuple.Int(87)))),
		})
		if err != nil || !res.OK {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		if s.Version() != v0 {
			t.Error("membership test bumped version")
		}
	})
}

func TestForAllCompositeEffect(t *testing.T) {
	// ∀α: <year, α>! : α > 87 → (old, α): retract all matching, assert one
	// tuple per solution, atomically.
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85), year(90), year(95))
		e := New(s)
		res, err := e.Immediate(Request{
			Proc: 1,
			View: view.Universal(),
			Query: pattern.QAll(pattern.R(pattern.C(tuple.Atom("year")), pattern.V("a"))).
				Where(expr.Gt(expr.V("a"), expr.Const(tuple.Int(87)))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Atom("old")), pattern.V("a")),
			},
		})
		if err != nil || !res.OK {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		if len(res.Solutions) != 2 || len(res.Retracted) != 2 || len(res.Asserted) != 2 {
			t.Errorf("sols=%d retracted=%d asserted=%d",
				len(res.Solutions), len(res.Retracted), len(res.Asserted))
		}
		if s.Len() != 3 { // year(85), old(90), old(95)
			t.Errorf("store len = %d", s.Len())
		}
	})
}

func TestForAllZeroSolutionsFails(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		e := New(s)
		res, err := e.Immediate(Request{
			Proc:  1,
			View:  view.Universal(),
			Query: pattern.QAll(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			t.Error("∀ with no matches should fail as a guard")
		}
	})
}

func TestViewRestrictsTransaction(t *testing.T) {
	// With the paper's `α ≤ 87` import view, the transaction cannot see
	// year(90).
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85), year(90))
		v := view.New(
			view.Union(view.PatWhere(
				pattern.P(pattern.C(tuple.Atom("year")), pattern.V("x")),
				expr.Le(expr.V("x"), expr.Const(tuple.Int(87))),
			)),
			view.Everything(),
		)
		e := New(s)
		res, err := e.Immediate(Request{
			Proc: 1,
			View: v,
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))).
				Where(expr.Gt(expr.V("a"), expr.Const(tuple.Int(87)))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			t.Error("view should hide year(90)")
		}
	})
}

func TestExportDropAndError(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85))
		v := view.New(
			view.Everything(),
			view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom("year")), pattern.W()))),
		)
		e := New(s)
		req := Request{
			Proc:  1,
			View:  v,
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Atom("noexport")), pattern.V("a")),
				pattern.P(pattern.C(tuple.Atom("year")), pattern.E(expr.Add(expr.V("a"), expr.Const(tuple.Int(1))))),
			},
		}
		res, err := e.Immediate(req)
		if err != nil || !res.OK {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		// Only the exportable tuple landed.
		if len(res.Asserted) != 1 || !res.Asserted[0].Tuple.Equal(year(86)) {
			t.Errorf("asserted = %v", res.Asserted)
		}

		req.Export = ExportError
		_, err = e.Immediate(req)
		if !errors.Is(err, ErrExportViolation) {
			t.Errorf("strict export err = %v", err)
		}
	})
}

// TestExportSeesTheSolution: an export clause is checked under the solution
// the assertion was grounded under — the request environment plus the
// query's bindings — for pattern and dynamic matchers alike. A ∀ query's
// rows are checked one by one.
func TestExportSeesTheSolution(t *testing.T) {
	out := tuple.Atom("out")
	for _, tc := range []struct {
		name   string
		export view.Matcher
	}{
		{"pattern", view.Pat(pattern.P(pattern.C(out), pattern.V("a")))},
		{"dynamic", view.Dyn(2, func(_ dataspace.Reader, env expr.Env, t tuple.Tuple) bool {
			a, ok := env["a"]
			return ok && t.Field(1).Equal(a)
		})},
	} {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85), year(86))
		req := Request{
			Proc:  1,
			View:  view.New(view.Everything(), view.Union(tc.export)),
			Query: pattern.QAll(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(out), pattern.V("a")),
				pattern.P(pattern.C(out), pattern.C(tuple.Int(86))),
			},
		}
		res, err := New(s).Immediate(req)
		if err != nil || !res.OK {
			t.Fatalf("%s: ok %v, err %v", tc.name, res.OK, err)
		}
		// <out, a> passes under both rows; <out, 86> only under a = 86.
		var got []int64
		for _, in := range res.Asserted {
			n, _ := in.Tuple.Field(1).AsInt()
			got = append(got, n)
		}
		if slices.Sort(got); !slices.Equal(got, []int64{85, 86, 86}) {
			t.Errorf("%s: asserted %v, want [85 86 86]", tc.name, got)
		}
	}
}

func TestExportErrorRollsBack(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(85))
		v := view.New(view.Everything(), view.Union()) // exports nothing
		e := New(s)
		_, err := e.Immediate(Request{
			Proc:    1,
			View:    v,
			Query:   pattern.Q(pattern.R(pattern.C(tuple.Atom("year")), pattern.V("a"))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("x")), pattern.V("a"))},
			Export:  ExportError,
		})
		if !errors.Is(err, ErrExportViolation) {
			t.Fatalf("err = %v", err)
		}
		if s.Len() != 1 {
			t.Error("rollback failed: retraction persisted")
		}
	})
}

func TestRetractOneInstanceLeavesOthers(t *testing.T) {
	// "retracting one instance of a tuple may leave other instances of it
	// in the dataspace."
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(87), year(87))
		e := New(s)
		res, err := e.Immediate(Request{
			Proc:  1,
			View:  view.Universal(),
			Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("year")), pattern.C(tuple.Int(87)))),
		})
		if err != nil || !res.OK {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		if s.Len() != 1 {
			t.Errorf("store len = %d, want 1", s.Len())
		}
	})
}

func TestDelayedBlocksUntilEnabled(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		e := New(s)
		done := make(chan Result, 1)
		go func() {
			res, err := e.Delayed(context.Background(), Request{
				Proc: 1,
				View: view.Universal(),
				Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))).
					Where(expr.Gt(expr.V("a"), expr.Const(tuple.Int(87)))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("new_year")))},
			})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		// Not enabled by an unrelated tuple or a too-small year.
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("noise"), tuple.Int(1)))
		s.Assert(tuple.Environment, year(80))
		select {
		case <-done:
			t.Fatal("delayed transaction fired prematurely")
		case <-time.After(30 * time.Millisecond):
		}
		s.Assert(tuple.Environment, year(90))
		select {
		case res := <-done:
			if !res.OK || res.Env["a"] != tuple.Int(90) {
				t.Errorf("res = %+v", res)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("delayed transaction never fired")
		}
	})
}

func TestDelayedContextCancel(t *testing.T) {
	s := dataspace.New()
	e := New(s)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Delayed(ctx, Request{
			Proc:  1,
			View:  view.Universal(),
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("never")))),
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Delayed did not observe cancellation")
	}
}

func TestDelayedImmediatelyEnabled(t *testing.T) {
	s := dataspace.New()
	s.Assert(tuple.Environment, year(90))
	e := New(s)
	res, err := e.Delayed(context.Background(), Request{
		Proc:  1,
		View:  view.Universal(),
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a")))},
	)
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// Serializability: concurrent read-modify-write increments of a counter
// tuple must not lose updates.
func TestConcurrentIncrementsSerializable(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("counter"), tuple.Int(0)))
		e := New(s)
		const workers = 8
		const perWorker = 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					res, err := e.Delayed(context.Background(), Request{
						Proc:  tuple.ProcessID(w + 1),
						View:  view.Universal(),
						Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("counter")), pattern.V("n"))),
						Asserts: []pattern.Pattern{pattern.P(
							pattern.C(tuple.Atom("counter")),
							pattern.E(expr.Add(expr.V("n"), expr.Const(tuple.Int(1)))),
						)},
					})
					if err != nil || !res.OK {
						t.Errorf("increment failed: %+v %v", res, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		var got int64
		s.Snapshot(func(r dataspace.Reader) {
			r.Scan(2, tuple.Atom("counter"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
				got, _ = tp.Field(1).AsInt()
				return false
			})
		})
		if got != workers*perWorker {
			t.Errorf("counter = %d, want %d", got, workers*perWorker)
		}
		if s.Len() != 1 {
			t.Errorf("store len = %d", s.Len())
		}
	})
}

// Two concurrent retractors of a single instance: exactly one must win.
func TestConcurrentRetractionExactlyOnce(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			s := dataspace.New()
			s.Assert(tuple.Environment, year(90))
			e := New(s)
			results := make(chan bool, 2)
			for w := 0; w < 2; w++ {
				go func(w int) {
					res, err := e.Immediate(Request{
						Proc:  tuple.ProcessID(w + 1),
						View:  view.Universal(),
						Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("year")), pattern.V("a"))),
					})
					if err != nil {
						t.Error(err)
					}
					results <- res.OK
				}(w)
			}
			wins := 0
			for i := 0; i < 2; i++ {
				if <-results {
					wins++
				}
			}
			if wins != 1 {
				t.Fatalf("trial %d: wins = %d, want exactly 1", trial, wins)
			}
			if s.Len() != 0 {
				t.Fatalf("trial %d: store len = %d", trial, s.Len())
			}
		}
	})
}

func TestQueryErrorPropagates(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(90))
		e := New(s)
		_, err := e.Immediate(Request{
			Proc: 1,
			View: view.Universal(),
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))).
				Where(expr.Add(expr.V("a"), expr.Const(tuple.Int(1)))), // non-bool test
		})
		if err == nil {
			t.Error("expected evaluation error")
		}
	})
}

func TestAssertGroundErrorFailsTransaction(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		s.Assert(tuple.Environment, year(90))
		e := New(s)
		_, err := e.Immediate(Request{
			Proc:    1,
			View:    view.Universal(),
			Query:   pattern.Q(pattern.R(pattern.C(tuple.Atom("year")), pattern.V("a"))),
			Asserts: []pattern.Pattern{pattern.P(pattern.V("unbound_var"))},
		})
		if err == nil {
			t.Fatal("expected ground error")
		}
		if s.Len() != 1 {
			t.Error("failed assertion did not roll back retraction")
		}
	})
}

func TestDelayedNegationOnlyQuery(t *testing.T) {
	// A delayed transaction whose query is a lone negation fires when the
	// blocking tuple is retracted.
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		ids := s.Assert(tuple.Environment, tuple.New(tuple.Atom("busy")))
		e := New(s)
		done := make(chan Result, 1)
		go func() {
			res, err := e.Delayed(context.Background(), Request{
				Proc:    1,
				View:    view.Universal(),
				Query:   pattern.Q(pattern.N(pattern.C(tuple.Atom("busy")))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("idle")))},
			})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		select {
		case <-done:
			t.Fatal("negation fired while busy tuple present")
		case <-time.After(30 * time.Millisecond):
		}
		_ = s.Update(tuple.Environment, func(w dataspace.Writer) error {
			return w.Delete(ids[0])
		})
		select {
		case res := <-done:
			if !res.OK {
				t.Error("not OK")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("negation-only delayed txn never fired after retract")
		}
	})
}

func BenchmarkImmediateReadOnly(b *testing.B) {
	s := dataspace.New()
	s.Assert(tuple.Environment, year(90))
	e := New(s)
	read := func(b *testing.B) {
		res, err := e.Immediate(Request{
			Proc:  1,
			View:  view.Universal(),
			Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))),
		})
		if err != nil || !res.OK {
			b.Error(res.OK, err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			read(b)
		}
	})
	// Concurrent readers of one bucket: they share the read path, so
	// throughput must not collapse to one reader at a time.
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				read(b)
			}
		})
	})
}

func BenchmarkImmediateRMW(b *testing.B) {
	s := dataspace.New()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("counter"), tuple.Int(0)))
	e := New(s)
	req := Request{
		Proc:  1,
		View:  view.Universal(),
		Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("counter")), pattern.V("n"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("counter")),
			pattern.E(expr.Add(expr.V("n"), expr.Const(tuple.Int(1)))))},
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Immediate(req)
		if err != nil || !res.OK {
			b.Fatal(res.OK, err)
		}
	}
}

// TestFieldIndexedQueryStaysUnplanned pins the footprintKeys contract: a
// pattern whose lead is unknown under the issuing environment stays off
// the key-latch plan even when its constant non-lead fields give the
// matcher an indexed access path — the field index changes which tuples a
// scan visits inside the locked footprint, not which shards the footprint
// locks. The lookups below promote their shape and are index-served, yet
// every mutating commit still publishes through the coarse full-store
// path.
func TestFieldIndexedQueryStaysUnplanned(t *testing.T) {
	s := dataspace.New(dataspace.WithShards(4))
	e := New(s)
	for i := 0; i < 32; i++ {
		s.Assert(tuple.Environment,
			tuple.New(tuple.Int(int64(i)), tuple.Atom("rec"), tuple.Int(int64(i%4))))
	}
	pre := s.Metrics().Snapshot()
	const lookups = 8
	for i := 0; i < lookups; i++ {
		res, err := e.Immediate(Request{
			Proc: 1,
			View: view.Universal(),
			Query: pattern.Q(pattern.P(
				pattern.V("x"), pattern.C(tuple.Atom("rec")), pattern.C(tuple.Int(int64(i%4))))),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.C(tuple.Atom("hit")), pattern.V("x")),
			},
		})
		if err != nil || !res.OK {
			t.Fatalf("lookup %d: res=%+v err=%v", i, res, err)
		}
	}
	post := s.Metrics().Snapshot()
	if post.KeyCommits != pre.KeyCommits {
		t.Errorf("unknown-lead commits took the key-latch path: %d -> %d",
			pre.KeyCommits, post.KeyCommits)
	}
	if got := post.CoarseCommits - pre.CoarseCommits; got != lookups {
		t.Errorf("coarse commits grew by %d, want %d", got, lookups)
	}
	if post.SecondaryPromotions == pre.SecondaryPromotions {
		t.Error("repeated field scans promoted no shape")
	}
	if post.SecondaryIndexedScans == pre.SecondaryIndexedScans {
		t.Error("promoted shape served no indexed scan")
	}
}

func TestSubscriptionSelPrefersParameters(t *testing.T) {
	job := pattern.C(tuple.Atom("job"))
	env := expr.Env{"i": tuple.Int(4)}
	cases := []struct {
		name string
		p    pattern.Pattern
		want pattern.FieldSel
	}{
		{"literal only: the first one", pattern.P(job, pattern.C(tuple.Int(9)), pattern.C(tuple.Int(1))), pattern.FieldSel{Pos: 1, Val: tuple.Int(9)}},
		{"parameter beats an earlier literal", pattern.P(job, pattern.C(tuple.Int(1)), pattern.V("i")), pattern.FieldSel{Pos: 2, Val: tuple.Int(4)}},
		{"closed computed field counts as a parameter", pattern.P(job, pattern.C(tuple.Int(1)), pattern.E(expr.Add(expr.V("i"), expr.Const(tuple.Int(1))))), pattern.FieldSel{Pos: 2, Val: tuple.Int(5)}},
		{"unbound variable and wildcard select nothing", pattern.P(job, pattern.V("x"), pattern.W()), pattern.FieldSel{}},
		{"the lead is never the selector", pattern.P(pattern.V("i"), pattern.W()), pattern.FieldSel{}},
	}
	for _, tc := range cases {
		if got := subscriptionSel(tc.p, env); got.Pos != tc.want.Pos || !got.Val.Equal(tc.want.Val) {
			t.Errorf("%s: selector %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
