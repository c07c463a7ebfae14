package consensus

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// The cases where a fire must not share an evaluation between members
// (sharing): each would give some member a solution its own evaluation
// cannot find.

// stmtReq is a process member's consensus request issuing q — one patterns
// array at one source position: one compiled statement — under env.
func stmtReq(pid tuple.ProcessID, env expr.Env, q pattern.Query) []txn.Request {
	return []txn.Request{{Proc: pid, View: view.Universal(), Env: env, Query: q, Pos: metrics.Pos{Line: 2, Col: 3}}}
}

// fireMembers registers members 1..n under the universal view with envs and
// offers reqs[i] through member i's record, as a process does; the last
// offer completes the set, which must fire. It returns each member's
// solution.
func fireMembers(t *testing.T, m *Manager, envs []expr.Env, reqs [][]txn.Request) []expr.Env {
	t.Helper()
	recs := make([]Member, len(reqs))
	for i := range recs {
		m.RegisterMember(&recs[i], tuple.ProcessID(i+1), view.Universal(), envs[i])
	}
	var w wakeCount
	for i := range recs {
		if err := m.Rearm(recs[i].Offer(), reqs[i], &w); err != nil {
			t.Fatal(err)
		}
	}
	if n := int(w.n.Load()); n != len(recs) || m.Fires() != 1 {
		t.Fatalf("%d of %d members woke after %d fires, want all after 1", n, len(recs), m.Fires())
	}
	sols := make([]expr.Env, len(recs))
	for i := range recs {
		a, err := recs[i].Offer().Answer()
		if err != nil || !a.OK() {
			t.Fatalf("member %d: answer %v, %v", i+1, a, err)
		}
		sols[i] = a.Rows()[0].Env()
		a.Release()
	}
	return sols
}

// TestFireDoesNotShareAcrossBindings: Sort-shaped members issue one
// statement whose query reads a and b from their scopes; each binds them
// differently, so each evaluates on its own and finds its own pair.
func TestFireDoesNotShareAcrossBindings(t *testing.T) {
	s, _, m := newManager(t)
	const n = 6
	for i := 1; i <= n; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i)), tuple.Atom("n"), tuple.Int(int64(10*i)), tuple.Int(int64(i+1))))
	}
	q := pattern.Q(
		pattern.P(pattern.V("a"), pattern.W(), pattern.V("v1"), pattern.W()),
		pattern.P(pattern.V("b"), pattern.W(), pattern.V("v2"), pattern.W()),
	).Where(expr.Le(expr.V("v1"), expr.V("v2")))
	envs := make([]expr.Env, n-1)
	reqs := make([][]txn.Request, n-1)
	for i := range envs {
		envs[i] = expr.Env{"a": tuple.Int(int64(i + 1)), "b": tuple.Int(int64(i + 2))}
		reqs[i] = stmtReq(tuple.ProcessID(i+1), envs[i], q)
	}
	for i, sol := range fireMembers(t, m, envs, reqs) {
		v1, v2 := tuple.Int(int64(10*(i+1))), tuple.Int(int64(10*(i+2)))
		if sol["v1"] != v1 || sol["v2"] != v2 {
			t.Errorf("member %d (a=%d, b=%d) found v1=%v, v2=%v; want %v, %v", i+1, i+1, i+2, sol["v1"], sol["v2"], v1, v2)
		}
	}
}

// TestFireDoesNotShareRetractions: members issuing one retracting statement
// under the same bindings each claim an instance of their own.
func TestFireDoesNotShareRetractions(t *testing.T) {
	s, _, m := newManager(t)
	const n = 4
	for i := 1; i <= n; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("tok"), tuple.Int(int64(i))))
	}
	q := pattern.Q(pattern.R(pattern.C(tuple.Atom("tok")), pattern.V("t")))
	envs := make([]expr.Env, n)
	reqs := make([][]txn.Request, n)
	for i := range envs {
		envs[i] = expr.Env{}
		reqs[i] = stmtReq(tuple.ProcessID(i+1), envs[i], q)
	}
	seen := map[tuple.Value]int{}
	for i, sol := range fireMembers(t, m, envs, reqs) {
		if j, dup := seen[sol["t"]]; dup {
			t.Errorf("members %d and %d both retracted <tok, %v>", j, i+1, sol["t"])
		}
		seen[sol["t"]] = i + 1
	}
	if left := s.Len(); left != 0 {
		t.Errorf("%d tokens left, want none", left)
	}
}

// TestFireReevaluatesAfterHiding: member 1 reads a token, member 2 retracts
// one — the first it finds, which hides it from every later member — and
// member 3 issues member 1's statement under member 1's bindings. The
// instances hidden have changed since member 1's evaluation, so member 3
// evaluates afresh: it must not see the token member 2 took.
func TestFireReevaluatesAfterHiding(t *testing.T) {
	s, _, m := newManager(t)
	tok := tuple.Atom("tok")
	s.Assert(tuple.Environment, tuple.New(tok, tuple.Int(1)))
	s.Assert(tuple.Environment, tuple.New(tok, tuple.Int(2)))
	read := pattern.Q(pattern.P(pattern.C(tok), pattern.V("t")))
	take := pattern.Q(pattern.R(pattern.C(tok), pattern.V("t")))
	envs := []expr.Env{{}, {}, {}}
	reqs := [][]txn.Request{stmtReq(1, envs[0], read), stmtReq(2, envs[1], take), stmtReq(3, envs[2], read)}
	sols := fireMembers(t, m, envs, reqs)
	if sols[2]["t"] == sols[1]["t"] {
		t.Errorf("member 3 read <tok, %v>, which member 2 retracted before it was evaluated", sols[2]["t"])
	}
	if left := s.Len(); left != 1 {
		t.Errorf("%d tokens left, want 1", left)
	}
}

// TestFireDoesNotShareGoAPIOffers: two Go-API offers share one patterns
// slice and position but carry different tests. A Go caller's request is
// not a compiled statement, so each offer evaluates on its own and finds
// the token its own test admits.
func TestFireDoesNotShareGoAPIOffers(t *testing.T) {
	s, _, m := newManager(t)
	tok := tuple.Atom("tok")
	s.Assert(tuple.Environment, tuple.New(tok, tuple.Int(1)))
	s.Assert(tuple.Environment, tuple.New(tok, tuple.Int(2)))
	m.Register(1, view.Universal(), nil)
	m.Register(2, view.Universal(), nil)
	pats := []pattern.Pattern{pattern.P(pattern.C(tok), pattern.V("t"))}
	offers := make([]*Offer, 2)
	for i := range offers {
		want := tuple.Int(int64(i + 1))
		req := txn.Request{Proc: tuple.ProcessID(i + 1), View: view.Universal(), Pos: metrics.Pos{Line: 2, Col: 3},
			Query: pattern.Query{Quant: pattern.Exists, Patterns: pats, Test: expr.Eq(expr.V("t"), expr.Const(want))}}
		o, err := m.StartOffer(req)
		if err != nil {
			t.Fatal(err)
		}
		offers[i] = o
	}
	for i, o := range offers {
		<-o.Done()
		res, err := o.Result()
		if err != nil || !res.OK {
			t.Fatalf("offer %d: %+v, %v", i+1, res, err)
		}
		if want := tuple.Int(int64(i + 1)); res.Env["t"] != want {
			t.Errorf("offer %d found t=%v, want %v: its own test's token", i+1, res.Env["t"], want)
		}
	}
}

// TestFireDoesNotShareAcrossTests: process members issue requests built in
// Go, as sdl.Transact builds a process's statements, over one patterns slice
// at one position but with different tests. They share patterns, not a
// statement, so each evaluates on its own and finds the token its own test
// admits.
func TestFireDoesNotShareAcrossTests(t *testing.T) {
	s, _, m := newManager(t)
	tok := tuple.Atom("tok")
	s.Assert(tuple.Environment, tuple.New(tok, tuple.Int(1)))
	s.Assert(tuple.Environment, tuple.New(tok, tuple.Int(2)))
	pats := []pattern.Pattern{pattern.P(pattern.C(tok), pattern.V("t"))}
	is := func(n int64) expr.Expr { return expr.Eq(expr.V("t"), expr.Const(tuple.Int(n))) }
	queries := []pattern.Query{
		{Quant: pattern.Exists, Patterns: pats, Test: is(2)},
		{Quant: pattern.Exists, Patterns: pats, Test: is(1)},
	}
	recs := make([]Member, len(queries))
	for i := range recs {
		m.RegisterMember(&recs[i], tuple.ProcessID(i+1), view.Universal(), nil)
	}
	var w wakeCount
	for i, q := range queries {
		if err := m.Rearm(recs[i].Offer(), stmtReq(tuple.ProcessID(i+1), nil, q), &w); err != nil {
			t.Fatal(err)
		}
	}
	if m.Fires() != 1 {
		t.Fatalf("%d fires, want 1", m.Fires())
	}
	for i, want := range []tuple.Value{tuple.Int(2), tuple.Int(1)} {
		a, err := recs[i].Offer().Answer()
		if err != nil || !a.OK() {
			t.Fatalf("member %d: answer %v, %v", i+1, a, err)
		}
		if got := a.Rows()[0].Env()["t"]; got != want {
			t.Errorf("member %d found t=%v, want %v: its own test's token", i+1, got, want)
		}
		a.Release()
	}
}
