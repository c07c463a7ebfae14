package expr

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func mustEval(t *testing.T, e Expr, env Env) tuple.Value {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestArithmeticInt(t *testing.T) {
	env := Env{"a": tuple.Int(10), "b": tuple.Int(3)}
	tests := []struct {
		e    Expr
		want tuple.Value
	}{
		{Add(V("a"), V("b")), tuple.Int(13)},
		{Sub(V("a"), V("b")), tuple.Int(7)},
		{Mul(V("a"), V("b")), tuple.Int(30)},
		{Div(V("a"), V("b")), tuple.Int(3)},
		{Mod(V("a"), V("b")), tuple.Int(1)},
		{Neg(V("a")), tuple.Int(-10)},
	}
	for _, tc := range tests {
		if got := mustEval(t, tc.e, env); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestArithmeticMixed(t *testing.T) {
	env := Env{"a": tuple.Int(10), "f": tuple.Float(2.5)}
	got := mustEval(t, Add(V("a"), V("f")), env)
	if got != tuple.Float(12.5) {
		t.Errorf("10 + 2.5 = %v", got)
	}
	got = mustEval(t, Div(V("f"), Const(tuple.Float(0.5))), env)
	if got != tuple.Float(5.0) {
		t.Errorf("2.5 / 0.5 = %v", got)
	}
	got = mustEval(t, Neg(V("f")), env)
	if got != tuple.Float(-2.5) {
		t.Errorf("-2.5 = %v", got)
	}
}

func TestStringConcat(t *testing.T) {
	env := Env{"s": tuple.String("ab")}
	got := mustEval(t, Add(V("s"), Const(tuple.String("cd"))), env)
	if got != tuple.String("abcd") {
		t.Errorf("concat = %v", got)
	}
}

func TestDivideByZero(t *testing.T) {
	for _, e := range []Expr{
		Div(Const(tuple.Int(1)), Const(tuple.Int(0))),
		Mod(Const(tuple.Int(1)), Const(tuple.Int(0))),
		Div(Const(tuple.Float(1)), Const(tuple.Float(0))),
	} {
		if _, err := e.Eval(nil); !errors.Is(err, ErrDivZero) {
			t.Errorf("%s: err = %v, want ErrDivZero", e, err)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := Env{"x": tuple.Int(90)}
	tests := []struct {
		e    Expr
		want bool
	}{
		{Gt(V("x"), Const(tuple.Int(87))), true},
		{Ge(V("x"), Const(tuple.Int(90))), true},
		{Lt(V("x"), Const(tuple.Int(87))), false},
		{Le(V("x"), Const(tuple.Int(90))), true},
		{Eq(V("x"), Const(tuple.Float(90.0))), true},
		{Ne(V("x"), Const(tuple.Int(87))), true},
		{Eq(Const(tuple.Atom("nil")), Const(tuple.Atom("nil"))), true},
		{Ne(Const(tuple.Atom("a")), Const(tuple.Atom("b"))), true},
	}
	for _, tc := range tests {
		got, err := EvalBool(tc.e, env)
		if err != nil {
			t.Fatalf("%s: %v", tc.e, err)
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestLogicShortCircuit(t *testing.T) {
	// The right operand would error (unbound variable); short-circuiting
	// must avoid evaluating it.
	e := And(Const(tuple.Bool(false)), V("missing"))
	got, err := EvalBool(e, nil)
	if err != nil || got {
		t.Errorf("false and X = %v, %v", got, err)
	}
	e2 := Or(Const(tuple.Bool(true)), V("missing"))
	got, err = EvalBool(e2, nil)
	if err != nil || !got {
		t.Errorf("true or X = %v, %v", got, err)
	}
	// Non-short-circuit path must evaluate the right side.
	e3 := And(Const(tuple.Bool(true)), V("missing"))
	if _, err := EvalBool(e3, nil); !errors.Is(err, ErrUnbound) {
		t.Errorf("true and unbound: err = %v", err)
	}
}

func TestNot(t *testing.T) {
	got := mustEval(t, Not(Const(tuple.Bool(true))), nil)
	if got != tuple.Bool(false) {
		t.Errorf("not true = %v", got)
	}
	if _, err := Not(Const(tuple.Int(1))).Eval(nil); !errors.Is(err, ErrType) {
		t.Errorf("not 1: err = %v", err)
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []Expr{
		Add(Const(tuple.Atom("a")), Const(tuple.Int(1))),
		Mod(Const(tuple.Float(1)), Const(tuple.Float(2))),
		And(Const(tuple.Int(1)), Const(tuple.Bool(true))),
		Or(Const(tuple.Bool(false)), Const(tuple.Int(1))),
		Neg(Const(tuple.Atom("a"))),
	}
	for _, e := range cases {
		if _, err := e.Eval(nil); !errors.Is(err, ErrType) {
			t.Errorf("%s: err = %v, want ErrType", e, err)
		}
	}
}

func TestUnbound(t *testing.T) {
	if _, err := V("zz").Eval(Env{}); !errors.Is(err, ErrUnbound) {
		t.Errorf("err = %v", err)
	}
}

// TestEvalUnderNilScope: a nil Scope binds nothing. Closed expressions
// evaluate, and every variable reference is unbound — an error, not a panic.
func TestEvalUnderNilScope(t *testing.T) {
	closed := Add(Const(tuple.Int(2)), Fn("pow2", Const(tuple.Int(3))))
	if v, err := closed.Eval(nil); err != nil || v != tuple.Int(10) {
		t.Errorf("%s under a nil scope = %v, %v; want 10", closed, v, err)
	}
	for _, e := range []Expr{
		V("a"),
		Add(V("a"), Const(tuple.Int(1))),
		Not(V("a")),
		Fn("abs", V("a")),
		And(Const(tuple.Bool(true)), V("a")),
	} {
		if _, err := e.Eval(nil); !errors.Is(err, ErrUnbound) {
			t.Errorf("%s under a nil scope: err = %v, want ErrUnbound", e, err)
		}
		if _, err := EvalBool(e, nil); !errors.Is(err, ErrUnbound) {
			t.Errorf("EvalBool(%s) under a nil scope: err = %v, want ErrUnbound", e, err)
		}
	}
	// A nil Env is a scope that binds nothing, too.
	if _, err := V("a").Eval(Env(nil)); !errors.Is(err, ErrUnbound) {
		t.Errorf("under a nil Env: err = %v, want ErrUnbound", err)
	}
}

func TestBuiltins(t *testing.T) {
	tests := []struct {
		e    Expr
		want tuple.Value
	}{
		{Fn("abs", Const(tuple.Int(-4))), tuple.Int(4)},
		{Fn("abs", Const(tuple.Float(-2.5))), tuple.Float(2.5)},
		{Fn("min", Const(tuple.Int(3)), Const(tuple.Int(7))), tuple.Int(3)},
		{Fn("max", Const(tuple.Int(3)), Const(tuple.Int(7))), tuple.Int(7)},
		{Fn("pow2", Const(tuple.Int(10))), tuple.Int(1024)},
		{Fn("int", Const(tuple.Float(3.9))), tuple.Int(3)},
	}
	for _, tc := range tests {
		if got := mustEval(t, tc.e, nil); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	cases := []Expr{
		Fn("nosuch", Const(tuple.Int(1))),
		Fn("abs"),
		Fn("abs", Const(tuple.Atom("a"))),
		Fn("pow2", Const(tuple.Int(-1))),
		Fn("pow2", Const(tuple.Int(64))),
		Fn("int", Const(tuple.Atom("a"))),
		Fn("min", Const(tuple.Int(1))),
	}
	for _, e := range cases {
		if _, err := e.Eval(nil); err == nil {
			t.Errorf("%s: expected error", e)
		}
	}
	if !HasBuiltin("abs") || HasBuiltin("nosuch") {
		t.Error("HasBuiltin misreports")
	}
}

func TestVarsCollection(t *testing.T) {
	e := And(Gt(V("a"), Const(tuple.Int(0))), Ne(V("b"), Fn("min", V("c"), V("a"))))
	vars := e.Vars(nil)
	sort.Strings(vars)
	want := []string{"a", "a", "b", "c"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestEvalBoolNilExpr(t *testing.T) {
	got, err := EvalBool(nil, nil)
	if err != nil || !got {
		t.Errorf("EvalBool(nil) = %v, %v; want true", got, err)
	}
}

func TestEvalBoolNonBool(t *testing.T) {
	if _, err := EvalBool(Const(tuple.Int(1)), nil); !errors.Is(err, ErrType) {
		t.Errorf("err = %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	env := Env{"a": tuple.Int(1)}
	cp := env.Clone()
	cp["a"] = tuple.Int(2)
	cp["b"] = tuple.Int(3)
	if env["a"] != tuple.Int(1) {
		t.Error("Clone aliased the original")
	}
	if _, ok := env["b"]; ok {
		t.Error("Clone aliased the original (new key)")
	}
}

// A Let resolves its own name, then its scope's; With drops an earlier Let
// of the same name, so rebinding a name in a loop keeps the scope one Let
// deep, and leaves the scope it extended as it was.
func TestLetScopes(t *testing.T) {
	base := &Let{Name: "p", Value: tuple.Int(1), Under: Env{"q": tuple.Int(2)}}
	s1 := With(base, "n", tuple.Int(10))
	s2 := With(s1, "m", tuple.Int(20))
	s3 := With(s2, "n", tuple.Int(30))
	lookup := func(s Scope, name string) tuple.Value {
		v, _ := s.Lookup(name)
		return v
	}
	if got := lookup(s3, "n"); got != tuple.Int(30) {
		t.Errorf("s3 n = %v, want 30", got)
	}
	if got := lookup(s2, "n"); got != tuple.Int(10) {
		t.Errorf("s2 n = %v after a later let, want 10: the scope it extended changed", got)
	}
	if got := lookup(s3, "p"); got != tuple.Int(1) {
		t.Errorf("s3 p = %v, want 1 from the base", got)
	}
	if got := lookup(s3, "q"); got != tuple.Int(2) {
		t.Errorf("s3 q = %v, want 2 from the base's Env", got)
	}
	if _, ok := s3.Lookup("r"); ok {
		t.Error("s3 binds r")
	}
	if u, ok := s3.Under.(*Let); !ok || u.Name != "m" || u.Under != Scope(base) {
		t.Errorf("s3 = n over %#v, want n over m over the base, the earlier n dropped", s3.Under)
	}
	want := Env{"q": tuple.Int(2), "p": tuple.Int(1), "n": tuple.Int(30), "m": tuple.Int(20)}
	if got := EnvOf(s3); len(got) != len(want) || got["q"] != want["q"] || got["p"] != want["p"] || got["n"] != want["n"] || got["m"] != want["m"] {
		t.Errorf("EnvOf(s3) = %v, want %v", got, want)
	}
	loop := Scope(base)
	for i := 0; i < 100; i++ {
		loop = With(loop, "n", tuple.Int(int64(i)))
	}
	if l := loop.(*Let); l.Under != Scope(base) || l.Value != tuple.Int(99) {
		t.Errorf("100 lets of n: %#v, want one Let over the base", l)
	}
}

// EnvOf hands back an Env as it is, lists a Lister into a new map, and has
// nothing for a nil scope.
func TestEnvOf(t *testing.T) {
	env := Env{"a": tuple.Int(1)}
	if got := EnvOf(env); len(got) != 1 {
		t.Fatalf("EnvOf(env) = %v", got)
	} else if got["b"] = tuple.Int(2); env["b"] != tuple.Int(2) {
		t.Error("EnvOf(env) copied the caller's map")
	}
	if got := EnvOf(nil); got != nil {
		t.Errorf("EnvOf(nil) = %v, want nil", got)
	}
	if got := EnvOf(With(nil, "x", tuple.Int(3))); len(got) != 1 || got["x"] != tuple.Int(3) {
		t.Errorf("EnvOf(x over nil) = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	e := And(Gt(V("x"), Const(tuple.Int(87))), Not(Eq(V("y"), Const(tuple.Atom("nil")))))
	want := "((x > 87) and (not (y == nil)))"
	if got := e.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

// Property: integer arithmetic on the expression tree agrees with Go.
func TestQuickIntArithAgreesWithGo(t *testing.T) {
	f := func(a, b int32) bool {
		env := Env{"a": tuple.Int(int64(a)), "b": tuple.Int(int64(b))}
		sum := mustVal(Add(V("a"), V("b")), env)
		diff := mustVal(Sub(V("a"), V("b")), env)
		prod := mustVal(Mul(V("a"), V("b")), env)
		return sum == tuple.Int(int64(a)+int64(b)) &&
			diff == tuple.Int(int64(a)-int64(b)) &&
			prod == tuple.Int(int64(a)*int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison operators form a coherent set (exactly one of <, ==, >).
func TestQuickComparisonTrichotomy(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(42))}
	f := func(a, b int16) bool {
		env := Env{"a": tuple.Int(int64(a)), "b": tuple.Int(int64(b))}
		lt, _ := EvalBool(Lt(V("a"), V("b")), env)
		eq, _ := EvalBool(Eq(V("a"), V("b")), env)
		gt, _ := EvalBool(Gt(V("a"), V("b")), env)
		count := 0
		for _, x := range []bool{lt, eq, gt} {
			if x {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func mustVal(e Expr, env Env) tuple.Value {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

func TestCondBuiltin(t *testing.T) {
	env := Env{"x": tuple.Int(5)}
	got := mustEval(t, Fn("cond",
		Gt(V("x"), Const(tuple.Int(3))),
		Const(tuple.Atom("big")),
		Const(tuple.Atom("small"))), env)
	if got != tuple.Atom("big") {
		t.Errorf("cond = %v", got)
	}
	got = mustEval(t, Fn("cond",
		Const(tuple.Bool(false)),
		Const(tuple.Int(1)),
		Const(tuple.Int(2))), nil)
	if got != tuple.Int(2) {
		t.Errorf("cond = %v", got)
	}
	if _, err := Fn("cond", Const(tuple.Int(1)), Const(tuple.Int(1)), Const(tuple.Int(2))).Eval(nil); err == nil {
		t.Error("non-bool condition accepted")
	}
	if _, err := Fn("cond", Const(tuple.Bool(true))).Eval(nil); err == nil {
		t.Error("wrong arity accepted")
	}
}

// TestInternedStringsAreCollected mints 10⁵ distinct strings by
// concatenation, drops them, and checks the heap returns to within 1 MiB of
// where it was: interned text no Value holds is collected, not kept in a
// symbol table. The first cycle frees the text and queues the table's
// sweep. Each cycle's sweep drops the entries of a bounded share of the
// table, so the entries go over about a dozen cycles (len / sweep budget),
// and the cycle after each sweep frees what it dropped; the test waits up
// to 10 s. The race detector slows cleanups twentyfold, and this test has
// one goroutine, so it skips there.
func TestInternedStringsAreCollected(t *testing.T) {
	if race.Enabled {
		t.Skip("measures the heap; the race detector slows the cleanups it waits for")
	}
	const n = 100_000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var digits [10]Expr
	for i := range digits {
		digits[i] = Const(tuple.String(strconv.Itoa(i)))
	}
	before := heap()
	for range 4 {
		before = min(before, heap())
	}
	vals := make([]tuple.Value, n)
	for i := range vals {
		// Five digits, concatenated left to right: "00000" … "99999".
		e := digits[i/10_000]
		for d := 1_000; d > 0; d /= 10 {
			e = Add(e, digits[i/d%10])
		}
		vals[i] = mustEval(t, e, nil)
	}
	if s, _ := vals[n-1].AsString(); s != "99999" || vals[12345] != tuple.String("12345") {
		t.Fatalf("minted %v and %v", vals[n-1], vals[12345])
	}
	vals = nil
	var after uint64
	for cycles, deadline := 1, time.Now().Add(10*time.Second); time.Now().Before(deadline); cycles++ {
		if after = heap(); after <= before+1<<20 {
			t.Logf("heap back to %d B (%d B before) after %d cycles", after, before, cycles)
			return
		}
		time.Sleep(time.Millisecond) // lets the cleanups run
	}
	t.Errorf("heap %d B after dropping %d minted strings, %d B before: more than 1 MiB kept", after, n, before)
}
