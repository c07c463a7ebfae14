package pattern

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// sliceSource is a minimal in-memory Source for matcher tests.
type sliceSource struct {
	tuples []tuple.Tuple
}

func (s *sliceSource) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	for i, t := range s.tuples {
		if t.Arity() != arity {
			continue
		}
		if leadKnown && (t.Arity() == 0 || !t.Field(0).Equal(lead)) {
			continue
		}
		if !fn(tuple.ID(i+1), t) {
			return
		}
	}
}

func src(ts ...tuple.Tuple) *sliceSource { return &sliceSource{tuples: ts} }

func TestFieldString(t *testing.T) {
	tests := []struct {
		f    Field
		want string
	}{
		{C(tuple.Atom("year")), "year"},
		{W(), "*"},
		{V("a"), "a"},
		{E(expr.Add(expr.V("k"), expr.Const(tuple.Int(1)))), "(k + 1)"},
	}
	for _, tc := range tests {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestPatternString(t *testing.T) {
	p := R(C(tuple.Atom("year")), V("a"))
	if got := p.String(); got != "<year, a>!" {
		t.Errorf("String() = %q", got)
	}
	n := N(C(tuple.Atom("index")), W())
	if got := n.String(); got != "not <index, *>" {
		t.Errorf("String() = %q", got)
	}
}

func TestPatternValidate(t *testing.T) {
	bad := Pattern{Fields: []Field{C(tuple.Int(1))}, Negated: true, Retract: true}
	if err := bad.Validate(); err == nil {
		t.Error("negated+retract should be invalid")
	}
	if err := P(Field{Kind: FieldVar}).Validate(); err == nil {
		t.Error("empty var name should be invalid")
	}
	if err := P(Field{Kind: FieldExpr}).Validate(); err == nil {
		t.Error("nil expr should be invalid")
	}
	if err := P(Field{}).Validate(); err == nil {
		t.Error("invalid field kind should be invalid")
	}
	if err := P(C(tuple.Int(1)), W(), V("x")).Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
}

func TestMatchBasics(t *testing.T) {
	tp := tuple.New(tuple.Atom("year"), tuple.Int(90))

	// Constant + fresh variable.
	env, ok := matchEnv(P(C(tuple.Atom("year")), V("a")), tp, expr.Env{})
	if !ok {
		t.Fatal("expected match")
	}
	if env["a"] != tuple.Int(90) {
		t.Errorf("a = %v", env["a"])
	}

	// Arity mismatch.
	if _, ok := matchEnv(P(C(tuple.Atom("year"))), tp, expr.Env{}); ok {
		t.Error("arity mismatch should fail")
	}

	// Constant mismatch.
	if _, ok := matchEnv(P(C(tuple.Atom("month")), W()), tp, expr.Env{}); ok {
		t.Error("constant mismatch should fail")
	}

	// Bound variable must agree.
	if _, ok := matchEnv(P(C(tuple.Atom("year")), V("a")), tp, expr.Env{"a": tuple.Int(7)}); ok {
		t.Error("bound variable disagreement should fail")
	}
	env2, ok := matchEnv(P(C(tuple.Atom("year")), V("a")), tp, expr.Env{"a": tuple.Int(90)})
	if !ok {
		t.Error("bound variable agreement should match")
	}
	if len(env2) != 1 {
		t.Errorf("env2 = %v", env2)
	}
}

func TestMatchDoesNotMutateBase(t *testing.T) {
	tp := tuple.New(tuple.Atom("k"), tuple.Int(5))
	base := expr.Env{"x": tuple.Int(1)}
	env, ok := matchEnv(P(C(tuple.Atom("k")), V("v")), tp, base)
	if !ok {
		t.Fatal("expected match")
	}
	if _, exists := base["v"]; exists {
		t.Error("Match mutated the base env")
	}
	if env["v"] != tuple.Int(5) || env["x"] != tuple.Int(1) {
		t.Errorf("env = %v", env)
	}
}

func TestMatchRepeatedVariable(t *testing.T) {
	// <a, a> matches only tuples with equal fields.
	p := P(V("a"), V("a"))
	if _, ok := matchEnv(p, tuple.New(tuple.Int(3), tuple.Int(3)), expr.Env{}); !ok {
		t.Error("<3,3> should match <a,a>")
	}
	if _, ok := matchEnv(p, tuple.New(tuple.Int(3), tuple.Int(4)), expr.Env{}); ok {
		t.Error("<3,4> should not match <a,a>")
	}
}

func TestMatchExprField(t *testing.T) {
	// Pattern <k-1, v> with k bound to 5 matches <4, v>.
	p := P(E(expr.Sub(expr.V("k"), expr.Const(tuple.Int(1)))), V("v"))
	env, ok := matchEnv(p, tuple.New(tuple.Int(4), tuple.Int(99)), expr.Env{"k": tuple.Int(5)})
	if !ok {
		t.Fatal("expected match")
	}
	if env["v"] != tuple.Int(99) {
		t.Errorf("v = %v", env["v"])
	}
	if _, ok := matchEnv(p, tuple.New(tuple.Int(3), tuple.Int(99)), expr.Env{"k": tuple.Int(5)}); ok {
		t.Error("<3,99> should not match <k-1, v> with k=5")
	}
	// Unevaluable expression (unbound k) is treated as no-match.
	if _, ok := matchEnv(p, tuple.New(tuple.Int(4), tuple.Int(1)), expr.Env{}); ok {
		t.Error("unbound expression field should not match")
	}
}

func TestLead(t *testing.T) {
	env := expr.Env{"k": tuple.Int(7)}

	if v, known := P(C(tuple.Atom("year")), W()).Lead(nil); !known || v != tuple.Atom("year") {
		t.Errorf("const lead = %v, %v", v, known)
	}
	if _, known := P(W(), W()).Lead(nil); known {
		t.Error("wildcard lead should be unknown")
	}
	if v, known := P(V("k"), W()).Lead(env); !known || v != tuple.Int(7) {
		t.Errorf("bound var lead = %v, %v", v, known)
	}
	if _, known := P(V("z"), W()).Lead(env); known {
		t.Error("unbound var lead should be unknown")
	}
	if v, known := P(E(expr.Add(expr.V("k"), expr.Const(tuple.Int(1))))).Lead(env); !known || v != tuple.Int(8) {
		t.Errorf("expr lead = %v, %v", v, known)
	}
	if _, known := (Pattern{}).Lead(env); known {
		t.Error("empty pattern lead should be unknown")
	}
}

func TestGround(t *testing.T) {
	env := expr.Env{"a": tuple.Int(90)}
	p := P(C(tuple.Atom("found")), V("a"), E(expr.Add(expr.V("a"), expr.Const(tuple.Int(1)))))
	tp, err := p.Ground(env)
	if err != nil {
		t.Fatal(err)
	}
	want := tuple.New(tuple.Atom("found"), tuple.Int(90), tuple.Int(91))
	if !tp.Equal(want) {
		t.Errorf("Ground = %v, want %v", tp, want)
	}

	if _, err := P(W()).Ground(env); err == nil {
		t.Error("wildcard should not ground")
	}
	if _, err := P(V("zz")).Ground(env); err == nil {
		t.Error("unbound var should not ground")
	}
	if _, err := P(E(expr.V("zz"))).Ground(env); err == nil {
		t.Error("unbound expr should not ground")
	}
}
