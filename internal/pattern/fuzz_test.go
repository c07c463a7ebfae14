package pattern

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// FuzzMatch drives Pattern.Match — the compiled single-pattern match behind
// view admission and the publisher-side delta filter — with randomly decoded
// (pattern, tuple, pre-bound environment) triples and checks it against
// naiveMatch, an independently written structural walk with no compile step,
// no slot frame and no stack buffers. The two must agree on the match
// verdict and on every binding a where clause sees, the verdict must not
// depend on whether a where clause is there to look, and Match must never
// mutate the caller's environment.

// fuzz value/expression/variable pools: small enough that random inputs
// collide often (bound-variable re-checks, expression equalities actually
// firing), rich enough to cover every Value kind.
var (
	fuzzVals = []tuple.Value{
		tuple.Atom("a"), tuple.Atom("b"),
		tuple.Int(0), tuple.Int(1), tuple.Int(2),
		tuple.Float(1.5), tuple.String("s"), tuple.Bool(true),
	}
	fuzzNames = []string{"x", "y", "z"}
)

func fuzzExpr(b byte) expr.Expr {
	switch b % 4 {
	case 0:
		return expr.Const(fuzzVals[int(b/4)%len(fuzzVals)])
	case 1:
		return expr.V(fuzzNames[int(b/4)%len(fuzzNames)])
	case 2:
		return expr.Add(expr.V(fuzzNames[int(b/4)%len(fuzzNames)]), expr.Const(tuple.Int(1)))
	default:
		return expr.Mul(expr.Const(tuple.Int(2)), expr.Const(tuple.Int(int64(b/4)%5)))
	}
}

// decode consumes data into a (pattern, tuple, env) triple. Every byte
// string decodes to something valid; exhausted input reads zeros.
func decodeMatchInput(data []byte) (Pattern, tuple.Tuple, expr.Env) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	pat := Pattern{}
	for n := int(next()) % 5; len(pat.Fields) < n; {
		switch k := next(); k % 4 {
		case 0:
			pat.Fields = append(pat.Fields, C(fuzzVals[int(next())%len(fuzzVals)]))
		case 1:
			pat.Fields = append(pat.Fields, W())
		case 2:
			pat.Fields = append(pat.Fields, V(fuzzNames[int(next())%len(fuzzNames)]))
		default:
			pat.Fields = append(pat.Fields, E(fuzzExpr(next())))
		}
	}
	vals := make([]tuple.Value, int(next())%5)
	for i := range vals {
		vals[i] = fuzzVals[int(next())%len(fuzzVals)]
	}
	env := expr.Env{}
	for i := int(next()) % 3; i > 0; i-- {
		env[fuzzNames[int(next())%len(fuzzNames)]] = fuzzVals[int(next())%len(fuzzVals)]
	}
	return pat, tuple.New(vals...), env
}

// naiveMatch is the oracle: the textbook definition of pattern matching,
// cloning the environment up front and extending it in place.
func naiveMatch(p Pattern, t tuple.Tuple, env expr.Env) (expr.Env, bool) {
	if t.Arity() != len(p.Fields) {
		return nil, false
	}
	out := expr.Env{}
	for k, v := range env {
		out[k] = v
	}
	for i, f := range p.Fields {
		fv := t.Field(i)
		switch f.Kind {
		case FieldWildcard:
		case FieldConst:
			if !f.Value.Equal(fv) {
				return nil, false
			}
		case FieldVar:
			if bound, ok := out[f.Name]; ok {
				if !bound.Equal(fv) {
					return nil, false
				}
			} else {
				out[f.Name] = fv
			}
		case FieldExpr:
			want, err := f.Expr.Eval(out)
			if err != nil || !want.Equal(fv) {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return out, true
}

func sameEnv(a, b expr.Env) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// envSpy is a where clause that records the environment its scope resolves
// over names and holds.
type envSpy struct {
	names []string
	seen  *expr.Env
}

func (s envSpy) Eval(scope expr.Scope) (tuple.Value, error) {
	*s.seen = expr.Env{}
	for _, name := range s.names {
		if v, ok := scope.Lookup(name); ok {
			(*s.seen)[name] = v
		}
	}
	return tuple.Bool(true), nil
}
func (envSpy) Vars(dst []string) []string { return dst }
func (envSpy) String() string             { return "spy" }

// matchEnv matches p against t under env and returns the environment a
// where clause is evaluated under (nil when the match fails before it).
func matchEnv(p Pattern, t tuple.Tuple, env expr.Env) (expr.Env, bool) {
	names := p.Vars(append([]string(nil), fuzzNames...))
	for name := range env {
		names = append(names, name)
	}
	var seen expr.Env
	ok := p.Match(t, env, envSpy{names, &seen})
	return seen, ok
}

func FuzzMatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 2, 0, 2, 0, 1, 1, 2, 0}) // const+var vs 2-tuple, one binding
	f.Add([]byte{3, 2, 0, 2, 0, 3, 1, 3, 0, 1, 2, 0})
	f.Add([]byte{4, 1, 3, 5, 2, 1, 2, 2, 4, 2, 3, 4, 2, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pat, tup, env := decodeMatchInput(data)
		before := env.Clone()

		gotEnv, gotOK := matchEnv(pat, tup, env)
		wantEnv, wantOK := naiveMatch(pat, tup, env)

		if gotOK != wantOK {
			t.Fatalf("match(%s, %s, %v) = %v, oracle says %v", pat, tup, before, gotOK, wantOK)
		}
		if gotOK && !sameEnv(gotEnv, wantEnv) {
			t.Fatalf("match(%s, %s, %v): env %v, oracle %v", pat, tup, before, gotEnv, wantEnv)
		}
		if bare := pat.Match(tup, env, nil); bare != wantOK {
			t.Fatalf("match(%s, %s, %v) without a where clause = %v, oracle says %v", pat, tup, before, bare, wantOK)
		}
		// The caller's map must be untouched either way.
		if !sameEnv(env, before) {
			t.Fatalf("Match mutated caller env: %v, had %v", env, before)
		}
	})
}
