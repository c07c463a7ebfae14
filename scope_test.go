package sdl

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/lang"
)

// A process's view reads the process's parameters from its record: a Go
// view's dynamic matcher is handed them as an Env, and a compiled SDL view
// whose import leads with a parameter (the paper's Sort(a, b) importing
// <a, *, *, *>) restricts the process's scans to the parameters' buckets.
func TestViewsSeeProcessParameters(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t.Run("dyn", func(t *testing.T) {
		sys := New(Options{})
		defer sys.Close()
		var mu sync.Mutex
		var ks []Value // the k each call of the matcher saw
		mine := Dyn(2, func(_ Reader, env Env, tp Tuple) bool {
			mu.Lock()
			ks = append(ks, env["k"])
			mu.Unlock()
			return tp.Field(0).Equal(Atom("item")) && tp.Field(1).Equal(env["k"])
		})
		if err := sys.Define(&Definition{
			Name:   "Taker",
			Params: []string{"k"},
			View:   func(Scope) View { return NewView(Union(mine), Everything()) },
			Body: []Stmt{Transact{Kind: Immediate,
				Query:   QAll(P(C(Atom("item")), V("x"))),
				Asserts: []Pattern{P(C(Atom("took")), V("x"))}}},
		}); err != nil {
			t.Fatal(err)
		}
		sys.Store.Assert(Environment, NewTuple(Atom("item"), Int(4)), NewTuple(Atom("item"), Int(5)))
		if err := sys.Run(ctx, "Taker", Int(5)); err != nil {
			t.Fatal(err)
		}
		if errs := sys.Runtime.Errors(); len(errs) > 0 {
			t.Fatalf("process errors: %v", errs)
		}
		if got := sys.CollectInt(Atom("took")); !slices.Equal(got, []int64{5}) {
			t.Errorf("<took, *> holds %v, want [5]: the matcher's env did not carry k", got)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, k := range ks {
			if !k.Equal(Int(5)) {
				t.Fatalf("the matcher saw k = %v, want 5 in every call (%d calls)", k, len(ks))
			}
		}
	})

	t.Run("compiled", func(t *testing.T) {
		prog, err := lang.Parse(`
process Peek(a, b)
import <a, *, *, *>; <b, *, *, *>
export <seen, *>
behavior
  forall : <*, *, ?v, *> -> <seen, ?v>
end
`)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := lang.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		sys := New(Options{Shards: 4})
		defer sys.Close()
		if err := compiled.Install(sys.Runtime); err != nil {
			t.Fatal(err)
		}
		sys.Store.Assert(Environment,
			NewTuple(Int(1), Atom("delta"), Int(10), Int(2)),
			NewTuple(Int(2), Atom("alpha"), Int(20), Int(3)),
			NewTuple(Int(3), Atom("gamma"), Int(30), Atom("nil")))
		if err := sys.Run(ctx, "Peek", Int(1), Int(2)); err != nil {
			t.Fatal(err)
		}
		if errs := sys.Runtime.Errors(); len(errs) > 0 {
			t.Fatalf("process errors: %v", errs)
		}
		got := sys.CollectInt(Atom("seen"))
		slices.Sort(got)
		if !slices.Equal(got, []int64{10, 20}) {
			t.Errorf("<seen, *> holds %v, want [10 20]: the import of nodes a = 1 and b = 2", got)
		}
	})
}

// A Go caller's request Env comes back as the caller's own map, not a copy,
// where Result.Env reports the request environment: a failed transaction,
// and a ∀ one.
func TestResultEnvIsTheCallersMap(t *testing.T) {
	sys := New(Options{})
	defer sys.Close()
	sys.Store.Assert(Environment, NewTuple(Atom("item"), Int(1)))
	same := func(a, b Env) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

	env := Env{"k": Int(1)}
	res, err := sys.Immediate(Request{Proc: 1, View: Universal(), Env: env, Query: Q(P(C(Atom("absent")), V("k")))})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || !same(res.Env, env) {
		t.Errorf("failed Immediate: OK %v, Env %v; want false and the caller's own map", res.OK, res.Env)
	}

	res, err = sys.Immediate(Request{Proc: 1, View: Universal(), Env: env, Query: QAll(P(C(Atom("item")), V("k")))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !same(res.Env, env) || len(res.Solutions) != 1 || !res.Solutions[0]["k"].Equal(Int(1)) {
		t.Errorf("∀ Immediate: OK %v, Env %v, Solutions %v; want true, the caller's own map, [k=1]", res.OK, res.Env, res.Solutions)
	}
}
