package refmodel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// Differential testing: random confluent transaction sequences applied to
// the production engine and to the reference model must produce identical
// content multisets after every step. "Confluent" means the outcome does
// not depend on which solution an ∃ query picks: each ∃ here either has a
// unique match or all matches have identical content, and ∀ processes all
// solutions; so the engine's arbitrary choice cannot diverge from the
// model's deterministic one.

var tags = []string{"a", "b", "c"}

// literals holds the assertion <tag, v> for each tag and each v < 6, its
// tuple built once as the compiler builds a literal assertion's
// (Pattern.Literal): every unconditional assert of one content, on every
// worker of the audit, shares that tuple.
var literals = func() [][]pattern.Pattern {
	out := make([][]pattern.Pattern, len(tags))
	for i, tag := range tags {
		for v := range 6 {
			p := pattern.P(pattern.C(tuple.Atom(tag)), pattern.C(tuple.Int(int64(v))))
			out[i] = append(out[i], p.Literal(make([]tuple.Value, 2)))
		}
	}
	return out
}()

// op is one randomly generated confluent transaction.
type op struct {
	descr string
	req   txn.Request
	ref   Txn
}

func genOp(rng *rand.Rand) op {
	ti := rng.Intn(len(tags))
	tag := tuple.Atom(tags[ti])
	val := rng.Int63n(6)
	switch rng.Intn(5) {
	case 0: // unconditional assert of a literal
		a := []pattern.Pattern{literals[ti][val]}
		q := pattern.Query{Quant: pattern.Exists}
		return op{
			descr: fmt.Sprintf("assert <%s,%d>", tag, val),
			req:   txn.Request{Proc: 1, View: view.Universal(), Query: q, Asserts: a},
			ref:   Txn{Proc: 1, View: view.Universal(), Query: q, Asserts: a},
		}
	case 1: // ∃ retract of a specific content (all matches identical)
		q := pattern.Q(pattern.R(pattern.C(tag), pattern.C(tuple.Int(val))))
		return op{
			descr: fmt.Sprintf("retract one <%s,%d>", tag, val),
			req:   txn.Request{Proc: 1, View: view.Universal(), Query: q},
			ref:   Txn{Proc: 1, View: view.Universal(), Query: q},
		}
	case 2: // ∀ move: retract all <tag, v> with v >= val, assert <moved, v+1>
		q := pattern.QAll(pattern.R(pattern.C(tag), pattern.V("v"))).
			Where(expr.Ge(expr.V("v"), expr.Const(tuple.Int(val))))
		a := []pattern.Pattern{pattern.P(
			pattern.C(tuple.Atom("moved")),
			pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))),
		)}
		return op{
			descr: fmt.Sprintf("move all <%s,>=%d>", tag, val),
			req:   txn.Request{Proc: 2, View: view.Universal(), Query: q, Asserts: a},
			ref:   Txn{Proc: 2, View: view.Universal(), Query: q, Asserts: a},
		}
	case 3: // membership test with guarded negation (no effect)
		q := pattern.Q(
			pattern.P(pattern.C(tag), pattern.V("v")),
			pattern.N(pattern.C(tag), pattern.V("w")).
				Guarded(expr.Gt(expr.V("w"), expr.V("v"))),
		)
		return op{
			descr: fmt.Sprintf("max-check <%s>", tag),
			req:   txn.Request{Proc: 3, View: view.Universal(), Query: q},
			ref:   Txn{Proc: 3, View: view.Universal(), Query: q},
		}
	default: // view-restricted ∀ retract through a bounded import
		v := view.New(
			view.Union(view.PatWhere(
				pattern.P(pattern.C(tag), pattern.V("x")),
				expr.Lt(expr.V("x"), expr.Const(tuple.Int(val))),
			)),
			view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom("low")), pattern.W()))),
		)
		q := pattern.QAll(pattern.R(pattern.C(tag), pattern.V("v")))
		a := []pattern.Pattern{
			pattern.P(pattern.C(tuple.Atom("low")), pattern.V("v")),
			pattern.P(pattern.C(tuple.Atom("dropped")), pattern.V("v")), // not exportable
		}
		return op{
			descr: fmt.Sprintf("viewed move <%s,<%d>", tag, val),
			req:   txn.Request{Proc: 4, View: v, Query: q, Asserts: a},
			ref:   Txn{Proc: 4, View: v, Query: q, Asserts: a},
		}
	}
}

// multiset is the content multiset as a hash → count map: the oracle
// SameContent's sorted hash lists are checked against.
func multiset(insts []dataspace.Instance) map[uint64]int {
	out := make(map[uint64]int, len(insts))
	for _, inst := range insts {
		out[inst.Tuple.Hash()]++
	}
	return out
}

func (m *Model) instancesOf() []dataspace.Instance {
	out := make([]dataspace.Instance, len(m.instances))
	for i, inst := range m.instances {
		out[i] = dataspace.Instance{ID: inst.ID, Tuple: inst.Tuple, Owner: inst.Owner}
	}
	return out
}

func sameMultiset(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestDifferentialRandomSequences(t *testing.T) {
	// The two subtests split the seed space. Their IDs are those of the
	// two concurrency-control modes the engine once had, kept so the
	// suite's test IDs stay stable.
	for i, name := range []string{"coarse", "optimistic"} {
		t.Run(name, func(t *testing.T) {
			for seedBase := int64(30 * i); seedBase < int64(30*i+30); seedBase++ {
				rng := rand.New(rand.NewSource(seedBase))
				store := dataspace.New()
				engine := txn.New(store)
				model := &Model{}

				for step := 0; step < 60; step++ {
					o := genOp(rng)
					engRes, err := engine.Immediate(o.req)
					if err != nil {
						t.Fatalf("seed %d step %d (%s): engine: %v", seedBase, step, o.descr, err)
					}
					refRes, err := model.Apply(o.ref)
					if err != nil {
						t.Fatalf("seed %d step %d (%s): model: %v", seedBase, step, o.descr, err)
					}
					if engRes.OK != refRes.OK {
						t.Fatalf("seed %d step %d (%s): OK %v vs model %v",
							seedBase, step, o.descr, engRes.OK, refRes.OK)
					}
					if !SameContent(model, store) {
						t.Fatalf("seed %d step %d (%s): state diverged\nengine: %v\nmodel:  %v",
							seedBase, step, o.descr, dump(store), model.All())
					}
				}
			}
		})
	}
}

// SameContent decides exactly the map-based multiset equality: on every step
// of TestDifferentialRandomSequences' histories it agrees with the oracle,
// both for the model in step with the store and for the model one step
// behind it (which differs whenever the step changed the content).
func TestSameContentAgreesWithMultiset(t *testing.T) {
	differed := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := dataspace.New(dataspace.WithShards(4))
		engine := txn.New(store)
		model := &Model{}
		for step := 0; step < 60; step++ {
			prev := &Model{instances: slices.Clone(model.instances), nextID: model.nextID}
			o := genOp(rng)
			if _, err := engine.Immediate(o.req); err != nil {
				t.Fatalf("seed %d step %d (%s): engine: %v", seed, step, o.descr, err)
			}
			if _, err := model.Apply(o.ref); err != nil {
				t.Fatalf("seed %d step %d (%s): model: %v", seed, step, o.descr, err)
			}
			have := multiset(store.All())
			for _, m := range []*Model{model, prev} {
				want := sameMultiset(multiset(m.instancesOf()), have)
				if got := SameContent(m, store); got != want {
					t.Fatalf("seed %d step %d (%s): SameContent %v, multiset equality %v", seed, step, o.descr, got, want)
				}
				if !want {
					differed++
				}
			}
		}
	}
	if differed == 0 {
		t.Fatal("no step changed the content: the agreement was only ever checked on equal contents")
	}
}

// SameContent rejects a one-tuple difference either way and a difference in
// counts alone (the same distinct tuples and the same total).
func TestSameContentRejects(t *testing.T) {
	x, y, z := tuple.New(tuple.Atom("x")), tuple.New(tuple.Atom("y"), tuple.Int(1)), tuple.New(tuple.Int(2))
	store := dataspace.New(dataspace.WithShards(4))
	store.Assert(1, x, y, y)
	model := func(ts ...tuple.Tuple) *Model {
		m := &Model{}
		for _, t := range ts {
			m.Assert(2, t)
		}
		return m
	}
	for _, c := range []struct {
		name string
		m    *Model
		want bool
	}{
		{"equal", model(y, x, y), true},
		{"one tuple missing", model(x, y), false},
		{"one tuple extra", model(x, y, y, z), false},
		{"one tuple replaced", model(x, y, z), false},
		{"counts only", model(x, x, y), false},
	} {
		if got := SameContent(c.m, store); got != c.want {
			t.Errorf("%s: SameContent = %v, want %v", c.name, got, c.want)
		}
	}
}

func dump(s *dataspace.Store) []string {
	var out []string
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			out = append(out, inst.Tuple.String())
			return true
		})
	})
	return out
}

func TestModelBasics(t *testing.T) {
	m := &Model{}
	id := m.Assert(1, tuple.New(tuple.Atom("x"), tuple.Int(1)))
	if m.Len() != 1 || id == 0 {
		t.Fatalf("len=%d id=%d", m.Len(), id)
	}
	res, err := m.Apply(Txn{
		Proc:  2,
		View:  view.Universal(),
		Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("x")), pattern.V("v"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("y")),
			pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))))},
	})
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	all := m.All()
	if len(all) != 1 || !all[0].Tuple.Equal(tuple.New(tuple.Atom("y"), tuple.Int(2))) {
		t.Errorf("state = %v", all)
	}
	if all[0].Owner != 2 {
		t.Errorf("owner = %d", all[0].Owner)
	}

	// Failed transaction: no effect.
	res, err = m.Apply(Txn{
		Proc:  2,
		View:  view.Universal(),
		Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("missing")))),
	})
	if err != nil || res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if m.Len() != 1 {
		t.Error("failed txn changed the model")
	}
}

func TestModelWindowRestriction(t *testing.T) {
	m := &Model{}
	m.Assert(1, tuple.New(tuple.Atom("year"), tuple.Int(90)))
	v := view.New(
		view.Union(view.PatWhere(
			pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a")),
			expr.Le(expr.V("a"), expr.Const(tuple.Int(87))),
		)),
		view.Everything(),
	)
	res, err := m.Apply(Txn{
		Proc:  1,
		View:  v,
		Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a"))),
	})
	if err != nil || res.OK {
		t.Fatalf("window should hide year(90): %+v %v", res, err)
	}
}
