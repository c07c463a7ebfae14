package pattern_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// FuzzEnumerate and TestEnumerateMatchesOracle check the compiled matcher
// against refmodel.Solutions — nested loops, a cloned environment per
// candidate, no frame, no index — on random multi-pattern queries over random
// tuple sets: constants, wildcards, shared and repeated variables, computed
// fields, guards, negated patterns with and without guards, retract tags, a
// test query, a non-empty base environment. The oracle joins the positive
// patterns in the order the planner chose for the matcher (JoinOrder), so the
// two explore the same search tree. Per query, through a plain Source and
// through the adversarial wideSource:
//
//   - SolveAll fails exactly when the oracle does, and otherwise its solution
//     multiset (environment + retracted instances) equals the oracle's;
//     Solve finds a member of it iff it is non-empty;
//   - the planner only reorders: when the written order has solutions and
//     neither order raises an error, both orders have the same ones (the
//     planner may find answers the written order misses, but only because as
//     written a computed field reads a variable bound later and so never
//     matches — then the written order has none);
//   - the caller's base environment is untouched;
//   - a solution handed to a consumer that stops the enumeration stays
//     intact while the pooled matcher serves other enumerations;
//   - an enumeration started from inside the consumer neither disturbs the
//     outer run nor is disturbed by it.

var (
	enumVals = []tuple.Value{
		tuple.Int(0), tuple.Int(1), tuple.Int(2), tuple.Int(3),
		tuple.Atom("a"), tuple.Atom("b"), tuple.Float(1), tuple.Bool(true),
	}
	enumNames = []string{"x", "y", "z", "w"}
)

// enumInput is one decoded fuzz case.
type enumInput struct {
	q      pattern.Query
	tuples []tuple.Tuple
	base   expr.Env
}

// decodeEnumInput consumes data into a query, a tuple set and a base
// environment. Every byte string decodes to something valid; exhausted input
// reads zeros.
func decodeEnumInput(data []byte) enumInput {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	val := func() tuple.Value {
		// Mostly the small integers, so joins and equalities actually fire.
		if b := next(); b%4 != 0 {
			return enumVals[(b/4)%4]
		} else {
			return enumVals[(b/4)%len(enumVals)]
		}
	}
	name := func() string { return enumNames[next()%len(enumNames)] }
	operand := func() expr.Expr {
		if b := next(); b%3 == 0 {
			return expr.Const(enumVals[(b/3)%4])
		}
		return expr.V(name())
	}
	predicate := func() expr.Expr {
		l, r := operand(), operand()
		switch next() % 6 {
		case 0:
			return expr.Eq(l, r)
		case 1:
			return expr.Ne(l, r)
		case 2:
			return expr.Lt(l, r)
		case 3:
			return expr.Ge(l, r)
		case 4: // may raise a type error on an atom
			return expr.Gt(expr.Add(l, expr.Const(tuple.Int(1))), r)
		default:
			return expr.Or(expr.Eq(l, r), expr.Lt(l, operand()))
		}
	}

	var in enumInput
	for n := next() % 13; len(in.tuples) < n; {
		vals := make([]tuple.Value, 1+next()%3)
		for i := range vals {
			vals[i] = val()
		}
		in.tuples = append(in.tuples, tuple.New(vals...))
	}
	in.q.Quant = pattern.Exists
	if next()%2 == 0 {
		in.q.Quant = pattern.ForAll
	}
	for n := 1 + next()%4; len(in.q.Patterns) < n; {
		var p pattern.Pattern
		for arity := 1 + next()%3; len(p.Fields) < arity; {
			switch next() % 8 {
			case 0, 1:
				p.Fields = append(p.Fields, pattern.C(val()))
			case 2:
				p.Fields = append(p.Fields, pattern.W())
			case 3:
				p.Fields = append(p.Fields, pattern.E(expr.Add(operand(), expr.Const(tuple.Int(int64(next()%2))))))
			default:
				p.Fields = append(p.Fields, pattern.V(name()))
			}
		}
		switch next() % 8 {
		case 0, 1:
			p.Retract = true
		case 2:
			p.Negated = true
		}
		if next()%4 == 0 {
			p.Guard = predicate()
		}
		in.q.Patterns = append(in.q.Patterns, p)
	}
	if next()%4 == 0 {
		in.q.Test = predicate()
	}
	if n := next() % 4; n > 0 {
		in.base = expr.Env{}
		for ; n > 1; n-- {
			in.base[name()] = val()
		}
		in.base["p"] = val() // a parameter no pattern mentions
	}
	return in
}

// solutionKey renders a solution canonically: sorted bindings, then the
// sorted retracted instances (the matcher lists them in join order, the
// oracle in written order). Numbers render by value: 1 and 1.0 are Equal, and
// which of the two a variable holds depends on which pattern bound it first.
func solutionKey(env expr.Env, retracted []tuple.ID) string {
	parts := make([]string, 0, len(env))
	for k, v := range env {
		if n, ok := v.Numeric(); ok {
			parts = append(parts, fmt.Sprintf("%s=%g", k, n))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%v/%d", k, v, v.Kind()))
		}
	}
	slices.Sort(parts)
	ids := slices.Clone(retracted)
	slices.Sort(ids)
	return fmt.Sprintf("%s | %v", strings.Join(parts, " "), ids)
}

func bindingKeys(sols []pattern.Binding) map[string]int {
	out := map[string]int{}
	for _, b := range sols {
		for _, m := range b.Matched {
			if !m.Retract {
				panic("Binding.Matched lists a read pattern's match")
			}
		}
		out[solutionKey(b.Env, b.RetractedIDs())]++
	}
	return out
}

func oracleKeys(sols []refmodel.Solution) map[string]int {
	out := map[string]int{}
	for _, s := range sols {
		out[solutionKey(s.Env, s.Retracted)]++
	}
	return out
}

// inJoinOrder returns q with its positive patterns permuted into order (a
// JoinOrder) and its negated patterns after them as written: the query whose
// written order is the matcher's join order.
func inJoinOrder(q pattern.Query, order []int) pattern.Query {
	pats := make([]pattern.Pattern, 0, len(q.Patterns))
	for _, i := range order {
		pats = append(pats, q.Patterns[i])
	}
	for _, p := range q.Patterns {
		if p.Negated {
			pats = append(pats, p)
		}
	}
	q.Patterns = pats
	return q
}

func windowOf(ts []tuple.Tuple) []refmodel.Instance {
	window := make([]refmodel.Instance, len(ts))
	for i, tp := range ts {
		window[i] = refmodel.Instance{ID: tuple.ID(i + 1), Tuple: tp}
	}
	return window
}

// checkEnumerate runs the differential check on one decoded input. Every one
// of the first nest outer solutions starts a nested run (nest < 0: every
// outer solution does).
func checkEnumerate(t *testing.T, data []byte, nest int) {
	in := decodeEnumInput(data)
	window := windowOf(in.tuples)
	written, writtenErr := refmodel.Solutions(in.q, window, in.base)
	baseBefore := in.base.Clone()

	sources := map[string]func() pattern.Source{
		"plain": func() pattern.Source { return pattern.NewSliceSource(in.tuples) },
		"wide":  func() pattern.Source { return pattern.NewWideSource(in.tuples) },
	}
	for srcName, mk := range sources {
		q := in.q
		joined := inJoinOrder(q, pattern.JoinOrder(q, mk(), in.base))
		where := fmt.Sprintf("%s over %v from %v (%s source, joined as %s)", q, in.tuples, baseBefore, srcName, joined)
		oracle, oracleErr := refmodel.Solutions(joined, window, in.base)
		want := oracleKeys(oracle)
		if len(written) > 0 && writtenErr == nil && oracleErr == nil && !maps.Equal(oracleKeys(written), want) {
			t.Fatalf("%s: the join order changes the answer:\n joined  %v\n written %v", where, want, oracleKeys(written))
		}

		sols, err := pattern.SolveAll(q, mk(), in.base)
		if (err != nil) != (oracleErr != nil) {
			t.Fatalf("%s: error %v, oracle %v", where, err, oracleErr)
		}
		if err != nil {
			continue
		}
		if got := bindingKeys(sols); !maps.Equal(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", where, got, want)
		}

		one, found, err := pattern.Solve(q, mk(), in.base)
		if err != nil || found != (len(want) > 0) {
			t.Fatalf("%s: Solve found %v, err %v; oracle has %d solutions", where, found, err, len(oracle))
		}
		if found && want[solutionKey(one.Env, one.RetractedIDs())] == 0 {
			t.Fatalf("%s: Solve returned %v, not an oracle solution", where, one)
		}

		// Early stop: keep the solution the consumer stopped on, let the
		// pooled matcher serve other runs, then look at it again.
		var kept pattern.Binding
		var keptKey string
		if err := pattern.Enumerate(q, mk(), in.base, func(b pattern.Binding) bool {
			kept, keptKey = b, solutionKey(b.Env, b.RetractedIDs())
			return false
		}); err != nil {
			t.Fatalf("%s: early-stopped run: %v", where, err)
		}
		if _, err := pattern.SolveAll(q, mk(), in.base); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if len(want) > 0 && (solutionKey(kept.Env, kept.RetractedIDs()) != keptKey || want[keptKey] == 0) {
			t.Fatalf("%s: handed-off solution changed from %s to %v", where, keptKey, kept)
		}

		// Re-entrancy: outer solutions start nested runs; both must see the
		// oracle's solutions.
		var outer []pattern.Binding
		if err := pattern.Enumerate(q, mk(), in.base, func(b pattern.Binding) bool {
			outer = append(outer, b)
			if nest >= 0 && len(outer) > nest {
				return true
			}
			inner, err := pattern.SolveAll(q, mk(), in.base)
			if err != nil || !maps.Equal(bindingKeys(inner), want) {
				t.Fatalf("%s: nested run: %v, err %v; want %v", where, bindingKeys(inner), err, want)
			}
			return true
		}); err != nil {
			t.Fatalf("%s: outer run: %v", where, err)
		}
		if got := bindingKeys(outer); !maps.Equal(got, want) {
			t.Fatalf("%s: outer run around nested ones:\n got %v\nwant %v", where, got, want)
		}
	}
	if len(in.base) != len(baseBefore) {
		t.Fatalf("base environment changed: %v, had %v", in.base, baseBefore)
	}
	for k, v := range baseBefore {
		if w, ok := in.base[k]; !ok || w != v {
			t.Fatalf("base environment changed: %v, had %v", in.base, baseBefore)
		}
	}
}

// TestQuickPlannerPreservesSolutions: on random 2–3 pattern queries over
// shared variables, constants, wildcards and retract tags — no computed
// field, guard or test, so every order is in scope — the planned matcher's
// solution multiset is the written-order oracle's.
func TestQuickPlannerPreservesSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		var ts []tuple.Tuple
		for n := 5 + rng.Intn(15); len(ts) < n; {
			ts = append(ts, tuple.New(tuple.Int(int64(rng.Intn(4))), tuple.Int(int64(rng.Intn(4)))))
		}
		vars := []string{"a", "b", "c"}
		mk := func() pattern.Pattern {
			f := func() pattern.Field {
				switch rng.Intn(3) {
				case 0:
					return pattern.C(tuple.Int(int64(rng.Intn(4))))
				case 1:
					return pattern.V(vars[rng.Intn(len(vars))])
				default:
					return pattern.W()
				}
			}
			p := pattern.P(f(), f())
			p.Retract = rng.Intn(2) == 0
			return p
		}
		q := pattern.QAll(mk(), mk())
		if rng.Intn(2) == 0 {
			q.Patterns = append(q.Patterns, mk())
		}
		got, err := pattern.SolveAll(q, pattern.NewSliceSource(ts), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refmodel.Solutions(q, windowOf(ts), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(bindingKeys(got), oracleKeys(want)) {
			t.Fatalf("trial %d: %s over %v:\n got %v\nwant %v", trial, q, ts, bindingKeys(got), oracleKeys(want))
		}
	}
}

// probeNames are the names a row is asked for: every name a decoded query
// can use, the base environment's parameter, and one nothing binds.
var probeNames = append(slices.Clone(enumNames), "p", "absent")

// checkRows collects q into a pattern.Table, every solution and then only
// the first, and checks each row against its materialized environment: a
// lookup of any name — a bound variable, a base variable, a variable only
// negated patterns mention, a name nothing binds — agrees with the map, and
// the rows are the oracle's solutions (or one of them).
func checkRows(t *testing.T, where string, q pattern.Query, mk func() pattern.Source, base expr.Env, want map[string]int) {
	t.Helper()
	var tab pattern.Table
	for _, first := range []bool{false, true} {
		if err := tab.Collect(q, mk(), base, first, nil); err != nil {
			t.Fatalf("%s: Collect(first=%v): %v", where, first, err)
		}
		rows := tab.Rows()
		got := map[string]int{}
		for i := range rows {
			r := &rows[i]
			env := r.Env()
			for _, name := range probeNames {
				v, ok := r.Lookup(name)
				if w, wok := env[name]; ok != wok || v != w {
					t.Fatalf("%s: row %d looks up %s as %v (%v), its Env holds %v (%v)", where, i, name, v, ok, w, wok)
				}
			}
			ids := make([]tuple.ID, 0, len(r.Matched()))
			for _, m := range r.Matched() {
				ids = append(ids, m.ID)
			}
			got[solutionKey(env, ids)]++
		}
		switch {
		case !first && !maps.Equal(got, want):
			t.Fatalf("%s: table rows\n got %v\nwant %v", where, got, want)
		case first && (len(rows) != min(1, len(want)) || !subset(got, want)):
			t.Fatalf("%s: first-only table rows %v, oracle %v", where, got, want)
		}
	}
}

// subset reports whether every key of got is a key of want.
func subset(got, want map[string]int) bool {
	for k := range got {
		if want[k] == 0 {
			return false
		}
	}
	return true
}

// TestRowLookupsMatchEnv runs the row check over a pseudo-random corpus and
// insists the corpus reaches the cases that matter: rows over a base
// environment, queries with a variable only a negated pattern mentions, and
// both quantifiers.
func TestRowLookupsMatchEnv(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var withBase, negatedOnly, exists, forall int
	for round := 0; round < 2000; round++ {
		data := make([]byte, 32+r.Intn(96))
		r.Read(data)
		in := decodeEnumInput(data)
		mk := func() pattern.Source { return pattern.NewSliceSource(in.tuples) }
		joined := inJoinOrder(in.q, pattern.JoinOrder(in.q, mk(), in.base))
		oracle, err := refmodel.Solutions(joined, windowOf(in.tuples), in.base)
		if err != nil || len(oracle) == 0 {
			continue
		}
		checkRows(t, fmt.Sprintf("%s from %v", in.q, in.base), in.q, mk, in.base, oracleKeys(oracle))
		if len(in.base) > 0 {
			withBase++
		}
		if hasNegatedOnlyVar(in.q, in.base) {
			negatedOnly++
		}
		if in.q.Quant == pattern.Exists {
			exists++
		} else {
			forall++
		}
	}
	if withBase < 50 || negatedOnly < 20 || exists < 50 || forall < 50 {
		t.Fatalf("corpus too narrow: %d with a base, %d with a negated-only variable, %d ∃, %d ∀", withBase, negatedOnly, exists, forall)
	}
}

// hasNegatedOnlyVar reports whether some variable of q appears only in
// negated patterns (and is not a base variable).
func hasNegatedOnlyVar(q pattern.Query, base expr.Env) bool {
	positive := q.Vars()
	for _, p := range q.Patterns {
		if !p.Negated {
			continue
		}
		for _, f := range p.Fields {
			if _, inBase := base[f.Name]; f.Kind == pattern.FieldVar && !inBase && !slices.Contains(positive, f.Name) {
				return true
			}
		}
	}
	return false
}

func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 5, 2, 1, 5, 9, 0, 1, 1, 1, 5, 4, 0, 7, 3})
	// <?x, ?y>!, <?y, ?z>!, not <?z> over a handful of pairs, forall.
	f.Add([]byte{6, 1, 5, 9, 1, 9, 13, 1, 13, 5, 1, 5, 5, 0, 9, 0, 0, 2, 1, 4, 0, 4, 1, 0, 1, 1, 4, 1, 4, 2, 0, 1, 0, 4, 2, 2, 1})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 96)
		r.Read(seed)
		f.Add(seed)
	}
	// Nested runs under every outer solution make the check quadratic in the
	// solution count, and the fuzzer finds inputs with > 10⁴ solutions; here
	// only the first fuzzNested outer solutions nest.
	f.Fuzz(func(t *testing.T, data []byte) { checkEnumerate(t, data, fuzzNested) })
}

// fuzzNested is how many outer solutions start a nested run in FuzzEnumerate.
const fuzzNested = 4

// TestEnumerateMatchesOracle runs the fuzz body over a fixed pseudo-random
// corpus, so the differential check rides every `go test`, nesting a run
// under every outer solution.
func TestEnumerateMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	compared := 0
	for round := 0; round < 4000; round++ {
		data := make([]byte, 32+r.Intn(96))
		r.Read(data)
		in := decodeEnumInput(data)
		if sols, err := pattern.SolveAll(in.q, pattern.NewSliceSource(in.tuples), in.base); err == nil && len(sols) > 0 {
			compared++
		}
		checkEnumerate(t, data, -1)
	}
	if compared < 400 {
		t.Fatalf("only %d of 4000 random queries had a solution: the corpus exercises too little", compared)
	}
}
