package refmodel

import (
	"fmt"
	"slices"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Solution is one solution of a query in the model's terms: the variable
// environment, and the instances its retract-tagged patterns matched, in
// written order.
type Solution struct {
	Env       expr.Env
	Retracted []tuple.ID
}

// Solutions computes every solution of q over the window, starting from the
// base environment, by the definition of a query and nothing else: nested
// loops over the positive patterns in the order they are written, every
// instance of the window tried against every pattern, a fresh copy of the
// environment per candidate. It shares no code with the production matcher
// (internal/pattern's planner, compiled program, slot frame and index access
// paths) — it is what that matcher is checked against. The rules, from the
// paper's query semantics:
//
//   - A pattern matches a tuple of its arity when every constant equals its
//     field, every variable already bound equals its field (a variable's
//     first occurrence binds it), and every computed field's expression,
//     evaluated under the bindings so far, equals its field; an expression
//     that cannot be evaluated matches nothing.
//   - A guard on a positive pattern is a predicate over the bindings in scope
//     once the pattern has matched; a candidate it rejects is skipped.
//   - One instance can be retracted only once: within a solution the
//     retract-tagged patterns match pairwise-distinct instances. Read patterns
//     may share an instance with anything.
//   - The test query is evaluated once every positive pattern has matched.
//   - A negated pattern rejects the solution when some instance matches it —
//     under the solution's bindings, with the variables that occur only in
//     the negated pattern free (a wildcard that must agree with itself) —
//     and passes its guard. Its bindings are not part of the solution.
//   - A guard or test query that fails to evaluate (an unbound variable, a
//     type error) fails the whole enumeration.
func Solutions(q pattern.Query, window []Instance, base expr.Env) ([]Solution, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var positives, negatives []pattern.Pattern
	for _, p := range q.Patterns {
		if p.Negated {
			negatives = append(negatives, p)
		} else {
			positives = append(positives, p)
		}
	}

	var out []Solution
	var join func(k int, env expr.Env, retracted []tuple.ID) error
	join = func(k int, env expr.Env, retracted []tuple.ID) error {
		if k == len(positives) {
			ok, err := accepts(q.Test, negatives, window, env)
			if err != nil || !ok {
				return err
			}
			out = append(out, Solution{Env: env, Retracted: append([]tuple.ID(nil), retracted...)})
			return nil
		}
		p := positives[k]
		for _, inst := range window {
			if p.Retract && slices.Contains(retracted, inst.ID) {
				continue
			}
			ext, ok := match(p, inst.Tuple, env)
			if !ok {
				continue
			}
			if pass, err := expr.EvalBool(p.Guard, ext); err != nil {
				return fmt.Errorf("refmodel: guard of %s: %w", p, err)
			} else if !pass {
				continue
			}
			next := retracted
			if p.Retract {
				next = append(retracted[:len(retracted):len(retracted)], inst.ID)
			}
			if err := join(k+1, ext, next); err != nil {
				return err
			}
		}
		return nil
	}
	err := join(0, base.Clone(), nil)
	return out, err
}

// accepts applies the test query and the negated patterns to one candidate
// solution.
func accepts(test expr.Expr, negatives []pattern.Pattern, window []Instance, env expr.Env) (bool, error) {
	if ok, err := expr.EvalBool(test, env); err != nil {
		return false, fmt.Errorf("refmodel: test query: %w", err)
	} else if !ok {
		return false, nil
	}
	for _, p := range negatives {
		for _, inst := range window {
			ext, ok := match(p, inst.Tuple, env)
			if !ok {
				continue
			}
			if violates, err := expr.EvalBool(p.Guard, ext); err != nil {
				return false, fmt.Errorf("refmodel: guard of %s: %w", p, err)
			} else if violates {
				return false, nil
			}
		}
	}
	return true, nil
}

// match extends a copy of env with the bindings p makes against t.
func match(p pattern.Pattern, t tuple.Tuple, env expr.Env) (expr.Env, bool) {
	if t.Arity() != len(p.Fields) {
		return nil, false
	}
	ext := env.Clone()
	for i, f := range p.Fields {
		fv := t.Field(i)
		switch f.Kind {
		case pattern.FieldWildcard:
		case pattern.FieldConst:
			if !f.Value.Equal(fv) {
				return nil, false
			}
		case pattern.FieldVar:
			if bound, ok := ext[f.Name]; !ok {
				ext[f.Name] = fv
			} else if !bound.Equal(fv) {
				return nil, false
			}
		case pattern.FieldExpr:
			if want, err := f.Expr.Eval(ext); err != nil || !want.Equal(fv) {
				return nil, false
			}
		}
	}
	return ext, true
}
