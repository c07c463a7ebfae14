package pattern

import (
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Table holds the solutions of one enumeration as rows of slot values: one
// column-name slice (the variables the positive patterns bind, in slot
// order), every row's values in one flat slice, the base scope referenced
// rather than copied, and every row's retract-tagged matches in one arena.
// A table is meant to be reused: Collect refills it, and what it allocated
// once serves every later enumeration.
type Table struct {
	cols  []string      // column names
	vals  []tuple.Value // row-major, len(cols) values per row
	base  expr.Scope    // the enumeration's base scope, read-only
	arena []Match       // every row's retract-tagged matches, in row order
	rows  []Row
}

// Row is one solution in a Table. As an expr.Scope it resolves the query's
// variables from the row's values, then from the base scope — exactly what
// its materialized Env holds. A Row is valid until its table is refilled or
// reset.
type Row struct {
	t      *Table
	val    int // first of the row's values in t.vals
	m0, m1 int // the row's retract-tagged matches: t.arena[m0:m1]
}

// maxPooledRows bounds the table a pooled owner keeps across uses; a bigger
// one is dropped by Reset rather than pinned.
const maxPooledRows = 256

// Collect enumerates q's solutions over src from base into t, replacing what
// it held: only the first solution when first is set, every one otherwise.
// base is referenced by the rows, never modified. A non-nil ex receives the
// enumeration's steps: each pattern's lead source, the access path of every
// scan, the candidates visited and matched. Nothing is allocated beyond
// what t's arrays (and ex's steps) must grow by.
func (t *Table) Collect(q Query, src Source, base expr.Scope, first bool, ex *metrics.Explain) error {
	t.Reset()
	m := matchers.Get().(*matcher)
	defer m.release()
	return m.run(q, src, base, nil, first, t, ex)
}

// Rebase makes t a copy of from's solutions over base in place of from's
// base scope: what an enumeration of from's query from base would collect,
// when base binds every variable the query reads as from's base does and the
// source is unchanged. from is only read.
func (t *Table) Rebase(from *Table, base expr.Scope) {
	t.Reset()
	t.cols = append(t.cols, from.cols...)
	t.vals = append(t.vals, from.vals...)
	t.arena = append(t.arena, from.arena...)
	t.base = base
	for _, r := range from.rows {
		r.t = t
		t.rows = append(t.rows, r)
	}
}

// Rows returns the table's solutions in enumeration order.
func (t *Table) Rows() []Row { return t.rows }

// Reset empties the table and drops every reference it holds, keeping its
// arrays for the next Collect unless they have grown too big to keep.
func (t *Table) Reset() {
	if cap(t.rows) > maxPooledRows {
		*t = Table{}
		return
	}
	clear(t.cols)
	clear(t.vals)
	clear(t.arena)
	clear(t.rows)
	t.cols, t.vals, t.arena, t.rows, t.base = t.cols[:0], t.vals[:0], t.arena[:0], t.rows[:0], nil
}

// add appends one row: the values of the columns' slots, and the
// retract-tagged matches of the solution.
func (t *Table) add(vals []tuple.Value, matched []Match) {
	r := Row{t: t, val: len(t.vals), m0: len(t.arena)}
	t.vals = append(t.vals, vals...)
	t.arena = append(t.arena, matched...)
	r.m1 = len(t.arena)
	t.rows = append(t.rows, r)
}

// Lookup implements expr.Scope.
func (r *Row) Lookup(name string) (tuple.Value, bool) {
	t := r.t
	for i, c := range t.cols {
		if c == name {
			return t.vals[r.val+i], true
		}
	}
	return lookup(t.base, name)
}

// AddTo implements expr.Lister: the base scope's bindings, then the row's.
func (r *Row) AddTo(env expr.Env) {
	t := r.t
	expr.Fill(env, t.base)
	for i, c := range t.cols {
		env[c] = t.vals[r.val+i]
	}
}

// Matched returns the tuple instances the row's retract-tagged patterns
// matched, in join order. The slice belongs to the table.
func (r *Row) Matched() []Match { return r.t.arena[r.m0:r.m1:r.m1] }

// Env materializes the row as an environment of its own: the base scope's
// bindings plus the row's. It costs one map.
func (r *Row) Env() expr.Env {
	t := r.t
	return materialize(t.cols, t.vals[r.val:r.val+len(t.cols)], t.base)
}

// materialize builds the environment of base's bindings plus cols bound to
// vals, sized for the columns: with no base, that is the whole map.
func materialize(cols []string, vals []tuple.Value, base expr.Scope) expr.Env {
	env := make(expr.Env, len(cols))
	expr.Fill(env, base)
	for i, c := range cols {
		env[c] = vals[i]
	}
	return env
}

// binding builds one map-shaped solution — the Bindings of Solve, SolveAll,
// AppendSolutions and Enumerate are built here and nowhere else: an
// environment of its own, and matched, memory the caller hands over.
func binding(cols []string, vals []tuple.Value, base expr.Scope, matched []Match) Binding {
	b := Binding{Env: materialize(cols, vals, base)}
	if len(matched) > 0 {
		b.Matched = matched
	}
	return b
}

var _ expr.Lister = (*Row)(nil)
