package consensus

import (
	"slices"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
)

// sharing is a firing attempt's memo of the statements phase 1 has solved:
// a process member may copy an earlier process member's solution when both
// issue one compiled statement (the same patterns array, which the compiler
// cuts for it alone, at the same position, with the same quantifier and
// test) whose query retracts nothing, imports the universal window, and
// reads the same bindings from both scopes, and no instance has been hidden
// since (DESIGN.md §4a, "One evaluation per statement").
type sharing struct {
	stmts map[stmt]memo
	names []string // the variables of every statement in stmts
}

// stmt names a compiled statement's query: its patterns array, position,
// quantifier and test. The test is named by identity — the interface's type
// and data words, equal only for one value — since expr.Expr values may not
// be comparable.
type stmt struct {
	pats  *pattern.Pattern
	n     int
	pos   metrics.Pos
	quant pattern.Quantifier
	test  [2]unsafe.Pointer
}

// memo is a statement's read variables, names[lo:hi] (lo < 0 marks a
// statement that is never shared), listed once per attempt, and the last
// answer solved for it: the answer, the scope it was solved under, and how
// many instances were hidden then. One answer per statement keeps a lookup
// one comparison of the bindings.
type memo struct {
	lo, hi int
	a      *txn.Answer
	env    expr.Scope
	hidden int
}

func (sh *sharing) reset() {
	clear(sh.stmts)
	clear(sh.names)
	sh.names = sh.names[:0]
}

// lookup reports whether a process member's req may share an evaluation,
// with its statement, and returns the answer it may copy, if the last one
// solved for the statement was solved under the same bindings while hidden
// instances were hidden, as now.
func (sh *sharing) lookup(req *txn.Request, hidden int) (key stmt, from *txn.Answer, ok bool) {
	q := &req.Query
	if !req.View.Import.All || req.Pos == (metrics.Pos{}) || len(q.Patterns) == 0 {
		return key, nil, false
	}
	key = stmt{unsafe.SliceData(q.Patterns), len(q.Patterns), req.Pos, q.Quant, *(*[2]unsafe.Pointer)(unsafe.Pointer(&q.Test))}
	e, listed := sh.stmts[key]
	if !listed {
		if sh.stmts == nil {
			sh.stmts = make(map[stmt]memo)
		}
		e = sh.list(q)
		sh.stmts[key] = e
	}
	if e.lo < 0 {
		return key, nil, false
	}
	if e.a != nil && e.hidden == hidden && same(sh.names[e.lo:e.hi], e.env, req.Env) {
		return key, e.a, true
	}
	return key, nil, true
}

// keep makes a, solved under env while hidden instances were hidden, the
// answer key's later members may copy.
func (sh *sharing) keep(key stmt, a *txn.Answer, env expr.Scope, hidden int) {
	e := sh.stmts[key]
	e.a, e.env, e.hidden = a, env, hidden
	sh.stmts[key] = e
}

// list appends the variables q reads to names — those of its fields,
// computed fields, guards and test, once each — and returns their range,
// or lo = -1 when q retracts.
func (sh *sharing) list(q *pattern.Query) memo {
	lo := len(sh.names)
	for i := range q.Patterns {
		p := &q.Patterns[i]
		if p.Retract {
			clear(sh.names[lo:])
			sh.names = sh.names[:lo]
			return memo{lo: -1}
		}
		for _, f := range p.Fields {
			switch f.Kind {
			case pattern.FieldVar:
				sh.names = append(sh.names, f.Name)
			case pattern.FieldExpr:
				sh.names = f.Expr.Vars(sh.names)
			}
		}
		if p.Guard != nil {
			sh.names = p.Guard.Vars(sh.names)
		}
	}
	if q.Test != nil {
		sh.names = q.Test.Vars(sh.names)
	}
	slices.Sort(sh.names[lo:])
	sh.names = sh.names[:lo+len(slices.Compact(sh.names[lo:]))]
	return memo{lo: lo, hi: len(sh.names)}
}

// same reports whether scopes a and b bind each of names to the same value
// (==, so an int and an Equal float differ), or both leave it unbound.
func same(names []string, a, b expr.Scope) bool {
	for _, name := range names {
		va, oka := lookup(a, name)
		vb, okb := lookup(b, name)
		if oka != okb || va != vb {
			return false
		}
	}
	return true
}

func lookup(s expr.Scope, name string) (tuple.Value, bool) {
	if s == nil {
		return tuple.Value{}, false
	}
	return s.Lookup(name)
}
