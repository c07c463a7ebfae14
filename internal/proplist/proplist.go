// Package proplist implements the paper's §3.2 property-list programs over
// the SDL runtime: Search (simulated recursive traversal, one process per
// hop), Find (content-addressable lookup), and the distributed Sort whose
// termination is detected by a consensus transaction over the community of
// adjacent-pair processes.
//
// The list is stored as <node_id, property_name, value, next_node_id>
// tuples, exactly as in the paper; `nil` is the atom closing the list.
package proplist

import (
	"context"
	"fmt"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
	"github.com/sdl-lang/sdl/internal/workload"
)

// Atoms used by the programs.
var (
	atomNil      = tuple.Atom("nil")
	atomResult   = tuple.Atom("result")
	atomNotFound = tuple.Atom("not_found")
)

// SearchDef returns the paper's Search(id, P) process: it looks for
// property P at node id and recurses by spawning a new Search on the next
// node ("in place of the normal recursive calls, a new process is created
// to continue the search").
//
//	PROCESS Search(id, P)
//	  ∃ν: <id, P, ν, *>            → (result, ν)
//	  ∃π: <id, π, *, nil> : π ≠ P  → (result, not_found)
//	  ∃π,ι: <id, π, *, ι> : π ≠ P, ι ≠ nil → Search(ι, P)
func SearchDef() *process.Definition {
	return &process.Definition{
		Name:   "Search",
		Params: []string{"id", "P"},
		Body: []process.Stmt{process.Select{Branches: []process.Branch{
			{Guard: process.Transact{
				Kind:    process.Immediate,
				Query:   pattern.Q(pattern.P(pattern.V("id"), pattern.V("P"), pattern.V("v"), pattern.W())),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atomResult), pattern.V("P"), pattern.V("v"))},
			}},
			{Guard: process.Transact{
				Kind: process.Immediate,
				Query: pattern.Q(pattern.P(pattern.V("id"), pattern.V("pi"), pattern.W(), pattern.C(atomNil))).
					Where(expr.Ne(expr.V("pi"), expr.V("P"))),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atomResult), pattern.V("P"), pattern.C(atomNotFound))},
			}},
			{Guard: process.Transact{
				Kind: process.Immediate,
				Query: pattern.Q(pattern.P(pattern.V("id"), pattern.V("pi"), pattern.W(), pattern.V("i"))).
					Where(expr.And(
						expr.Ne(expr.V("pi"), expr.V("P")),
						expr.Ne(expr.V("i"), expr.Const(atomNil)),
					)),
				Actions: []process.Action{&process.Spawn{
					Type: "Search",
					Args: []expr.Expr{expr.V("i"), expr.V("P")},
				}},
			}},
		}}},
	}
}

// FindDef returns the paper's Find(P) process: content-addressable lookup,
// no traversal.
//
//	PROCESS Find(P)
//	  ∃ν: <*, P, ν, *>  → (result, ν)
//	  ¬∃ν: <*, P, ν, *> → (result, not_found)
func FindDef() *process.Definition {
	return &process.Definition{
		Name:   "Find",
		Params: []string{"P"},
		Body: []process.Stmt{process.Select{Branches: []process.Branch{
			{Guard: process.Transact{
				Kind:    process.Immediate,
				Query:   pattern.Q(pattern.P(pattern.W(), pattern.V("P"), pattern.V("v"), pattern.W())),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atomResult), pattern.V("P"), pattern.V("v"))},
			}},
			{Guard: process.Transact{
				Kind:    process.Immediate,
				Query:   pattern.Q(pattern.N(pattern.W(), pattern.V("P"), pattern.W(), pattern.W())),
				Asserts: []pattern.Pattern{pattern.P(pattern.C(atomResult), pattern.V("P"), pattern.C(atomNotFound))},
			}},
		}}},
	}
}

// sortView is the Sort process's view: exactly the two nodes it owns.
//
//	IMPORT <node_id,*,*,*>, <next_node_id,*,*,*>
//	EXPORT <node_id,*,*,*>, <next_node_id,*,*,*>
func sortView(expr.Scope) view.View {
	clause := view.Union(
		view.Pat(pattern.P(pattern.V("a"), pattern.W(), pattern.W(), pattern.W())),
		view.Pat(pattern.P(pattern.V("b"), pattern.W(), pattern.W(), pattern.W())),
	)
	return view.New(clause, clause)
}

// SortDef returns the adjacent-pair Sort(a, b) process: it swaps the
// (name, value) payloads of nodes a and b whenever they are out of order
// by value, and participates in the community-wide consensus that detects
// global sortedness and terminates every Sort process together.
func SortDef() *process.Definition {
	swapGuard := process.Transact{
		Kind: process.Immediate,
		Query: pattern.Q(
			pattern.R(pattern.V("a"), pattern.V("n1"), pattern.V("v1"), pattern.V("x")),
			pattern.R(pattern.V("b"), pattern.V("n2"), pattern.V("v2"), pattern.V("y")),
		).Where(expr.Gt(expr.V("v1"), expr.V("v2"))),
		Asserts: []pattern.Pattern{
			pattern.P(pattern.V("a"), pattern.V("n2"), pattern.V("v2"), pattern.V("x")),
			pattern.P(pattern.V("b"), pattern.V("n1"), pattern.V("v1"), pattern.V("y")),
		},
	}
	orderedGuard := process.Transact{
		Kind: process.Consensus,
		Query: pattern.Q(
			pattern.P(pattern.V("a"), pattern.W(), pattern.V("v1"), pattern.W()),
			pattern.P(pattern.V("b"), pattern.W(), pattern.V("v2"), pattern.W()),
		).Where(expr.Le(expr.V("v1"), expr.V("v2"))),
		Actions: []process.Action{process.Exit{}},
	}
	return &process.Definition{
		Name:   "Sort",
		Params: []string{"a", "b"},
		View:   sortView,
		Body: []process.Stmt{process.Repeat{Branches: []process.Branch{
			{Guard: swapGuard},
			{Guard: orderedGuard},
		}}},
	}
}

// RunSort loads the list, spawns one Sort process per adjacent pair, and
// waits for the consensus-detected termination.
func RunSort(ctx context.Context, rt *process.Runtime, nodes []workload.PropertyNode) error {
	workload.LoadPropertyList(rt.Engine().Store(), nodes)
	if err := rt.Define(SortDef()); err != nil {
		return err
	}
	// Spawn the whole community as a group: the termination consensus is
	// over every adjacent pair, so no member may start (and possibly reach
	// a partial consensus) before all members are registered.
	reqs := make([]process.SpawnReq, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		reqs = append(reqs, process.SpawnReq{
			Type: "Sort",
			Args: []tuple.Value{tuple.Int(nodes[i].ID), tuple.Int(nodes[i+1].ID)},
		})
	}
	if _, err := rt.SpawnGroup(reqs); err != nil {
		return err
	}
	if err := rt.WaitCtx(ctx); err != nil {
		return err
	}
	if errs := rt.Errors(); len(errs) > 0 {
		return fmt.Errorf("proplist: sort: %w", errs[0])
	}
	return nil
}

// Values reads back the per-position values of the list (indexed by
// 1-based node_id) for verification.
func Values(s *dataspace.Store, n int) ([]int64, error) {
	out := make([]int64, n)
	seen := 0
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			if inst.Tuple.Arity() != 4 {
				return true
			}
			id, ok := inst.Tuple.Field(0).AsInt()
			if !ok || id < 1 || id > int64(n) {
				return true
			}
			v, _ := inst.Tuple.Field(2).AsInt()
			out[id-1] = v
			seen++
			return true
		})
	})
	if seen != n {
		return nil, fmt.Errorf("proplist: found %d of %d nodes", seen, n)
	}
	return out, nil
}

// Result reads the <result, P, v> tuple left by Search/Find; found is
// false when the value is the not_found atom.
func Result(s *dataspace.Store, prop string) (val int64, found, present bool) {
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(3, atomResult, true, func(_ tuple.ID, tp tuple.Tuple) bool {
			if !tp.Field(1).Equal(tuple.Atom(prop)) {
				return true
			}
			present = true
			if v, ok := tp.Field(2).AsInt(); ok {
				val, found = v, true
			}
			return false
		})
	})
	return val, found, present
}
