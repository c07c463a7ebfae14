// Proplist runs the paper's §3.2 property-list programs: Search (one
// process per traversal hop, simulating recursion), Find (content-
// addressable lookup — "the preferred solution"), and the distributed Sort
// whose termination is a consensus transaction over the community of
// adjacent-pair processes.
//
//	go run ./examples/proplist [-n 24]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	sdl "github.com/sdl-lang/sdl"
)

func main() {
	n := flag.Int("n", 24, "list length")
	flag.Parse()
	if err := run(*n); err != nil {
		fmt.Fprintln(os.Stderr, "proplist:", err)
		os.Exit(1)
	}
}

var (
	nilAtom  = sdl.Atom("nil")
	result   = sdl.Atom("result")
	notFound = sdl.Atom("not_found")
)

// searchDef: PROCESS Search(id, P) — three mutually exclusive guards.
func searchDef() *sdl.Definition {
	return &sdl.Definition{
		Name:   "Search",
		Params: []string{"id", "P"},
		Body: []sdl.Stmt{sdl.Select{Branches: []sdl.Branch{
			{Guard: sdl.Transact{
				Kind:    sdl.Immediate,
				Query:   sdl.Q(sdl.P(sdl.V("id"), sdl.V("P"), sdl.V("v"), sdl.W())),
				Asserts: []sdl.Pattern{sdl.P(sdl.C(result), sdl.V("P"), sdl.V("v"))},
			}},
			{Guard: sdl.Transact{
				Kind: sdl.Immediate,
				Query: sdl.Q(sdl.P(sdl.V("id"), sdl.V("pi"), sdl.W(), sdl.C(nilAtom))).
					Where(sdl.Ne(sdl.X("pi"), sdl.X("P"))),
				Asserts: []sdl.Pattern{sdl.P(sdl.C(result), sdl.V("P"), sdl.C(notFound))},
			}},
			{Guard: sdl.Transact{
				Kind: sdl.Immediate,
				Query: sdl.Q(sdl.P(sdl.V("id"), sdl.V("pi"), sdl.W(), sdl.V("i"))).
					Where(sdl.And(
						sdl.Ne(sdl.X("pi"), sdl.X("P")),
						sdl.Ne(sdl.X("i"), sdl.Lit(nilAtom)),
					)),
				Actions: []sdl.Action{&sdl.Spawn{Type: "Search",
					Args: []sdl.Expr{sdl.X("i"), sdl.X("P")}}},
			}},
		}}},
	}
}

// findDef: PROCESS Find(P) — addressing data by content.
func findDef() *sdl.Definition {
	return &sdl.Definition{
		Name:   "Find",
		Params: []string{"P"},
		Body: []sdl.Stmt{sdl.Select{Branches: []sdl.Branch{
			{Guard: sdl.Transact{
				Kind:    sdl.Immediate,
				Query:   sdl.Q(sdl.P(sdl.W(), sdl.V("P"), sdl.V("v"), sdl.W())),
				Asserts: []sdl.Pattern{sdl.P(sdl.C(result), sdl.V("P"), sdl.V("v"))},
			}},
			{Guard: sdl.Transact{
				Kind:    sdl.Immediate,
				Query:   sdl.Q(sdl.N(sdl.W(), sdl.V("P"), sdl.W(), sdl.W())),
				Asserts: []sdl.Pattern{sdl.P(sdl.C(result), sdl.V("P"), sdl.C(notFound))},
			}},
		}}},
	}
}

// sortDef: PROCESS Sort(a, b) — swap when out of order; the consensus
// guard fires when every adjacent pair in the community is ordered.
func sortDef() *sdl.Definition {
	nodesView := sdl.Union(
		sdl.Pat(sdl.P(sdl.V("a"), sdl.W(), sdl.W(), sdl.W())),
		sdl.Pat(sdl.P(sdl.V("b"), sdl.W(), sdl.W(), sdl.W())),
	)
	return &sdl.Definition{
		Name:   "Sort",
		Params: []string{"a", "b"},
		View: func(sdl.Scope) sdl.View {
			return sdl.NewView(nodesView, nodesView)
		},
		Body: []sdl.Stmt{sdl.Repeat{Branches: []sdl.Branch{
			{Guard: sdl.Transact{
				Kind: sdl.Immediate,
				Query: sdl.Q(
					sdl.R(sdl.V("a"), sdl.V("n1"), sdl.V("v1"), sdl.V("x")),
					sdl.R(sdl.V("b"), sdl.V("n2"), sdl.V("v2"), sdl.V("y")),
				).Where(sdl.Gt(sdl.X("v1"), sdl.X("v2"))),
				Asserts: []sdl.Pattern{
					sdl.P(sdl.V("a"), sdl.V("n2"), sdl.V("v2"), sdl.V("x")),
					sdl.P(sdl.V("b"), sdl.V("n1"), sdl.V("v1"), sdl.V("y")),
				},
			}},
			{Guard: sdl.Transact{
				Kind: sdl.Consensus,
				Query: sdl.Q(
					sdl.P(sdl.V("a"), sdl.W(), sdl.V("v1"), sdl.W()),
					sdl.P(sdl.V("b"), sdl.W(), sdl.V("v2"), sdl.W()),
				).Where(sdl.Le(sdl.X("v1"), sdl.X("v2"))),
				Actions: []sdl.Action{sdl.Exit{}},
			}},
		}}},
	}
}

func run(n int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Build a linked property list <id, name, value, next>.
	load := func(sys *sdl.System) {
		for i := 1; i <= n; i++ {
			next := sdl.Int(int64(i + 1))
			if i == n {
				next = nilAtom
			}
			sys.Store.Assert(sdl.Environment, sdl.NewTuple(
				sdl.Int(int64(i)),
				sdl.Atom(fmt.Sprintf("prop%d", (i*7)%n)),
				sdl.Int(int64((n-i)*10)),
				next,
			))
		}
	}
	target := fmt.Sprintf("prop%d", (n*7)%n) // property of the last node

	// Search: one process per hop.
	sys := sdl.New(sdl.Options{})
	load(sys)
	if err := sys.Define(searchDef()); err != nil {
		return err
	}
	start := time.Now()
	if err := sys.Run(ctx, "Search", sdl.Int(1), sdl.Atom(target)); err != nil {
		return err
	}
	fmt.Printf("Search(%q): %v, %d processes spawned\n",
		target, time.Since(start).Round(time.Microsecond), sys.Runtime.SpawnCount())
	printResult(sys, target)
	sys.Close()

	// Find: content-addressable, a single process.
	sys = sdl.New(sdl.Options{})
	load(sys)
	if err := sys.Define(findDef()); err != nil {
		return err
	}
	start = time.Now()
	if err := sys.Run(ctx, "Find", sdl.Atom(target)); err != nil {
		return err
	}
	fmt.Printf("Find(%q):   %v, %d process spawned\n",
		target, time.Since(start).Round(time.Microsecond), sys.Runtime.SpawnCount())
	printResult(sys, target)
	sys.Close()

	// Sort: adjacent-pair community, consensus termination.
	sys = sdl.New(sdl.Options{})
	defer sys.Close()
	load(sys)
	if err := sys.Define(sortDef()); err != nil {
		return err
	}
	start = time.Now()
	// The community spawns as one group: spawned one by one, an already
	// ordered prefix could reach consensus, and exit, before the rest of
	// the community exists to block it.
	reqs := make([]sdl.SpawnReq, 0, n-1)
	for i := 1; i < n; i++ {
		reqs = append(reqs, sdl.SpawnReq{Type: "Sort", Args: []sdl.Value{sdl.Int(int64(i)), sdl.Int(int64(i + 1))}})
	}
	if _, err := sys.Runtime.SpawnGroup(reqs); err != nil {
		return err
	}
	if err := sys.Runtime.WaitCtx(ctx); err != nil {
		return err
	}
	fmt.Printf("Sort: %v, %d consensus firing(s)\n",
		time.Since(start).Round(time.Microsecond), sys.Cons.Fires())
	vals := make([]int64, n)
	sys.Store.Snapshot(func(r sdl.Reader) {
		r.Each(func(inst sdl.Instance) bool {
			if inst.Tuple.Arity() == 4 {
				if id, ok := inst.Tuple.Field(0).AsInt(); ok && id >= 1 && id <= int64(n) {
					vals[id-1], _ = inst.Tuple.Field(2).AsInt()
				}
			}
			return true
		})
	})
	fmt.Println("sorted values:", vals)
	for i := 1; i < n; i++ {
		if vals[i-1] > vals[i] {
			return fmt.Errorf("not sorted at %d", i)
		}
	}
	return nil
}

func printResult(sys *sdl.System, prop string) {
	sys.Store.Snapshot(func(r sdl.Reader) {
		r.Scan(3, sdl.Atom("result"), true, func(_ sdl.TupleID, t sdl.Tuple) bool {
			fmt.Printf("  -> %s\n", t)
			return false
		})
	})
}
