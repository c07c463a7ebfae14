package lang

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// societySrc is a society of the paper's shape: one main block that
// asserts n tuples and spawns n processes, the first strs of the tuples
// carrying a string literal.
func societySrc(n, strs int) string {
	var b strings.Builder
	b.WriteString("process Waiter(i)\nbehavior\n  <job, i>! => skip\nend\nmain\n  -> ")
	for i := 0; i < n; i++ {
		if i < strs {
			fmt.Fprintf(&b, `<job, %d, "s">, `, i)
		} else {
			fmt.Fprintf(&b, "<job, %d>, ", i)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "spawn Waiter(%d)", i)
		if i < n-1 {
			b.WriteString(", ")
		}
	}
	b.WriteString("\nend\n")
	return b.String()
}

func parseAllocs(t *testing.T, src string) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParseAllocates pins that parsing allocates per program, not per
// node: the Program, the main block and one backing array per slab in
// use, whatever the size of the society, plus the lexer's one string per
// string literal.
func TestParseAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	small := parseAllocs(t, societySrc(10, 0))
	large := parseAllocs(t, societySrc(1000, 0))
	if perProgram := float64(reflect.TypeOf(nodes{}).NumField() + 2); small > perProgram {
		t.Errorf("Parse of a 10-process society: %.0f allocations, want <= %.0f", small, perProgram)
	}
	if large < small-2 || large > small+2 {
		t.Errorf("Parse allocations grow with the society: %.0f at n=10, %.0f at n=1000", small, large)
	}
	const strs = 50
	if lits := parseAllocs(t, societySrc(1000, strs)); lits != large+strs {
		t.Errorf("Parse with %d string literals: %.0f allocations, want %.0f", strs, lits, large+strs)
	}
}

// TestParseOnAnotherGoroutineAllocates pins that the scratch a parse leaves
// serves the next parse whichever goroutine, on whichever P, runs it, even
// after a collection: after a warm parse on this goroutine, a parse on a
// fresh goroutine — run on another P while this one spins — allocates no
// more than TestParseAllocates allows a parse, every time. A parse that
// misses the scratch grows a token buffer and every list stack again, ≈ 40
// allocations for this source. Mallocs is read around the goroutine, which
// costs its closure too.
func TestParseOnAnotherGoroutineAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second P")
	}
	src := societySrc(1000, 0)
	perProgram := uint64(reflect.TypeOf(nodes{}).NumField() + 2)
	for i := 0; i < 10; i++ {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		var done atomic.Bool
		runtime.ReadMemStats(&before)
		go func() {
			defer done.Store(true)
			if _, err := Parse(src); err != nil {
				t.Error(err)
			}
		}()
		for !done.Load() { // keep this P busy: another runs the parse
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > perProgram {
			t.Fatalf("parse %d on a fresh goroutine: %d allocations, want <= %d", i, got, perProgram)
		}
	}
}

// statementsSrc is a main block of n one-assertion transaction statements,
// like the society's stream of noise commits.
func statementsSrc(n int) string {
	var b strings.Builder
	b.WriteString("main\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  -> <job, %d, 0>;\n", i)
	}
	b.WriteString("  -> <done>\nend\n")
	return b.String()
}

// TestCompileAllocates pins that compiling allocates per program, not per
// action or statement: a statement's assertion list, an assertion's fields
// and literal tuple, a spawn's arguments, its literal argument and the
// *process.Spawn itself are all cut from the program's slabs, and so is a
// transaction statement, which is not boxed and formats no site. So a
// society of 1000 spawns, or a main of 1000 statements, compiles with as
// many allocations as one of 10.
func TestCompileAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	const perProgram = 26
	for _, n := range []int{10, 1000} {
		for what, src := range map[string]string{
			fmt.Sprintf("%d asserts and %d spawns", n, n): societySrc(n, 0),
			fmt.Sprintf("%d statements", n):               statementsSrc(n),
		} {
			prog, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				if _, err := Compile(prog); err != nil {
					t.Fatal(err)
				}
			})
			if got > perProgram {
				t.Errorf("Compile of %s: %.0f allocations, want <= %d", what, got, perProgram)
			}
		}
	}
}

// TestLiteralAssertionsAllocateNothing pins that a literal assertion is
// ground once, at compile time: grounding a compiled action list of 64
// literal assertions allocates nothing, and each grounds to the tuple its
// fields spell. An assertion with a variable still grounds per solution.
func TestLiteralAssertionsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	const n = 64
	var b strings.Builder
	b.WriteString("main\n  -> ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<k, %d, \"s\">, ", i)
	}
	b.WriteString("skip\nend\n")
	prog, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	asserts := comp.Defs[0].Body[0].(*process.Transact).Asserts
	if len(asserts) != n {
		t.Fatalf("%d assertions compiled, want %d", len(asserts), n)
	}
	for i, a := range asserts {
		got, err := a.Ground(nil)
		if want := tuple.New(tuple.Atom("k"), tuple.Int(int64(i)), tuple.String("s")); err != nil || !got.Equal(want) {
			t.Fatalf("assertion %d grounds to %v (%v), want %v", i, got, err, want)
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		for _, a := range asserts {
			if _, err := a.Ground(nil); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("grounding %d literal assertions: %.0f allocations, want 0", n, got)
	}
	env, v := expr.Env{"x": tuple.Int(1)}, pattern.P(pattern.C(tuple.Atom("k")), pattern.V("x"))
	if got := testing.AllocsPerRun(20, func() {
		if _, err := v.Ground(env); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("grounding an assertion with a variable: %.0f allocations, want 1 (its tuple)", got)
	}
}

func TestWalkAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	prog, err := Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	if got := testing.AllocsPerRun(20, func() {
		Walk(prog, func(Node) bool { nodes++; return true })
	}); got != 0 {
		t.Errorf("Walk: %.0f allocations, want 0", got)
	}
	if nodes == 0 {
		t.Fatal("Walk visited nothing")
	}
}

// TestSlabsDoNotAlias appends to lists cut from the parser's and the
// compiler's slabs and checks that no neighbour changed: every list is a
// full slice, so an append reallocates instead of writing into the next
// list's storage. The literal assertions' tuples, cut from the values slab,
// each keep the values their fields spell.
func TestSlabsDoNotAlias(t *testing.T) {
	srcs := []string{
		"process P(a, b)\nbehavior\n  <x, a, *> -> <y, b, min(a, b)>\nend\nmain\n  -> <k, 1>, <k, 2>, spawn P(1, 2), spawn P(3, 4)\nend\n",
		"main\n  -> <m, 1, 2>, <m, 3, 4>\nend\n",
	}
	progs := make([]*Program, len(srcs))
	comps := make([]*Compiled, len(srcs))
	formatted := make([]string, len(srcs))
	rendered := make([]string, len(srcs))
	for i, src := range srcs {
		var err error
		if progs[i], err = Parse(src); err != nil {
			t.Fatal(err)
		}
		if comps[i], err = Compile(progs[i]); err != nil {
			t.Fatal(err)
		}
		formatted[i], rendered[i] = Format(progs[i]), renderDefs(comps[i])
	}

	main := comps[0].Defs[len(comps[0].Defs)-1].Body[0].(*process.Transact)
	_ = append(main.Asserts[0].Fields, pattern.C(tuple.Int(99)))
	_ = append(comps[0].Defs[0].Body[0].(*process.Transact).Query.Patterns, pattern.P(pattern.W()))
	for _, a := range main.Actions {
		if sp, ok := a.(*process.Spawn); ok {
			_ = append(sp.Args, expr.Const(tuple.Int(99)))
			break
		}
	}
	ast := progs[0].Main.Body[0].(*TxnNode)
	_ = append(ast.Actions[0].(*AssertAction).Pattern.Fields, &WildField{})
	_ = append(ast.Actions, &SkipAction{})
	_ = append(progs[0].Processes[0].Params, "c")

	for i, want := range [][]tuple.Tuple{
		{tuple.New(tuple.Atom("k"), tuple.Int(1)), tuple.New(tuple.Atom("k"), tuple.Int(2))},
		{tuple.New(tuple.Atom("m"), tuple.Int(1), tuple.Int(2)), tuple.New(tuple.Atom("m"), tuple.Int(3), tuple.Int(4))},
	} {
		asserts := comps[i].Defs[len(comps[i].Defs)-1].Body[0].(*process.Transact).Asserts
		for j, a := range asserts {
			if got, err := a.Ground(nil); err != nil || !got.Equal(want[j]) {
				t.Errorf("program %d: literal assertion %d grounds to %v (%v), want %v", i, j, got, err, want[j])
			}
		}
	}
	for i := range srcs {
		if got := Format(progs[i]); got != formatted[i] {
			t.Errorf("program %d: Format changed after appends:\n%s\nwant:\n%s", i, got, formatted[i])
		}
		if got := renderDefs(comps[i]); got != rendered[i] {
			t.Errorf("program %d: compiled definitions changed after appends:\n%s\nwant:\n%s", i, got, rendered[i])
		}
	}
}

// renderDefs prints the compiled definitions' statements, patterns and
// actions, a spawn action by its contents rather than its address, and the
// tuple of every assertion that grounds without a scope (a literal one).
func renderDefs(c *Compiled) string {
	var b strings.Builder
	for _, d := range c.Defs {
		fmt.Fprintf(&b, "%s(%v): %v\n", d.Name, d.Params, d.Body)
		for _, st := range d.Body {
			if tx, ok := st.(*process.Transact); ok {
				for _, a := range tx.Asserts {
					if g, err := a.Ground(nil); err == nil {
						fmt.Fprintf(&b, "  ground %v\n", g)
					}
				}
				for _, a := range tx.Actions {
					if sp, ok := a.(*process.Spawn); ok {
						fmt.Fprintf(&b, "  spawn %+v\n", *sp)
					}
				}
			}
		}
	}
	return b.String()
}
