package lang

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
)

func compileOK(t *testing.T, src string) *Compiled {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// run executes src against a fresh system and returns the store.
func run(t *testing.T, src string) *dataspace.Store {
	t.Helper()
	s := dataspace.New()
	e := txn.New(s)
	rt := process.NewRuntime(e, nil)
	t.Cleanup(func() {
		rt.Shutdown()
		rt.Consensus().Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := LoadAndRun(ctx, rt, src); err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

// intsWithLead collects the int second fields of <lead, n> tuples.
func intsWithLead(s *dataspace.Store, lead string) []int64 {
	var out []int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, tuple.Atom(lead), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			if n, ok := tp.Field(1).AsInt(); ok {
				out = append(out, n)
			}
			return true
		})
	})
	return out
}

func TestCompileIdentClassification(t *testing.T) {
	c := compileOK(t, `
process P(k)
behavior
  exists a: <year, ?a, k, nil> -> <out, ?a>
end
`)
	def := c.Defs[0]
	tx := def.Body[0].(*process.Transact)
	fields := tx.Query.Patterns[0].Fields
	if fields[0].Kind != pattern.FieldConst { // atom year
		t.Errorf("field 0 = %+v", fields[0])
	}
	if fields[1].Kind != pattern.FieldVar || fields[1].Name != "a" {
		t.Errorf("field 1 = %+v", fields[1])
	}
	if fields[2].Kind != pattern.FieldVar || fields[2].Name != "k" { // param
		t.Errorf("field 2 = %+v", fields[2])
	}
	if fields[3].Kind != pattern.FieldConst { // atom nil
		t.Errorf("field 3 = %+v", fields[3])
	}
}

func TestCompileDeclaredVarBareUse(t *testing.T) {
	// `exists a:` declares a, so bare `a` is a variable.
	c := compileOK(t, `main exists a: <year, a> -> <out, a> end`)
	tx := c.Defs[0].Body[0].(*process.Transact)
	if f := tx.Query.Patterns[0].Fields[1]; f.Kind != pattern.FieldVar || f.Name != "a" {
		t.Errorf("field = %+v", f)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`process P() behavior -> skip end process P() behavior -> skip end`, "duplicate"},
		{`main -> spawn Nope() end`, "undefined process"},
		{`process P(a) behavior -> skip end main -> spawn P() end`, "takes 1 argument"},
		{`main -> <a, *> end`, "wildcard"},
		{`main nosuchfn(1) > 0 -> skip end`, "unknown function"},
		{`main par { <a>! => skip } end`, "must be immediate"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Errorf("parse(%q): %v", tc.src, err)
			continue
		}
		_, err = Compile(prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("compile(%q): err = %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestRunHelloDataspace(t *testing.T) {
	s := run(t, `
main
  -> <year, 85>, <year, 90>;
  exists a: <year, ?a>! where ?a > 87 -> <found, ?a>
end
`)
	found := intsWithLead(s, "found")
	if len(found) != 1 || found[0] != 90 {
		t.Errorf("found = %v", found)
	}
}

func TestRunLetAndSpawn(t *testing.T) {
	s := run(t, `
process Emit(v)
behavior
  -> <child, v>
end

main
  -> <seed, 20>;
  exists a: <seed, ?a>! -> let N = ?a + 1, spawn Emit(N + 1)
end
`)
	got := intsWithLead(s, "child")
	if len(got) != 1 || got[0] != 22 {
		t.Errorf("child = %v", got)
	}
}

func TestRunSelectionAndRepetition(t *testing.T) {
	// The paper's index/value repetition: pair positive indices, drop
	// non-positive ones, exit when none remain.
	s := run(t, `
main
  -> <index, -1>, <index, 2>, <index, 3>, <index, 0>;
  rep {
    exists p: <index, ?p>! where ?p > 0 -> <paired, ?p>
  | exists p: <index, ?p>! where ?p <= 0 -> skip
  | not <index, *> -> exit
  }
end
`)
	if got := intsWithLead(s, "paired"); len(got) != 2 {
		t.Errorf("paired = %v", got)
	}
	if got := intsWithLead(s, "index"); len(got) != 0 {
		t.Errorf("index left = %v", got)
	}
}

func TestRunSum3Source(t *testing.T) {
	s := run(t, `
// §3.1 Sum3: replication-based parallel summation.
process Sum3()
behavior
  par {
    <?n, ?a>!, <?m, ?b>! where ?n != ?m -> <?m, ?a + ?b>
  }
end

main
  -> <1, 10>, <2, 20>, <3, 30>, <4, 40>;
  spawn Sum3()
end
`)
	if s.Len() != 1 {
		t.Fatalf("store len = %d", s.Len())
	}
	var got int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			got, _ = inst.Tuple.Field(1).AsInt()
			return false
		})
	})
	if got != 100 {
		t.Errorf("sum = %d", got)
	}
}

func TestRunSum2Source(t *testing.T) {
	s := run(t, `
// §3.1 Sum2: asynchronous phase-tagged summation, N = 4.
process Sum2(k, j)
behavior
  <k - pow2(j - 1), ?a, j>!, <k, ?b, j>! => <k, ?a + ?b, j + 1>
end

main
  -> <1, 10, 1>, <2, 20, 1>, <3, 30, 1>, <4, 40, 1>;
  -> spawn Sum2(2, 1), spawn Sum2(4, 1), spawn Sum2(4, 2)
end
`)
	if s.Len() != 1 {
		t.Fatalf("store len = %d", s.Len())
	}
	var got tuple.Tuple
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			got = inst.Tuple
			return false
		})
	})
	if v, _ := got.Field(1).AsInt(); v != 100 {
		t.Errorf("tuple = %v", got)
	}
	if ph, _ := got.Field(2).AsInt(); ph != 3 {
		t.Errorf("phase = %v", got)
	}
}

func TestRunDelayedProducerConsumer(t *testing.T) {
	s := run(t, `
process Consumer()
behavior
  rep {
    exists i: <job, ?i>! -> <done, ?i>
  | not <job, *>, <eof> -> exit
  }
end

process Producer(n)
behavior
  rep {
    n > 0 -> skip
  };
  -> <eof>
end

main
  -> <job, 1>, <job, 2>, <job, 3>, <eof>;
  spawn Consumer()
end
`)
	if got := intsWithLead(s, "done"); len(got) != 3 {
		t.Errorf("done = %v", got)
	}
}

func TestRunConsensusBarrierSource(t *testing.T) {
	s := run(t, `
// Two workers do a step, then synchronize by consensus, then record.
process Worker(id)
behavior
  -> <ready, id>;
  <ready, 1>, <ready, 2> @> <passed, id>
end

main
  -> <seed, 0>;
  -> spawn Worker(1), spawn Worker(2)
end
`)
	if got := intsWithLead(s, "passed"); len(got) != 2 {
		t.Errorf("passed = %v", got)
	}
}

func TestRunViewRestrictsProcess(t *testing.T) {
	s := run(t, `
// P's import hides years above 87; its query must fail, leaving no out.
process P()
import <year, ?a> where ?a <= 87
behavior
  exists a: <year, ?a> where ?a > 87 -> <out, ?a>;
  exists a: <year, ?a> where ?a <= 87 -> <ok, ?a>
end

main
  -> <year, 90>, <year, 80>;
  spawn P()
end
`)
	if got := intsWithLead(s, "out"); len(got) != 0 {
		t.Errorf("out = %v (view leak)", got)
	}
	if got := intsWithLead(s, "ok"); len(got) != 1 || got[0] != 80 {
		t.Errorf("ok = %v", got)
	}
}

func TestRunExportFilter(t *testing.T) {
	s := run(t, `
process P()
export <allowed, *>
behavior
  -> <allowed, 1>, <forbidden, 2>
end

main -> spawn P() end
`)
	if got := intsWithLead(s, "allowed"); len(got) != 1 {
		t.Errorf("allowed = %v", got)
	}
	if got := intsWithLead(s, "forbidden"); len(got) != 0 {
		t.Errorf("forbidden = %v (export leak)", got)
	}
}

func TestRunForallSource(t *testing.T) {
	s := run(t, `
main
  -> <year, 85>, <year, 90>, <year, 95>;
  forall : <year, ?a>! where ?a > 87 -> <old, ?a>
end
`)
	if got := intsWithLead(s, "old"); len(got) != 2 {
		t.Errorf("old = %v", got)
	}
	if got := intsWithLead(s, "year"); len(got) != 1 {
		t.Errorf("year = %v", got)
	}
}

func TestRunNoMain(t *testing.T) {
	prog, err := Parse(`process P() behavior -> skip end`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := dataspace.New()
	rt := process.NewRuntime(txn.New(s), nil)
	defer func() { rt.Shutdown(); rt.Consensus().Close() }()
	if err := c.Run(context.Background(), rt); err == nil {
		t.Error("Run without main should fail")
	}
}

func TestRunAbortSource(t *testing.T) {
	s := run(t, `
main
  -> <before, 1>;
  -> abort;
  -> <after, 1>
end
`)
	if got := intsWithLead(s, "after"); len(got) != 0 {
		t.Error("statement after abort ran")
	}
	if got := intsWithLead(s, "before"); len(got) != 1 {
		t.Error("statement before abort missing")
	}
}

func TestCompileUnboundVariableDiagnostics(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		// Variable only in a negated pattern leaks into an assertion.
		{`main not <x, ?v> -> <y, ?v> end`, "no positive pattern binds"},
		// Test query uses an undeclared variable.
		{`main <a, ?x> where ?z > 1 -> skip end`, "test query"},
		// Spawn argument unbound.
		{`process P(k) behavior -> skip end
main -> spawn P(?nope) end`, "spawn argument"},
		// Let expression unbound.
		{`main -> let N = ?ghost end`, "let action"},
		// Assertion with computed expression over an unbound variable.
		{`main <a, ?x> -> <b, ?x + ?ghost> end`, "assertion"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Errorf("parse(%q): %v", tc.src, err)
			continue
		}
		_, err = Compile(prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("compile(%q): err = %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestCompileNegationVarsUsableInsideNegation(t *testing.T) {
	// A fresh variable inside a negated pattern is a wildcard of the
	// negation: legal there, illegal outside.
	if _, err := Compile(mustParse(t, `main <a, ?x>, not <b, ?w> -> <c, ?x> end`)); err != nil {
		t.Errorf("negation-local variable rejected: %v", err)
	}
}

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMergePrograms(t *testing.T) {
	lib := mustParse(t, `process A() behavior -> <a> end`)
	drv := mustParse(t, `process B() behavior -> <b> end
main spawn A(), spawn B() end`)
	merged, err := Merge(lib, drv)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Processes) != 2 || merged.Main == nil {
		t.Fatalf("merged = %+v", merged)
	}
	if _, err := Compile(merged); err != nil {
		t.Fatal(err)
	}

	// Duplicate process across files.
	dup := mustParse(t, `process A() behavior -> skip end`)
	if _, err := Merge(lib, dup); err == nil {
		t.Error("duplicate process accepted")
	}
	// Two mains.
	m2 := mustParse(t, `main -> skip end`)
	if _, err := Merge(drv, m2); err == nil {
		t.Error("two mains accepted")
	}
}

func TestRunCondBuiltinSource(t *testing.T) {
	// The worker-model threshold in one guard, thanks to cond().
	s := run(t, `
main
  -> <pix, 1, 42>, <pix, 2, 180>;
  rep {
    exists p, v: <pix, ?p, ?v>! -> <th, ?p, cond(?v >= 100, 1, 0)>
  }
end
`)
	got := map[int64]int64{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			p, _ := inst.Tuple.Field(1).AsInt()
			v, _ := inst.Tuple.Field(2).AsInt()
			got[p] = v
			return true
		})
	})
	if got[1] != 0 || got[2] != 1 {
		t.Errorf("thresholds = %v", got)
	}
}
