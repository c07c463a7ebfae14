package dataflow

import (
	"strings"
	"testing"

	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func analyze(t *testing.T, src string) (*lang.Program, *Result) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res := Analyze(prog)
	if !res.Converged {
		t.Fatalf("fixpoint did not converge in %d rounds", res.Rounds)
	}
	return prog, res
}

// judgments returns the judgments of every transaction in the named
// process, in source order.
func judgments(t *testing.T, res *Result, proc string) []*Judgment {
	t.Helper()
	var out []*Judgment
	for _, j := range res.Judgments {
		if j.Proc == proc {
			out = append(out, j)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no judgments for process %s", proc)
	}
	for i := 0; i < len(out); i++ {
		for k := i + 1; k < len(out); k++ {
			a, b := out[i].Node.Pos, out[k].Node.Pos
			if b.Line < a.Line || (b.Line == a.Line && b.Col < a.Col) {
				out[i], out[k] = out[k], out[i]
			}
		}
	}
	return out
}

// Spawn actuals flow into parameters, and a view-restricted process whose
// leads are those parameters has every lead ground — the shape of the sort
// corpus program, reduced.
func TestSpawnActualsWidenParams(t *testing.T) {
	_, res := analyze(t, `
process Swap(a, b)
import <a, *>; <b, *>
export <a, *>; <b, *>
behavior
  exists x, y: <a, ?x>!, <b, ?y>! where ?x > ?y -> <a, ?y>, <b, ?x>
end

main
  -> <1, 10>, <2, 20>;
  spawn Swap(1, 2), spawn Swap(2, 3)
end
`)
	facts := res.Params["Swap"]
	if facts == nil {
		t.Fatal("no param facts for Swap")
	}
	a := facts["a"]
	if a == nil || a.Val.IsTop() || a.Val.IsBottom() {
		t.Fatalf("param a fact = %+v, want constant set", a)
	}
	consts := a.Val.Consts()
	if len(consts) != 2 || !a.Val.Contains(tuple.Int(1)) || !a.Val.Contains(tuple.Int(2)) {
		t.Errorf("param a values %v, want {1, 2}", consts)
	}
	if len(a.Sites) == 0 || !strings.Contains(a.Sites[0].Desc, "spawn Swap") {
		t.Errorf("param a provenance %v, want spawn sites", a.Sites)
	}
	j := judgments(t, res, "Swap")[0]
	for _, ld := range j.Leads {
		if !ld.Ground {
			t.Errorf("lead %s %d not ground: %s", ld.What, ld.Index, ld.Why)
		}
	}
}

// A let folds through the runtime's own evaluator, and a lead that
// references it carries the folded constant and the let as its witness.
func TestLetsFoldIntoLeadValues(t *testing.T) {
	_, res := analyze(t, `
main
  let k = 1 + 2;
  exists v: <k, ?v>! -> <k, ?v + 1>
end
`)
	js := judgments(t, res, "main")
	j := js[len(js)-1]
	if len(j.Leads) != 2 {
		t.Fatalf("leads %+v, want the pattern and the assertion", j.Leads)
	}
	for _, ld := range j.Leads {
		v, single := ld.Val.Single()
		if !ld.Ground || !single || !v.Equal(tuple.Int(3)) {
			t.Errorf("%s %d: ground=%v value %v, want ground with the constant 3", ld.What, ld.Index, ld.Ground, ld.Val)
		}
		if !strings.Contains(ld.Why, "let k") {
			t.Errorf("%s %d: witness %q does not name let k", ld.What, ld.Index, ld.Why)
		}
	}
}

// A lead bound only by a query variable stays unbounded, and the witness
// carries the binding chain back to the assert sites that can feed it.
func TestQueryBoundLeadBlocksWithChain(t *testing.T) {
	_, res := analyze(t, `
process Relay()
behavior
  exists c, v: <chan, ?c>, <item, ?v> -> <?c, ?v>
end

main
  -> <chan, left>, <item, 5>;
  spawn Relay()
end
`)
	j := judgments(t, res, "Relay")[0]
	var blocked *Lead
	for i := range j.Leads {
		if !j.Leads[i].Ground {
			blocked = &j.Leads[i]
			break
		}
	}
	if blocked == nil {
		t.Fatal("no blocked lead on a query-bound transaction")
	}
	if blocked.What != "assertion" {
		t.Errorf("blocked lead is a %s, want the assertion <?c, ?v>", blocked.What)
	}
	if !strings.Contains(blocked.Why, "?c") || !strings.Contains(blocked.Why, "assert") {
		t.Errorf("witness %q does not chain to the assert sites", blocked.Why)
	}
}

// A library file's processes have no spawn sites: parameters are Bottom,
// and the witness says host-spawned values are unbounded.
func TestHostSpawnedParamsUnbounded(t *testing.T) {
	_, res := analyze(t, `
process Worker(q)
behavior
  exists v: <q, ?v>! -> <done, ?v>
end
`)
	q := res.Params["Worker"]["q"]
	if q == nil || !q.Val.IsBottom() {
		t.Fatalf("param q fact %+v, want Bottom (no spawn sites)", q)
	}
	j := judgments(t, res, "Worker")[0]
	found := false
	for _, ld := range j.Leads {
		if !ld.Ground {
			// The lead IS the issuing environment's parameter: the run-time
			// planner evaluates it per execution.
			t.Errorf("lead %s %d not ground: %s", ld.What, ld.Index, ld.Why)
		}
		if strings.Contains(ld.Why, "host-spawned") {
			found = true
		}
	}
	if !found {
		t.Errorf("no lead witness mentions host-spawned unboundedness: %+v", j.Leads)
	}
}
