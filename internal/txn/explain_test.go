package txn

import (
	"context"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// explainStore is a store of 64 <k, v> counters, 40 <n, mark, n%4> marks
// and one <ptr, 7> pointer, with an observed registry.
func explainStore(t *testing.T) (*dataspace.Store, *Engine) {
	t.Helper()
	s := dataspace.New(dataspace.WithShards(4))
	for k := int64(0); k < 64; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(k), tuple.Int(0)))
	}
	for n := int64(0); n < 40; n++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(100+n), tuple.Atom("mark"), tuple.Int(n%4)))
	}
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("ptr"), tuple.Int(7)))
	s.Metrics().SetObserved(true)
	return s, New(s)
}

// explainOf runs req once and returns the explain record of its site.
func explainOf(t *testing.T, s *dataspace.Store, e *Engine, req Request) metrics.ExplainSite {
	t.Helper()
	if _, err := e.Immediate(req); err != nil {
		t.Fatal(err)
	}
	for _, site := range s.Metrics().Snapshot().Explain {
		if site.Site == req.Site {
			return site
		}
	}
	t.Fatalf("no explain record for site %q", req.Site)
	return metrics.ExplainSite{}
}

// wantStep checks one step's lead source and that every scan of it took
// path.
func wantStep(t *testing.T, st metrics.Step, pattern int, lead metrics.Lead, path metrics.Path) {
	t.Helper()
	scans := st.Scans
	if st.Pattern != pattern || st.Lead != lead {
		t.Errorf("step %d: pattern %d, lead %s; want pattern %d, lead %s", st.Order, st.Pattern, st.Lead, pattern, lead)
	}
	for p, n := range scans {
		if (metrics.Path(p) == path) != (n > 0) {
			t.Errorf("step %d (pattern %d): scans per path %v, want only path %d", st.Order, st.Pattern, scans, path)
			break
		}
	}
	if st.Visited < st.Matched {
		t.Errorf("step %d: visited %d < matched %d", st.Order, st.Visited, st.Matched)
	}
}

// A constant lead is served by its lead bucket, and the planned point read
// runs on epoch snapshots.
func TestExplainConstantLead(t *testing.T) {
	s, e := explainStore(t)
	site := explainOf(t, s, e, Request{Proc: 1, View: view.Universal(), Site: "const",
		Query: pattern.Q(pattern.P(pattern.C(tuple.Int(7)), pattern.V("v")))})
	if site.Planned != 1 || site.Unplanned != 0 || site.Rungs[metrics.RungEpoch]+site.Rungs[metrics.RungShared] != 1 {
		t.Errorf("record %+v, want one planned read", site)
	}
	if len(site.Steps) != 1 {
		t.Fatalf("steps %+v, want one", site.Steps)
	}
	wantStep(t, site.Steps[0], 0, metrics.LeadConst, metrics.PathLead)
	if st := site.Steps[0]; st.Visited != 1 || st.Matched != 1 {
		t.Errorf("visited %d, matched %d: want the one counter", st.Visited, st.Matched)
	}
}

// A lead bound by an earlier step is a lead-bucket lookup at run time, not
// a scan — the case a static pass cannot tell from a query variable that
// really scans. The pointer pattern is planned first, whatever the written
// order.
func TestExplainLeadFromEarlierStep(t *testing.T) {
	s, e := explainStore(t)
	site := explainOf(t, s, e, Request{Proc: 1, View: view.Universal(), Site: "earlier",
		Query: pattern.Q(pattern.P(pattern.V("x"), pattern.V("v")), pattern.P(pattern.C(tuple.Atom("ptr")), pattern.V("x")))})
	if site.Unplanned != 1 || site.Block != (metrics.Block{Cause: metrics.CauseQueryVar}) {
		t.Errorf("record %+v, want unplanned on pattern 1's query variable", site)
	}
	if len(site.Steps) != 2 {
		t.Fatalf("steps %+v, want two", site.Steps)
	}
	wantStep(t, site.Steps[0], 1, metrics.LeadConst, metrics.PathLead)
	wantStep(t, site.Steps[1], 0, metrics.LeadEarlier, metrics.PathLead)
	if st := site.Steps[1]; st.Visited != 1 || st.Matched != 1 {
		t.Errorf("second step visited %d, matched %d: want the one <7, v>", st.Visited, st.Matched)
	}
}

// An unknown lead with a constant non-lead field goes to the field indexes.
func TestExplainFieldIndex(t *testing.T) {
	s, e := explainStore(t)
	site := explainOf(t, s, e, Request{Proc: 1, View: view.Universal(), Site: "field",
		Query: pattern.QAll(pattern.P(pattern.V("n"), pattern.C(tuple.Atom("mark")), pattern.C(tuple.Int(3))))})
	if site.Block != (metrics.Block{Cause: metrics.CauseQueryVar}) || site.Rungs[metrics.RungShared] != 1 {
		t.Errorf("record %+v, want an unplanned shared read", site)
	}
	if len(site.Steps) != 1 {
		t.Fatalf("steps %+v, want one", site.Steps)
	}
	wantStep(t, site.Steps[0], 0, metrics.LeadUnknown, metrics.PathField)
	if st := site.Steps[0]; st.Matched != 10 {
		t.Errorf("matched %d, want the 10 marks of 3", st.Matched)
	}
}

// An unknown lead with nothing else known walks the whole arity.
func TestExplainArityScan(t *testing.T) {
	s, e := explainStore(t)
	site := explainOf(t, s, e, Request{Proc: 1, View: view.Universal(), Site: "arity",
		Query:   pattern.Q(pattern.R(pattern.W(), pattern.V("v"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("seen")), pattern.V("v"))}})
	if site.Block != (metrics.Block{Cause: metrics.CauseWildcard}) || site.Rungs[metrics.RungCoarse] != 1 {
		t.Errorf("record %+v, want an unplanned coarse commit blocked by pattern 1's wildcard", site)
	}
	if len(site.Steps) != 1 {
		t.Fatalf("steps %+v, want one", site.Steps)
	}
	wantStep(t, site.Steps[0], 0, metrics.LeadUnknown, metrics.PathArity)
}

// The planner names the first lead it cannot determine: an assertion's, and
// a view with a dynamic matcher before any lead. Planned writes commit on
// key latches.
func TestExplainBlocksAndRungs(t *testing.T) {
	s, e := explainStore(t)
	upsert := Request{Proc: 1, View: view.Universal(), Site: "upsert",
		Query:   pattern.Q(pattern.R(pattern.C(tuple.Int(3)), pattern.V("v"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Int(3)), pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))))}}
	if site := explainOf(t, s, e, upsert); site.Planned != 1 || site.Rungs[metrics.RungKey] != 1 {
		t.Errorf("upsert %+v, want planned on a key latch", site)
	}
	relay := Request{Proc: 1, View: view.Universal(), Site: "relay",
		Query:   pattern.Q(pattern.P(pattern.C(tuple.Atom("ptr")), pattern.V("c"))),
		Asserts: []pattern.Pattern{pattern.P(pattern.V("c"), pattern.C(tuple.Atom("x")))}}
	if site := explainOf(t, s, e, relay); site.Block != (metrics.Block{Cause: metrics.CauseQueryVar, Assert: true}) || site.Rungs[metrics.RungCoarse] != 1 {
		t.Errorf("relay %+v, want blocked by assertion 1's query variable, coarse", site)
	}
	dyn := view.Union(view.Dyn(2, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true }))
	upsert.View, upsert.Site = view.New(dyn, dyn), "dynamic"
	if site := explainOf(t, s, e, upsert); site.Block.Cause != metrics.CauseView || site.Rungs[metrics.RungCoarse] != 1 {
		t.Errorf("dynamic view %+v, want blocked by the view, coarse", site)
	}
	failing := Request{Proc: 1, View: view.Universal(), Site: "failing",
		Query:   pattern.Q(pattern.R(pattern.C(tuple.Atom("absent")))),
		Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Atom("x")))}}
	if site := explainOf(t, s, e, failing); site.Planned != 1 || site.Rungs[metrics.RungNone] != 1 {
		t.Errorf("failed write %+v, want one execution on no rung", site)
	}
}

// Unobserved, explain costs nothing: a read's pattern match and a
// retract-and-refill commit allocate nothing, even on an answer and a
// matcher that recorded explain steps while the registry was observed —
// and observed, a site's steady state allocates nothing either.
func TestUnobservedExplainAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s, e := explainStore(t)
	job := tuple.New(tuple.Atom("job"), tuple.Int(1))
	keys := []dataspace.InterestKey{dataspace.InterestOf(2, tuple.Atom("job"), true)}
	insert := func(w dataspace.Writer) error { w.Insert(job, tuple.Environment); return nil }
	take := Request{Proc: 1, View: view.Universal(), Site: "take",
		Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("job")), pattern.V("n")))}
	read := Request{Proc: 1, View: view.Universal(), Site: "read",
		Query: pattern.Q(pattern.P(pattern.V("x"), pattern.V("v")), pattern.P(pattern.C(tuple.Atom("ptr")), pattern.V("x")))}
	round := func() {
		if err := s.UpdateCommuting(tuple.Environment, keys, insert); err != nil {
			t.Fatal(err)
		}
		for _, req := range []Request{take, read} {
			a, err := e.Run(context.Background(), req, metrics.TxnImmediate)
			if err != nil || !a.OK() {
				t.Fatalf("%s: ok %v, err %v", req.Site, a != nil && a.OK(), err)
			}
			a.Release()
		}
	}
	for i := 0; i < 64; i++ {
		round() // observed: the site records, the answers' and matchers' step arrays
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("observed steady state: %.1f allocations per round, want 0", got)
	}
	s.Metrics().SetObserved(false)
	execs := func() uint64 {
		var n uint64
		for _, site := range s.Metrics().Snapshot().Explain {
			n += site.Planned + site.Unplanned
		}
		return n
	}
	before := execs()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("unobserved: %.1f allocations per round, want 0", got)
	}
	if after := execs(); after != before {
		t.Errorf("unobserved rounds recorded %d executions", after-before)
	}
}
