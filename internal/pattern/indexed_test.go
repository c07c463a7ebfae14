package pattern

import (
	"math/rand"
	"testing"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// probeCounter is a stubEstimator that counts estimator probes.
type probeCounter struct {
	stubEstimator
	probes int
}

func (p *probeCounter) ArityEstimate(a int) float64 {
	p.probes++
	return p.stubEstimator.ArityEstimate(a)
}
func (p *probeCounter) LeadEstimate(a int) float64 {
	p.probes++
	return p.stubEstimator.LeadEstimate(a)
}
func (p *probeCounter) LeadValueEstimate(a int, v tuple.Value) float64 {
	p.probes++
	return p.stubEstimator.LeadValueEstimate(a, v)
}
func (p *probeCounter) FieldEstimate(a, pos int) float64 {
	p.probes++
	return p.stubEstimator.FieldEstimate(a, pos)
}
func (p *probeCounter) FieldValueEstimate(a, pos int, v tuple.Value) float64 {
	p.probes++
	return p.stubEstimator.FieldValueEstimate(a, pos, v)
}

// TestPlanProbesLinear pins plan-once costing: a query of n constant
// patterns (the n-leg barrier guard) is planned with at most 2n estimator
// probes and keeps written order, and a chain join re-costs only the one
// pattern each placement unblocks.
func TestPlanProbesLinear(t *testing.T) {
	ready := tuple.Atom("ready")
	for _, n := range []int{8, 32, 64, 128} {
		q := Query{Quant: Exists}
		positives := make([]int, n)
		for i := 0; i < n; i++ {
			q.Patterns = append(q.Patterns, P(C(ready), C(tuple.Int(int64(i)))))
			positives[i] = i
		}
		est := &probeCounter{}
		got := planJoinOrder(q, positives, nil, est, new([]float64))
		if est.probes > 2*n {
			t.Errorf("n=%d constant patterns: %d estimator probes, want <= %d", n, est.probes, 2*n)
		}
		for i, pi := range got {
			if pi != i {
				t.Fatalf("n=%d: equal-cost constant patterns left written order: %v", n, got)
			}
		}
	}

	// <0, ?v0>, <?v0, ?v1>, <?v1, ?v2>, ...: placing link k binds exactly
	// the variable link k+1 leads with.
	const links = 64
	q := Query{Quant: Exists, Patterns: []Pattern{P(C(tuple.Int(0)), V("v0"))}}
	positives := []int{0}
	for i := 1; i < links; i++ {
		q.Patterns = append(q.Patterns, P(V("v"+string(rune('0'+i-1))), V("v"+string(rune('0'+i)))))
		positives = append(positives, i)
	}
	est := &probeCounter{}
	planJoinOrder(q, positives, nil, est, new([]float64))
	// Initial costing: 1 probe for the constant lead, and per lead-unknown
	// link the arity probe (its variable fields are unbound: no selector
	// probes). Each placement re-costs one link with one probe.
	if max := 3 * links; est.probes > max {
		t.Errorf("chain of %d links: %d estimator probes, want <= %d", links, est.probes, max)
	}
}

func TestPlanAllocatesNothing(t *testing.T) {
	q := Q(
		P(V("a"), V("x")),
		P(V("y"), V("x")),
		P(C(tuple.Int(7)), V("a")),
	)
	est := &stubEstimator{}
	positives := []int{0, 1, 2}
	allocs := testing.AllocsPerRun(100, func() {
		positives[0], positives[1], positives[2] = 0, 1, 2
		planJoinOrder(q, positives, nil, est, new([]float64))
	})
	if allocs != 0 {
		t.Errorf("planJoinOrder allocated %.0f times per run, want 0", allocs)
	}

	// A query longer than planInline (the society's 64-way barrier) keeps
	// its costs in the pooled matcher: once a run has grown them, the next
	// plans without allocating.
	skipUnderRace(t)
	ready := tuple.Atom("ready")
	long := Query{Quant: Exists}
	src := &sliceSource{}
	for i := range 64 {
		long.Patterns = append(long.Patterns, P(C(ready), C(tuple.Int(int64(i)))))
		src.tuples = append(src.tuples, tuple.New(ready, tuple.Int(int64(i))))
	}
	var tab Table
	collect := func() {
		if err := tab.Collect(long, src, nil, true, nil); err != nil || len(tab.Rows()) != 1 {
			t.Fatalf("64-pattern barrier: %d rows, err %v", len(tab.Rows()), err)
		}
	}
	collect()
	if got := testing.AllocsPerRun(1, collect); got != 0 {
		t.Errorf("a 64-pattern query's second run through a pooled matcher allocated %.0f times, want 0", got)
	}
}

// wideSource is a FieldSource over a tuple slice that reports every lead
// bucket wide and serves ScanFields the way the contract allows at its most
// adversarial: it delivers the candidates of ONE selector only — the one
// with the fewest — so every other constraint is left to the matcher.
type wideSource struct {
	sliceSource
	fieldScans int
}

func (w *wideSource) LeadWide(int, tuple.Value) bool { return true }

func (w *wideSource) ScanFields(arity int, sels []FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	w.fieldScans++
	candidates := func(sel FieldSel) (ids []int) {
		for i, t := range w.tuples {
			if t.Arity() == arity && t.Field(sel.Pos).Equal(sel.Val) {
				ids = append(ids, i)
			}
		}
		return ids
	}
	best := candidates(sels[0])
	for _, sel := range sels[1:] {
		if c := candidates(sel); len(c) < len(best) {
			best = c
		}
	}
	for _, i := range best {
		if !fn(tuple.ID(i+1), w.tuples[i]) {
			return
		}
	}
}

// TestLeadKnownFieldLookupMatchesOracle is the differential test of the
// in-bucket access path: for random (pattern, environment) pairs from
// FuzzMatch's decoder over a random store, enumerating through a source
// that serves lead-known patterns from a field bucket yields exactly the
// tuples the naive matcher accepts — the same solutions the lead-bucket
// scan yields.
func TestLeadKnownFieldLookupMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	served := 0
	for round := 0; round < 2000; round++ {
		data := make([]byte, 24)
		r.Read(data)
		pat, _, env := decodeMatchInput(data)
		pat.Retract = true // solutions then name the instance they matched
		var store []tuple.Tuple
		for i := 0; i < 40; i++ {
			vals := make([]tuple.Value, len(pat.Fields))
			for j := range vals {
				vals[j] = fuzzVals[r.Intn(len(fuzzVals))]
			}
			store = append(store, tuple.New(vals...))
		}
		want := map[tuple.ID]bool{}
		for i, tup := range store {
			if _, ok := naiveMatch(pat, tup, env); ok {
				want[tuple.ID(i+1)] = true
			}
		}
		for _, src := range []Source{&wideSource{sliceSource: sliceSource{tuples: store}}, &sliceSource{tuples: store}} {
			got := map[tuple.ID]bool{}
			err := Enumerate(QAll(pat), src, env, func(b Binding) bool {
				got[b.Matched[0].ID] = true
				return true
			})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: %s under %v over %T: %d solutions, oracle %d", round, pat, env, src, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("round %d: %s under %v over %T: instance %d missing", round, pat, env, src, id)
				}
			}
			if ws, ok := src.(*wideSource); ok {
				served += ws.fieldScans
			}
		}
	}
	if served == 0 {
		t.Fatal("no enumeration took the field-selector path: the test exercises nothing")
	}
}

// TestNarrowLeadSkipsSelectors pins the no-regression half: a lead-known
// pattern over a narrow bucket is scanned plainly and builds no selectors.
func TestNarrowLeadSkipsSelectors(t *testing.T) {
	src := &narrowSource{}
	q := Q(P(C(tuple.Int(1)), C(tuple.Atom("link")), V("g")))
	if _, _, err := Solve(q, src, expr.Env{}); err != nil {
		t.Fatal(err)
	}
	if src.fieldScans != 0 || src.scans != 1 || src.probes != 1 {
		t.Errorf("narrow lead: %d field scans, %d scans, %d LeadWide probes; want 0, 1, 1", src.fieldScans, src.scans, src.probes)
	}
}

type narrowSource struct{ scans, fieldScans, probes int }

func (n *narrowSource) Scan(int, tuple.Value, bool, func(tuple.ID, tuple.Tuple) bool) { n.scans++ }
func (n *narrowSource) ScanFields(int, []FieldSel, func(tuple.ID, tuple.Tuple) bool)  { n.fieldScans++ }
func (n *narrowSource) LeadWide(int, tuple.Value) bool                                { n.probes++; return false }
