package sdl

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/refmodel"
)

// Secondary-index equivalence: the adaptive field indexes are a pure
// access-path optimization, so the indexed system's answers and final
// content must be what the reference model computes — refmodel.Solutions,
// nested loops over every instance in written order, for each ∀ query over
// the settled store, and a serial refmodel.Model run of the same load and
// writes for the final multiset. The workload drives all the moving parts
// across the promotion point: concurrent writers churn the indexed shape
// (retract + re-assert through the engine, so incremental maintenance runs
// under every commit path) while field-scan readers apply the scan pressure
// that promotes it; a deterministic ∀ phase then pins exact result equality
// for field-addressed lookups and two-leg joins the selectivity planner
// reorders. (The name is kept from when the reference was a store with the
// indexes switched off.)
func TestSecondaryIndexAblationEquivalence(t *testing.T) {
	const (
		records = 200
		groups  = 8
		workers = 8
		readers = 4
		reads   = 30
	)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys := New(Options{Shards: shards})
			defer sys.Close()
			var model refmodel.Model

			// Load: records addressed by a non-lead group field, plus one
			// probe row per group for the join phase.
			var load []Tuple
			for i := 0; i < records; i++ {
				load = append(load, NewTuple(Int(int64(i)), Atom("rec"), Int(int64(i%groups))))
			}
			for g := 0; g < groups; g++ {
				load = append(load, NewTuple(Atom(fmt.Sprintf("probe%d", g)), Atom("link"), Int(int64(g))))
			}
			// One wide lead bucket: every record once more under the lead
			// "hub". Lead-known patterns over it may be served from a (pos,
			// value) bucket instead of the lead bucket.
			for i := 0; i < records; i++ {
				load = append(load, NewTuple(Atom("hub"), Int(int64(i)), Int(int64(i%groups))))
			}
			for _, tp := range load {
				sys.Store.Assert(Environment, tp)
				model.Assert(Environment, tp)
			}

			// Each writer converts its own records, so every serial order
			// of the writes reaches the same final content.
			per := records / workers
			write := func(w, j int) Request {
				id := int64(w*per + j)
				return Request{
					Proc:    ProcessID(w + 1),
					View:    Universal(),
					Query:   Q(R(C(Int(id)), C(Atom("rec")), V("g"))),
					Asserts: []Pattern{P(C(Int(id)), C(Atom("done")), V("g"))},
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						res, err := sys.Immediate(write(w, j))
						if err != nil || !res.OK {
							t.Errorf("writer %d record %d: res=%+v err=%v", w, j, res, err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < reads; i++ {
						// ∃ lookups addressed purely by non-lead fields. The
						// matched record is arbitrary (and may not exist yet),
						// so only error-freedom is checked here; exact result
						// equality is pinned by the ∀ phase below.
						if _, err := sys.Immediate(Request{
							Proc:  ProcessID(100 + r),
							View:  Universal(),
							Query: Q(P(V("x"), C(Atom("done")), C(Int(int64(i%groups))))),
						}); err != nil {
							t.Errorf("reader %d scan %d: %v", r, i, err)
							return
						}
						// A point lookup inside the wide hub bucket: its one
						// answer is fixed, so it is checked here, mid-churn and
						// across the promotion of the hub shapes.
						id := int64((r*reads + i) % records)
						res, err := sys.Immediate(Request{
							Proc:  ProcessID(100 + r),
							View:  Universal(),
							Query: Q(P(C(Atom("hub")), C(Int(id)), V("g"))),
						})
						if err != nil || !res.OK || !res.Env["g"].Equal(Int(id%groups)) {
							t.Errorf("reader %d hub lookup %d: res=%+v err=%v", r, id, res, err)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				for j := 0; j < per; j++ {
					req := write(w, j)
					if _, err := model.Apply(refmodel.Txn{Proc: req.Proc, View: req.View, Query: req.Query, Asserts: req.Asserts}); err != nil {
						t.Fatalf("model write %d/%d: %v", w, j, err)
					}
				}
			}
			if !refmodel.SameContent(&model, sys.Store) {
				t.Fatalf("final contents diverge: store %d tuples, model %d", sys.Store.Len(), model.Len())
			}

			// Deterministic ∀ phase against the settled store: field-addressed
			// lookups per group, lead-known lookups in the wide bucket by a
			// non-lead field, a join whose second leg is lead-known with a field
			// bound by the first, and the planner-reordered join over every
			// (probe, record) pair. Each answer must be the oracle's over the
			// same instances.
			settled, err := refmodel.ReplayFrom(sys.Store.All(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			window := settled.All()
			var queries []Query
			for g := 0; g < groups; g++ {
				queries = append(queries,
					QAll(P(V("x"), C(Atom("done")), C(Int(int64(g))))),
					QAll(P(C(Atom("hub")), V("i"), C(Int(int64(g))))))
			}
			queries = append(queries,
				QAll(
					P(V("p"), C(Atom("link")), V("g")),
					P(C(Atom("hub")), V("i"), V("g"))),
				QAll(
					P(V("p"), C(Atom("link")), V("g")),
					P(V("y"), C(Atom("done")), V("g"))))
			total := 0
			for _, q := range queries {
				res, err := sys.Immediate(Request{Proc: ProcessID(200), View: Universal(), Query: q})
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				oracle, err := refmodel.Solutions(q, window, nil)
				if err != nil {
					t.Fatalf("%s: oracle: %v", q, err)
				}
				var got, want []string
				for _, env := range res.Solutions {
					got = append(got, fmt.Sprint(env))
				}
				for _, sol := range oracle {
					want = append(want, fmt.Sprint(sol.Env))
				}
				sort.Strings(got)
				sort.Strings(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\n got %v\nwant %v", q, got, want)
				}
				total += len(got)
			}
			// Sanity: every record was converted and found — per-group lookups
			// return all records, each join pairs every probe with its whole
			// group; once over the done rows, once over the hub.
			if want := 4 * records; total != want {
				t.Errorf("deterministic phase returned %d solutions, want %d", total, want)
			}
		})
	}
}
