package sdl

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/refmodel"
)

// Secondary-index ablation equivalence: the adaptive field indexes are a
// pure access-path optimization, so the same workload must produce the
// same query results and the same final content multiset whether
// field-addressed scans hit promoted value buckets (secondary on) or walk
// the arity population (secondary off). The workload drives all the
// moving parts across the promotion point: concurrent writers churn the
// indexed shape (retract + re-assert through the engine, so incremental
// maintenance runs under every commit path) while field-scan readers
// apply the scan pressure that promotes it; a deterministic ∀ phase then
// pins exact result equality for both a field-addressed lookup and a
// two-leg join the selectivity planner reorders.
func TestSecondaryIndexAblationEquivalence(t *testing.T) {
	const (
		records = 200
		groups  = 8
		workers = 8
		readers = 4
		reads   = 30
	)
	run := func(t *testing.T, shards int, disable bool) ([]string, map[uint64]int) {
		sys := New(Options{Shards: shards, DisableSecondaryIndex: disable})
		defer sys.Close()

		// Load: records addressed by a non-lead group field, plus one
		// probe row per group for the join phase.
		for i := 0; i < records; i++ {
			sys.Store.Assert(Environment, NewTuple(Int(int64(i)), Atom("rec"), Int(int64(i%groups))))
		}
		for g := 0; g < groups; g++ {
			sys.Store.Assert(Environment, NewTuple(Atom(fmt.Sprintf("probe%d", g)), Atom("link"), Int(int64(g))))
		}
		// One wide lead bucket: every record once more under the lead "hub".
		// Lead-known patterns over it may be served from a (pos, value)
		// bucket instead of the lead bucket when the secondary layer is on.
		for i := 0; i < records; i++ {
			sys.Store.Assert(Environment, NewTuple(Atom("hub"), Int(int64(i)), Int(int64(i%groups))))
		}

		var wg sync.WaitGroup
		per := records / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					id := int64(w*per + j)
					res, err := sys.Immediate(Request{
						Proc:    ProcessID(w + 1),
						View:    Universal(),
						Query:   Q(R(C(Int(id)), C(Atom("rec")), V("g"))),
						Asserts: []Pattern{P(C(Int(id)), C(Atom("done")), V("g"))},
					})
					if err != nil || !res.OK {
						t.Errorf("writer %d id %d: res=%+v err=%v", w, id, res, err)
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

		// Deterministic ∀ phase against the settled store: a
		// field-addressed lookup per group, then the planner-reordered
		// join over every (probe, record) pair.
		var results []string
		for g := 0; g < groups; g++ {
			res, err := sys.Immediate(Request{
				Proc:  ProcessID(200),
				View:  Universal(),
				Query: QAll(P(V("x"), C(Atom("done")), C(Int(int64(g))))),
			})
			if err != nil {
				t.Fatalf("lookup g=%d: %v", g, err)
			}
			for _, env := range res.Solutions {
				results = append(results, fmt.Sprintf("g%d:%v", g, env["x"]))
			}
		}
		// Lead-known lookups in the wide bucket, by each non-lead field, and
		// a join whose second leg is lead-known with a field bound by the
		// first.
		for g := 0; g < groups; g++ {
			res, err := sys.Immediate(Request{
				Proc:  ProcessID(200),
				View:  Universal(),
				Query: QAll(P(C(Atom("hub")), V("i"), C(Int(int64(g))))),
			})
			if err != nil {
				t.Fatalf("hub lookup g=%d: %v", g, err)
			}
			for _, env := range res.Solutions {
				results = append(results, fmt.Sprintf("hub-g%d:%v", g, env["i"]))
			}
		}
		hubJoin, err := sys.Immediate(Request{
			Proc: ProcessID(200),
			View: Universal(),
			Query: QAll(
				P(V("p"), C(Atom("link")), V("g")),
				P(C(Atom("hub")), V("i"), V("g"))),
		})
		if err != nil {
			t.Fatalf("hub join: %v", err)
		}
		for _, env := range hubJoin.Solutions {
			results = append(results, fmt.Sprintf("hubjoin:%v:%v:%v", env["p"], env["g"], env["i"]))
		}
		res, err := sys.Immediate(Request{
			Proc: ProcessID(201),
			View: Universal(),
			Query: QAll(
				P(V("p"), C(Atom("link")), V("g")),
				P(V("y"), C(Atom("done")), V("g"))),
		})
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		for _, env := range res.Solutions {
			results = append(results, fmt.Sprintf("join:%v:%v:%v", env["p"], env["g"], env["y"]))
		}
		sort.Strings(results)
		return results, refmodel.MultisetOf(sys.Store)
	}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			onRes, onSet := run(t, shards, false)
			offRes, offSet := run(t, shards, true)
			if len(onRes) != len(offRes) {
				t.Fatalf("result counts diverge: indexed %d, scan %d", len(onRes), len(offRes))
			}
			for i := range onRes {
				if onRes[i] != offRes[i] {
					t.Fatalf("result %d diverges: indexed %q, scan %q", i, onRes[i], offRes[i])
				}
			}
			if !refmodel.SameMultiset(onSet, offSet) {
				t.Errorf("final multisets diverge: indexed %d distinct tuples, scan %d",
					len(onSet), len(offSet))
			}
			// Sanity: every record was converted and found — per-group
			// lookups return all records, each join pairs every probe with
			// its whole group; once over the done rows, once over the hub.
			if want := 4 * records; len(onRes) != want {
				t.Errorf("deterministic phase returned %d solutions, want %d", len(onRes), want)
			}
		})
	}
}
