package sdl

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
)

// The read and upsert shapes of the perf/ workloads over a store of the
// same layout at a tenth of the size: groups*perGroup records <id, rec, g>,
// one <p, link, g> per group, and one counter <k, v> per group for the
// upsert. BenchmarkReadShapes regenerates the per-shape allocation table in
// seconds (`go test -bench ReadShapes -benchmem -run '^$' .`); the
// count-exact guards below pin it.
const (
	shapeGroups   = 2000
	shapePerGroup = 10
)

var (
	shapeRec  = Atom("rec")
	shapeLink = Atom("link")
)

func shapeSystem(tb testing.TB) *System {
	tb.Helper()
	sys := New(Options{})
	tb.Cleanup(func() { _ = sys.Close() }) // volatile: nothing to flush
	batch := make([]Tuple, 0, shapeGroups*(shapePerGroup+2))
	for i := 0; i < shapeGroups*shapePerGroup; i++ {
		batch = append(batch, NewTuple(Int(int64(i)), shapeRec, Int(int64(i%shapeGroups))))
	}
	for p := 0; p < shapeGroups; p++ {
		batch = append(batch, NewTuple(Int(int64(p)), shapeLink, Int(int64((p*7+3)%shapeGroups))))
		batch = append(batch, NewTuple(Int(int64(p)), Int(0)))
	}
	sys.Store.Assert(Environment, batch...)
	return sys
}

// shapeJoin is join-read's two-leg join: forall <P, link, ?g>, <?y, rec, ?g>.
func shapeJoin(link int) Query {
	return QAll(
		P(C(Int(int64(link))), C(shapeLink), V("g")),
		P(V("y"), C(shapeRec), V("g")))
}

// shapeFetch is join-read's group fetch: forall <?x, rec, G>.
func shapeFetch(group int) Query {
	return QAll(P(V("x"), C(shapeRec), C(Int(int64(group)))))
}

// readShapes are join-read's two reads.
var readShapes = []struct {
	name  string
	query func(i int) Query
}{{"join", shapeJoin}, {"fetch", shapeFetch}}

// shapeUpsert is upsert-durable's transaction: <k, ?v>! -> <k, ?v+1>.
func shapeUpsert(key int) Request {
	k := C(Int(int64(key)))
	return Request{Proc: 1, View: Universal(),
		Query:   Q(R(k, V("v"))),
		Asserts: []Pattern{P(k, E(Add(X("v"), Lit(Int(1)))))}}
}

// shapeMiss is a lead-keyed read that fails: no <k, ?v> for a negative key.
func shapeMiss() Request {
	return Request{Proc: 1, View: Universal(), Query: Q(P(C(Int(-1)), V("v")))}
}

func BenchmarkReadShapes(b *testing.B) {
	sys := shapeSystem(b)
	for _, sh := range readShapes {
		b.Run(sh.name+"/solveall", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := sh.query(i % shapeGroups)
				sys.Store.Snapshot(func(r Reader) {
					if sols, _ := pattern.SolveAll(q, r, nil); len(sols) != shapePerGroup {
						b.Fatalf("%d solutions, want %d", len(sols), shapePerGroup)
					}
				})
			}
		})
		b.Run(sh.name+"/immediate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sys.Immediate(Request{Proc: 1, View: Universal(), Query: sh.query(i % shapeGroups)})
				if err != nil || len(res.Solutions) != shapePerGroup {
					b.Fatalf("%d solutions, err %v", len(res.Solutions), err)
				}
			}
		})
	}
	b.Run("upsert/immediate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := sys.Immediate(shapeUpsert(i % shapeGroups)); err != nil || !res.OK {
				b.Fatalf("upsert: ok %v, err %v", res.OK, err)
			}
		}
	})
	b.Run("miss/immediate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := sys.Immediate(shapeMiss()); err != nil || res.OK {
				b.Fatalf("miss: ok %v, err %v", res.OK, err)
			}
		}
	})
}

// TestImmediateAllocs pins what a transaction costs the heap end to end,
// through Engine.Immediate over a real store: a read of n solutions pays the
// two allocations of each solution's environment (a map: header + buckets)
// plus the one Solutions slice that holds them — the reader, its join
// estimator and the bindings are pooled — and the lead-keyed upsert a fixed
// count.
func TestImmediateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	sys := shapeSystem(t)
	const n = shapePerGroup
	for _, sh := range readShapes {
		req := Request{Proc: 1, View: Universal(), Query: sh.query(5)}
		for i := 0; i < 64; i++ {
			sys.Immediate(req) // promote the (arity 3, group) field index, warm the matcher pool
		}
		got := testing.AllocsPerRun(200, func() {
			if res, err := sys.Immediate(req); err != nil || len(res.Solutions) != n {
				t.Fatalf("%s: %d solutions, err %v", sh.name, len(res.Solutions), err)
			}
		})
		if max := float64(2*n + 1); got > max {
			t.Errorf("%s read of %d solutions: %.0f allocations, want <= %.0f", sh.name, n, got, max)
		}
	}

	// The parent commit measured 40 here (37 on the durable path, whose
	// request perf/ builds once); the compiled matcher and txn.apply's fixed
	// costs took 18 of them, and what remains is the store's commit path
	// (≈ 14), the solution (3), the result's three slices, the grounded
	// tuple and the footprint keys.
	up := shapeUpsert(7)
	got := testing.AllocsPerRun(200, func() {
		if res, err := sys.Immediate(up); err != nil || !res.OK {
			t.Fatalf("upsert: ok %v, err %v", res.OK, err)
		}
	})
	if max := 24.0; got > max {
		t.Errorf("lead-keyed upsert: %.0f allocations, want <= %.0f", got, max)
	}

	// A query that fails costs no more than one that succeeds.
	miss := shapeMiss()
	hit := Request{Proc: 1, View: Universal(), Query: Q(P(C(Int(7)), V("v")))}
	missed := testing.AllocsPerRun(200, func() { sys.Immediate(miss) })
	found := testing.AllocsPerRun(200, func() { sys.Immediate(hit) })
	if missed > found {
		t.Errorf("failing read: %.0f allocations, a succeeding one %.0f", missed, found)
	}
	t.Logf("upsert %.0f, failing read %.0f, one-solution read %.0f allocations", got, missed, found)
}
