package view

import (
	"slices"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
}

// TestWindowScanAllocatesNothing: a scan through a restricted window builds
// no closure and no lead list, whatever the access path — a known lead, an
// unknown lead over a multi-lead import (bounded: one bucket per lead), or the
// reader's field index under an unbounded import — and nested scans reuse
// their scan states too.
func TestWindowScanAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	s := dataspace.New(dataspace.WithShards(4))
	a, b, rec := tuple.Atom("a"), tuple.Atom("b"), tuple.Atom("rec")
	for i := int64(0); i < 40; i++ {
		s.Assert(tuple.Environment,
			tuple.New(a, tuple.Int(i), tuple.Int(i%4)),
			tuple.New(b, tuple.Int(i), tuple.Int(i%4)),
			tuple.New(tuple.Int(i), rec, tuple.Int(i%4)))
	}
	env := expr.Env{"a": a, "b": b}
	multi := New(Union(
		Pat(pattern.P(pattern.V("a"), pattern.W(), pattern.W())),
		Pat(pattern.P(pattern.V("b"), pattern.W(), pattern.W())),
	), Everything())
	records := New(Union(Pat(pattern.P(pattern.W(), pattern.C(rec), pattern.W()))), Everything())
	sels := []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: tuple.Int(3)}}
	n := 0
	count := func(tuple.ID, tuple.Tuple) bool { n++; return true }
	var w Window
	nested := func(tuple.ID, tuple.Tuple) bool {
		w.Scan(3, tuple.Value{}, false, count)
		return false
	}
	cases := []struct {
		name string
		v    View
		scan func()
		want int
	}{
		{"known lead", multi, func() { w.Scan(3, b, true, count) }, 40},
		{"multi-lead", multi, func() { w.Scan(3, tuple.Value{}, false, count) }, 80},
		{"field index", records, func() { w.ScanFields(3, sels, count) }, 10},
		{"nested", multi, func() { w.Scan(3, a, true, nested) }, 80},
	}
	for _, c := range cases {
		for pass := 0; pass < 4; pass++ { // across the promotion of the field shape
			s.Snapshot(func(r dataspace.Reader) {
				w.Reset(c.v, r, env)
				n = 0
				c.scan()
				if n < c.want {
					t.Fatalf("%s: delivered %d tuples, want >= %d", c.name, n, c.want)
				}
			})
		}
		s.Snapshot(func(r dataspace.Reader) {
			w.Reset(c.v, r, env)
			if got := testing.AllocsPerRun(100, c.scan); got != 0 {
				t.Errorf("%s scan: %.0f allocations, want 0", c.name, got)
			}
		})
	}
}

// TestImportWithinAllocatesNothing: the consensus gate's per-offer bucket
// check agrees with the subset test on ImportShape's keys and, over pattern
// matchers, builds nothing.
func TestImportWithinAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	w4 := func(lead pattern.Field) Matcher {
		return Pat(pattern.P(lead, pattern.W(), pattern.W(), pattern.W()))
	}
	sort := New(Union(w4(pattern.V("a")), w4(pattern.V("b"))), Everything())
	registered := sort.ImportShape(expr.Env{"a": tuple.Int(1), "b": tuple.Int(2)}).Keys
	views := []View{sort, Universal(), New(Union(w4(pattern.W())), Everything()),
		New(Union(Dyn(4, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true })), Everything())}
	envs := []expr.Env{nil, {"a": tuple.Int(1)}, {"a": tuple.Int(1), "b": tuple.Int(2)},
		{"a": tuple.Float(2), "b": tuple.Int(1)}, {"a": tuple.Int(1), "b": tuple.Int(3)}}
	for _, v := range views {
		for _, env := range envs {
			sh := v.ImportShape(env)
			want := sh.Bounded
			for _, k := range sh.Keys {
				want = want && slices.Contains(registered, k)
			}
			if got := v.ImportWithin(env, registered); got != want {
				t.Errorf("%v under %v: ImportWithin = %v, shape says %v", v.Import, env, got, want)
			}
		}
	}
	env := expr.Env{"a": tuple.Int(2), "b": tuple.Int(1)}
	if got := testing.AllocsPerRun(100, func() {
		if !sort.ImportWithin(env, registered) {
			t.Fatal("rebound sort view not within its registered buckets")
		}
	}); got != 0 {
		t.Errorf("ImportWithin: %.0f allocations, want 0", got)
	}
}
