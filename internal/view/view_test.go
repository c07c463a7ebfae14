package view

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func year(n int64) tuple.Tuple { return tuple.New(tuple.Atom("year"), tuple.Int(n)) }

func scanAll(w *Window, arity int) []tuple.Tuple {
	var out []tuple.Tuple
	w.Scan(arity, tuple.Value{}, false, func(_ tuple.ID, t tuple.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// withWindow runs fn with a window over the store's current configuration.
func withWindow(s *dataspace.Store, v View, env expr.Env, fn func(w *Window)) {
	s.Snapshot(func(r dataspace.Reader) { fn(v.Window(r, env)) })
}

func TestUniversalViewPassesEverything(t *testing.T) {
	s := dataspace.New()
	s.Assert(tuple.Environment, year(87), year(90))
	withWindow(s, Universal(), nil, func(w *Window) {
		if got := scanAll(w, 2); len(got) != 2 {
			t.Errorf("scan = %d tuples", len(got))
		}
		if !w.Admits(year(1)) {
			t.Error("universal import must admit everything")
		}
	})
	s.Snapshot(func(r dataspace.Reader) {
		if !Universal().Exports(r, nil, year(1)) {
			t.Error("universal export must admit everything")
		}
	})
}

func TestPaperYearView(t *testing.T) {
	// The paper's example:
	//   IMPORT α : α ≤ 87 :: <year, α>
	//   EXPORT <year, *>
	v := New(
		Union(PatWhere(
			pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a")),
			expr.Le(expr.V("a"), expr.Const(tuple.Int(87))),
		)),
		Union(Pat(pattern.P(pattern.C(tuple.Atom("year")), pattern.W()))),
	)
	s := dataspace.New()
	s.Assert(tuple.Environment, year(85), year(87), year(90),
		tuple.New(tuple.Atom("month"), tuple.Int(1)))

	withWindow(s, v, nil, func(w *Window) {
		got := scanAll(w, 2)
		if len(got) != 2 {
			t.Fatalf("window = %v", got)
		}
		for _, tp := range got {
			n, _ := tp.Field(1).AsInt()
			if n > 87 {
				t.Errorf("window leaked %v", tp)
			}
		}
		if w.Admits(year(90)) {
			t.Error("import must reject year > 87")
		}
		if w.Admits(tuple.New(tuple.Atom("month"), tuple.Int(1))) {
			t.Error("import must reject month tuples")
		}
	})
	s.Snapshot(func(r dataspace.Reader) {
		if !v.Exports(r, nil, year(99)) {
			t.Error("export <year,*> must admit any year")
		}
		if v.Exports(r, nil, tuple.New(tuple.Atom("month"), tuple.Int(1))) {
			t.Error("export must reject month tuples")
		}
	})
}

func TestViewWithProcessParameters(t *testing.T) {
	// Sort(node_id, next_node_id): IMPORT <node_id,*,*,*>, <next_node_id,*,*,*>
	mk := func(id int64) tuple.Tuple {
		return tuple.New(tuple.Int(id), tuple.Atom("p"), tuple.Int(id*10), tuple.Int(id+1))
	}
	v := New(
		Union(
			Pat(pattern.P(pattern.V("node_id"), pattern.W(), pattern.W(), pattern.W())),
			Pat(pattern.P(pattern.V("next_node_id"), pattern.W(), pattern.W(), pattern.W())),
		),
		Everything(),
	)
	env := expr.Env{"node_id": tuple.Int(1), "next_node_id": tuple.Int(2)}
	s := dataspace.New()
	s.Assert(tuple.Environment, mk(1), mk(2), mk(3))

	withWindow(s, v, env, func(w *Window) {
		got := scanAll(w, 4)
		if len(got) != 2 {
			t.Fatalf("window = %v", got)
		}
		for _, tp := range got {
			id, _ := tp.Field(0).AsInt()
			if id != 1 && id != 2 {
				t.Errorf("leaked node %d", id)
			}
		}
	})
}

func TestBoundedScanUsesIndexBuckets(t *testing.T) {
	// A view whose import rules pin the lead must not enumerate the rest of
	// the arity bucket. We detect this with a counting reader.
	v := New(
		Union(
			Pat(pattern.P(pattern.C(tuple.Atom("a")), pattern.W())),
			Pat(pattern.P(pattern.C(tuple.Atom("b")), pattern.W())),
		),
		Everything(),
	)
	s := dataspace.New()
	s.Assert(tuple.Environment,
		tuple.New(tuple.Atom("a"), tuple.Int(1)),
		tuple.New(tuple.Atom("b"), tuple.Int(2)),
	)
	for i := int64(0); i < 100; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("junk"), tuple.Int(i)))
	}
	s.Snapshot(func(r dataspace.Reader) {
		cr := &countingReader{Reader: r}
		w := v.Window(cr, nil)
		got := scanAll(w, 2)
		if len(got) != 2 {
			t.Fatalf("window = %v", got)
		}
		if cr.visited > 2 {
			t.Errorf("bounded view visited %d tuples, want ≤ 2", cr.visited)
		}
	})
}

// TestBoundedScanStopsAcrossLeads: a callback's false ends a lead-unknown
// scan of a multi-lead import, not just the bucket it came from. A negated
// pattern relies on it: its scan stops at the first violation, and a
// non-violating tuple from a later bucket must not reach it and overwrite
// the verdict, or ¬∃ succeeds over a window that holds a counterexample.
func TestBoundedScanStopsAcrossLeads(t *testing.T) {
	a, b := tuple.Atom("a"), tuple.Atom("b")
	v := New(Union(
		Pat(pattern.P(pattern.C(a), pattern.W())),
		Pat(pattern.P(pattern.C(b), pattern.W())),
	), Everything())
	s := dataspace.New()
	s.Assert(tuple.Environment, tuple.New(a, tuple.Int(1)), tuple.New(b, tuple.Int(2)))
	withWindow(s, v, nil, func(w *Window) {
		delivered := 0
		w.Scan(2, tuple.Value{}, false, func(tuple.ID, tuple.Tuple) bool {
			delivered++
			return false
		})
		if delivered != 1 {
			t.Errorf("scan delivered %d tuples after the callback stopped it, want 1", delivered)
		}
		// Some tuple differs from 2, whichever bucket the scan visits first.
		q := pattern.Q(pattern.N(pattern.W(), pattern.V("x")).
			Guarded(expr.Ne(expr.V("x"), expr.Const(tuple.Int(2)))))
		if _, found, err := pattern.Solve(q, w, nil); err != nil || found {
			t.Errorf("¬∃ <*, x> : x ≠ 2 over {<a,1>, <b,2>}: found=%v err=%v, want false", found, err)
		}
	})
}

type countingReader struct {
	dataspace.Reader
	visited int
}

func (c *countingReader) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	c.Reader.Scan(arity, lead, leadKnown, func(id tuple.ID, t tuple.Tuple) bool {
		c.visited++
		return fn(id, t)
	})
}

func TestClauseNoMatcherForArityScansNothing(t *testing.T) {
	v := New(
		Union(Pat(pattern.P(pattern.C(tuple.Atom("a")), pattern.W()))), // arity 2 only
		Everything(),
	)
	s := dataspace.New()
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("a"), tuple.Int(1), tuple.Int(2)))
	withWindow(s, v, nil, func(w *Window) {
		if got := scanAll(w, 3); len(got) != 0 {
			t.Errorf("arity-3 scan through arity-2-only view = %v", got)
		}
	})
}

func TestDynamicMatcher(t *testing.T) {
	// The Label-style dynamic import: admit <label, p, l> only when a
	// <threshold, p, _> tuple currently exists — the view depends on D.
	dyn := Dyn(3, func(r dataspace.Reader, _ expr.Env, t tuple.Tuple) bool {
		if tag, _ := t.Field(0).AsAtom(); tag != "label" {
			return false
		}
		found := false
		r.Scan(3, tuple.Atom("threshold"), true, func(_ tuple.ID, th tuple.Tuple) bool {
			if th.Field(1).Equal(t.Field(1)) {
				found = true
				return false
			}
			return true
		})
		return found
	})
	v := New(Union(dyn), Everything())

	s := dataspace.New()
	lbl := tuple.New(tuple.Atom("label"), tuple.Int(7), tuple.Int(7))
	s.Assert(tuple.Environment, lbl)

	withWindow(s, v, nil, func(w *Window) {
		if got := scanAll(w, 3); len(got) != 0 {
			t.Errorf("label admitted without threshold: %v", got)
		}
	})
	// After the threshold tuple appears, the same view admits the label.
	s.Assert(tuple.Environment, tuple.New(tuple.Atom("threshold"), tuple.Int(7), tuple.Int(1)))
	withWindow(s, v, nil, func(w *Window) {
		if got := scanAll(w, 3); len(got) != 1 {
			t.Errorf("label not admitted with threshold: %v", got)
		}
	})
}

func TestDynamicMatcherArityGate(t *testing.T) {
	m := Dyn(2, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true })
	if m.Admits(nil, nil, tuple.New(tuple.Int(1), tuple.Int(2), tuple.Int(3))) {
		t.Error("arity-gated dynamic matcher admitted wrong arity")
	}
	if _, applies, _ := m.Restriction(nil, 3, nil); applies {
		t.Error("restriction should not apply to other arities")
	}
	if leads, applies, bounded := m.Restriction(nil, 2, nil); !applies || bounded || len(leads) != 0 {
		t.Error("dynamic matcher must be unbounded for its arity")
	}
	if a, anyA := m.Arities(); a != 2 || anyA {
		t.Errorf("Arities = %d, %v; want 2, false", a, anyA)
	}
	anyArity := Dyn(0, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true })
	if !anyArity.Admits(nil, nil, tuple.New(tuple.Int(1))) {
		t.Error("arity-0 dynamic matcher should admit any arity")
	}
	if _, anyA := anyArity.Arities(); !anyA {
		t.Error("arity-0 dynamic matcher should report any arity")
	}
}

func TestScanWithKnownLeadStillFilters(t *testing.T) {
	v := New(
		Union(PatWhere(
			pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a")),
			expr.Le(expr.V("a"), expr.Const(tuple.Int(87))),
		)),
		Everything(),
	)
	s := dataspace.New()
	s.Assert(tuple.Environment, year(85), year(90))
	withWindow(s, v, nil, func(w *Window) {
		var got []tuple.Tuple
		w.Scan(2, tuple.Atom("year"), true, func(_ tuple.ID, t tuple.Tuple) bool {
			got = append(got, t)
			return true
		})
		if len(got) != 1 || !got[0].Equal(year(85)) {
			t.Errorf("known-lead scan = %v", got)
		}
	})
}

func TestMaterialize(t *testing.T) {
	v := New(
		Union(PatWhere(
			pattern.P(pattern.C(tuple.Atom("year")), pattern.V("a")),
			expr.Le(expr.V("a"), expr.Const(tuple.Int(87))),
		)),
		Everything(),
	)
	s := dataspace.New()
	s.Assert(tuple.Environment, year(85), year(87), year(90),
		tuple.New(tuple.Atom("month"), tuple.Int(1)))
	var got int
	s.Snapshot(func(r dataspace.Reader) {
		got = len(Materialize(v, r, nil))
	})
	if got != 2 {
		t.Errorf("Materialize = %d IDs, want 2", got)
	}
}

func TestMaterializeOverlapDisjoint(t *testing.T) {
	// Two Sort-style views overlap iff they share a node.
	mkView := func(a, b int64) View {
		return New(Union(
			Pat(pattern.P(pattern.C(tuple.Int(a)), pattern.W())),
			Pat(pattern.P(pattern.C(tuple.Int(b)), pattern.W())),
		), Everything())
	}
	s := dataspace.New()
	s.Assert(tuple.Environment,
		tuple.New(tuple.Int(1), tuple.Atom("x")),
		tuple.New(tuple.Int(2), tuple.Atom("x")),
		tuple.New(tuple.Int(3), tuple.Atom("x")),
	)
	s.Snapshot(func(r dataspace.Reader) {
		v12 := Materialize(mkView(1, 2), r, nil)
		v23 := Materialize(mkView(2, 3), r, nil)
		v3x := Materialize(mkView(3, 9), r, nil)
		if !overlaps(v12, v23) {
			t.Error("v12 and v23 should overlap (node 2)")
		}
		if overlaps(v12, v3x) {
			t.Error("v12 and v3x should be disjoint")
		}
	})
}

func overlaps(a, b map[tuple.ID]struct{}) bool {
	for id := range a {
		if _, ok := b[id]; ok {
			return true
		}
	}
	return false
}

func TestWindowGetAndReader(t *testing.T) {
	s := dataspace.New()
	ids := s.Assert(tuple.Environment, year(85))
	withWindow(s, Universal(), nil, func(w *Window) {
		inst, ok := w.Get(ids[0])
		if !ok || !inst.Tuple.Equal(year(85)) {
			t.Errorf("Get = %+v, %v", inst, ok)
		}
		if w.Reader() == nil {
			t.Error("Reader() is nil")
		}
	})
}

// Property: for random views and stores, a window scan (whatever internal
// path it takes — bounded buckets or filtered full scans) returns exactly
// the tuples a brute-force Admits filter returns.
func TestQuickWindowScanEquivalence(t *testing.T) {
	leads := []tuple.Value{tuple.Atom("a"), tuple.Atom("b"), tuple.Int(1), tuple.Int(2)}
	for trial := 0; trial < 40; trial++ {
		s := dataspace.New()
		// Random-ish population derived from the trial number.
		for i := 0; i < 30; i++ {
			lead := leads[(trial+i)%len(leads)]
			if (trial+i)%3 == 0 {
				s.Assert(tuple.Environment, tuple.New(lead, tuple.Int(int64(i))))
			} else {
				s.Assert(tuple.Environment, tuple.New(lead, tuple.Int(int64(i)), tuple.Int(int64(trial))))
			}
		}
		// Alternate between bounded, guarded, dynamic, and universal views.
		var v View
		switch trial % 4 {
		case 0:
			v = New(Union(
				Pat(pattern.P(pattern.C(tuple.Atom("a")), pattern.W())),
				Pat(pattern.P(pattern.C(tuple.Int(1)), pattern.W(), pattern.W())),
			), Everything())
		case 1:
			v = New(Union(PatWhere(
				pattern.P(pattern.V("l"), pattern.V("x")),
				expr.Ge(expr.V("x"), expr.Const(tuple.Int(10))),
			)), Everything())
		case 2:
			v = New(Union(Dyn(0, func(_ dataspace.Reader, _ expr.Env, tp tuple.Tuple) bool {
				n, ok := tp.Field(tp.Arity() - 1).AsInt()
				return ok && n%2 == 0
			})), Everything())
		default:
			v = Universal()
		}
		for arity := 1; arity <= 3; arity++ {
			for _, scanLead := range append([]tuple.Value{{}}, leads...) {
				known := scanLead.IsValid()
				var got []tuple.ID
				s.Snapshot(func(r dataspace.Reader) {
					v.Window(r, nil).Scan(arity, scanLead, known, func(id tuple.ID, _ tuple.Tuple) bool {
						got = append(got, id)
						return true
					})
				})
				var want []tuple.ID
				s.Snapshot(func(r dataspace.Reader) {
					r.Each(func(inst dataspace.Instance) bool {
						if inst.Tuple.Arity() != arity {
							return true
						}
						if known && !inst.Tuple.Field(0).Equal(scanLead) {
							return true
						}
						if v.Import.Admits(r, nil, inst.Tuple) {
							want = append(want, inst.ID)
						}
						return true
					})
				})
				if len(got) != len(want) {
					t.Fatalf("trial %d arity %d lead %v: window %d ids, brute force %d",
						trial, arity, scanLead, len(got), len(want))
				}
				seen := map[tuple.ID]bool{}
				for _, id := range got {
					seen[id] = true
				}
				for _, id := range want {
					if !seen[id] {
						t.Fatalf("trial %d: window missed id %d", trial, id)
					}
				}
			}
		}
	}
}

func TestImportShape(t *testing.T) {
	a, b := tuple.Atom("a"), tuple.Atom("b")
	whole := func(lead pattern.Field) Matcher { return Pat(pattern.P(lead, pattern.W(), pattern.W())) }
	cases := []struct {
		name string
		v    View
		env  expr.Env
		want ImportShape
	}{
		{"universal", Universal(), nil, ImportShape{Universal: true}},
		{"complete, duplicate and numeric-equal leads merged",
			New(Union(whole(pattern.C(a)), whole(pattern.C(a)), Pat(pattern.P(pattern.C(tuple.Int(2)), pattern.W())), Pat(pattern.P(pattern.C(tuple.Float(2)), pattern.W()))), Everything()), nil,
			ImportShape{Bounded: true, Complete: true, Keys: []BucketKey{CanonBucket(3, a), CanonBucket(2, tuple.Int(2))}}},
		{"lead from the process environment",
			New(Union(whole(pattern.V("node"))), Everything()), expr.Env{"node": tuple.Int(7)},
			ImportShape{Bounded: true, Complete: true, Keys: []BucketKey{CanonBucket(3, tuple.Int(7))}}},
		{"part of a bucket",
			New(Union(whole(pattern.C(a)), Pat(pattern.P(pattern.C(b), pattern.C(tuple.Int(1)), pattern.W()))), Everything()), nil,
			ImportShape{Bounded: true, Keys: []BucketKey{CanonBucket(3, a), CanonBucket(3, b)}}},
		{"predicate", New(Union(PatWhere(pattern.P(pattern.C(a), pattern.V("x")), expr.Le(expr.V("x"), expr.Const(tuple.Int(87))))), Everything()), nil,
			ImportShape{Bounded: true, Keys: []BucketKey{CanonBucket(2, a)}}},
		{"lead-free pattern", New(Union(whole(pattern.C(a)), Pat(pattern.P(pattern.W(), pattern.C(a)))), Everything()), nil, ImportShape{}},
		{"unbound lead variable", New(Union(whole(pattern.V("node"))), Everything()), nil, ImportShape{}},
		{"dynamic, one arity", New(Union(Dyn(2, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true })), Everything()), nil, ImportShape{}},
		{"dynamic, any arity", New(Union(Dyn(0, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true })), Everything()), nil, ImportShape{}},
		{"no matcher: imports nothing", New(Union(), Everything()), nil, ImportShape{Bounded: true, Complete: true}},
	}
	for _, tc := range cases {
		got := tc.v.ImportShape(tc.env)
		if got.Universal != tc.want.Universal || got.Bounded != tc.want.Bounded || got.Complete != tc.want.Complete || len(got.Keys) != len(tc.want.Keys) {
			t.Errorf("%s: shape %+v, want %+v", tc.name, got, tc.want)
			continue
		}
		for i := range got.Keys {
			if got.Keys[i] != tc.want.Keys[i] {
				t.Errorf("%s: key %d = %v, want %v", tc.name, i, got.Keys[i], tc.want.Keys[i])
			}
		}
	}
}

func TestClauseSame(t *testing.T) {
	c := Union(Pat(pattern.P(pattern.C(tuple.Atom("a")), pattern.W())))
	rebuilt := Union(Pat(pattern.P(pattern.C(tuple.Atom("a")), pattern.W())))
	if !c.Same(c) || !Everything().Same(Everything()) || !Union().Same(Union()) {
		t.Error("a clause is not the same as itself")
	}
	if c.Same(rebuilt) || c.Same(Everything()) || Everything().Same(c) || c.Same(Union()) {
		t.Error("Same is an identity test: separately built, universal and empty clauses differ")
	}
}

// TestWindowScanFieldsWithLead: a lead selector goes through the import
// filter to the reader's in-bucket lookup and yields what Scan yields.
func TestWindowScanFieldsWithLead(t *testing.T) {
	s := dataspace.New(dataspace.WithShards(4))
	job := tuple.Atom("job")
	for i := 0; i < 40; i++ {
		s.Assert(tuple.Environment, tuple.New(job, tuple.Int(int64(i)), tuple.Int(int64(i%2))))
	}
	odd := New(Union(PatWhere(pattern.P(pattern.C(job), pattern.W(), pattern.V("p")),
		expr.Eq(expr.V("p"), expr.Const(tuple.Int(1))))), Everything())
	sels := []pattern.FieldSel{{Pos: 0, Val: job}, {Pos: 1, Val: tuple.Int(7)}}
	for _, v := range []View{Universal(), odd} {
		for pass := 0; pass < 4; pass++ { // across the promotion of the (3, 1) shape
			s.Snapshot(func(r dataspace.Reader) {
				w := v.Window(r, nil)
				if !w.LeadWide(3, job) {
					t.Fatal("window hides the reader's wide bucket")
				}
				var viaFields, viaScan []string
				w.ScanFields(3, sels, func(_ tuple.ID, tup tuple.Tuple) bool {
					if tup.Field(0).Equal(job) && tup.Field(1).Equal(tuple.Int(7)) {
						viaFields = append(viaFields, tup.String())
					}
					return true
				})
				w.Scan(3, job, true, func(_ tuple.ID, tup tuple.Tuple) bool {
					if tup.Field(1).Equal(tuple.Int(7)) {
						viaScan = append(viaScan, tup.String())
					}
					return true
				})
				if len(viaFields) != 1 || len(viaScan) != 1 || viaFields[0] != viaScan[0] {
					t.Errorf("pass %d: ScanFields found %v, Scan found %v", pass, viaFields, viaScan)
				}
			})
		}
	}
}
