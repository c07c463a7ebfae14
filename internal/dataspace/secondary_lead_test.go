package dataspace

import (
	"testing"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// scanIDs collects what ScanFields delivers for sels.
func scanIDs(r Reader, arity int, sels []pattern.FieldSel) map[tuple.ID]tuple.Tuple {
	got := map[tuple.ID]tuple.Tuple{}
	r.(pattern.FieldSource).ScanFields(arity, sels, func(id tuple.ID, t tuple.Tuple) bool {
		got[id] = t
		return true
	})
	return got
}

// TestLeadKnownScanFields: with a lead selector the lead bucket is one more
// candidate set. Until a (pos, value) shape is promoted the lead bucket is
// walked exactly as Scan walks it (and the shape is charged toward
// promotion); once promoted the smaller field bucket is served; a narrow
// lead bucket never reports itself wide; tuples of other leads that share
// the field value are delivered (the matcher re-verifies) only through the
// field bucket, never invented.
func TestLeadKnownScanFields(t *testing.T) {
	s := New(WithShards(4))
	job, other := tuple.Atom("job"), tuple.Atom("other")
	const n = 100
	for i := 0; i < n; i++ {
		s.Assert(tuple.Environment, tuple.New(job, tuple.Int(int64(i)), tuple.Int(int64(i%2))))
	}
	s.Assert(tuple.Environment, tuple.New(other, tuple.Int(7), tuple.Int(1)))
	sels := []pattern.FieldSel{{Pos: 0, Val: job}, {Pos: 1, Val: tuple.Int(7)}, {Pos: 2, Val: tuple.Int(1)}}

	s.Snapshot(func(r Reader) {
		fs := r.(pattern.FieldSource)
		if !fs.LeadWide(3, job) {
			t.Fatalf("a %d-tuple lead bucket is not wide", n)
		}
		if fs.LeadWide(3, other) || fs.LeadWide(3, tuple.Atom("absent")) {
			t.Error("a 1-tuple or absent lead bucket reports wide")
		}
		// Cold shapes: the lead bucket, nothing else.
		for pass := 0; pass < promoteScanBar; pass++ {
			got := scanIDs(r, 3, sels)
			if len(got) != n {
				t.Fatalf("cold pass %d delivered %d tuples, want the lead bucket's %d", pass, len(got), n)
			}
			for _, tup := range got {
				if !tup.Field(0).Equal(job) {
					t.Fatalf("cold pass delivered %s from another lead bucket", tup)
				}
			}
		}
	})
	if got := s.Metrics().Snapshot().SecondaryPromotions; got != 2 {
		t.Fatalf("%d shapes promoted by %d lead-known scans, want 2 (positions 1 and 2)", got, promoteScanBar)
	}
	s.Snapshot(func(r Reader) {
		// Hot: the (pos 1, value 7) bucket — <job,7,1> and <other,7,1> — is
		// the smallest candidate set.
		got := scanIDs(r, 3, sels)
		if len(got) != 2 {
			t.Fatalf("hot scan delivered %d tuples, want the 2 of the (1, 7) bucket: %v", len(got), got)
		}
		matches := 0
		for _, tup := range got {
			if tup.Equal(tuple.New(job, tuple.Int(7), tuple.Int(1))) {
				matches++
			}
		}
		if matches != 1 {
			t.Errorf("hot scan lost the matching tuple: %v", got)
		}
		// A value nobody carries proves emptiness without walking anything.
		if got := scanIDs(r, 3, []pattern.FieldSel{{Pos: 0, Val: job}, {Pos: 1, Val: tuple.Int(n + 5)}}); len(got) != 0 {
			t.Errorf("absent value delivered %v", got)
		}
	})
	// Maintained through writes: retract the match, assert another.
	var victim tuple.ID
	s.Snapshot(func(r Reader) {
		for id := range scanIDs(r, 3, sels[:2]) {
			if inst, _ := r.Get(id); inst.Tuple.Field(0).Equal(job) {
				victim = id
			}
		}
	})
	if err := s.Update(tuple.Environment, func(w Writer) error { return w.Delete(victim) }); err != nil {
		t.Fatal(err)
	}
	s.Assert(tuple.Environment, tuple.New(job, tuple.Int(7), tuple.Int(0)))
	s.Snapshot(func(r Reader) {
		got := scanIDs(r, 3, sels[:2])
		var leads []string
		for _, tup := range got {
			leads = append(leads, tup.String())
		}
		if len(got) != 2 || got[victim].Arity() != 0 {
			t.Errorf("after retract+assert the (1, 7) bucket serves %v, want <job, 7, 0> and <other, 7, 1>", leads)
		}
	})
}

// TestUnselectiveHotShapeDoesNotStarveSelectiveOne: lead-known scans of a
// wide bucket that carry only a type tag promote the tag's shape alone. A
// later lead-unknown query carrying the tag and a selective field is then
// served the tag's (huge) bucket — and must still charge the selective
// field's shape, or it would never be promoted and every such query would
// walk every tagged tuple for good.
func TestUnselectiveHotShapeDoesNotStarveSelectiveOne(t *testing.T) {
	s := New(WithShards(1))
	hub, rec := tuple.Atom("hub"), tuple.Atom("rec")
	const n, groups = 400, 100
	for i := 0; i < n; i++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(i)), rec, tuple.Int(int64(i%groups))))
	}
	for i := 0; i < 2*wideLeadBucket; i++ {
		s.Assert(tuple.Environment, tuple.New(hub, rec, tuple.Int(int64(i))))
	}
	s.Snapshot(func(r Reader) {
		for pass := 0; pass < promoteScanBar; pass++ {
			scanIDs(r, 3, []pattern.FieldSel{{Pos: 0, Val: hub}, {Pos: 1, Val: rec}})
		}
	})
	if got := s.Metrics().Snapshot().SecondaryPromotions; got != 1 {
		t.Fatalf("%d shapes promoted by the tag-only scans, want 1", got)
	}
	sels := []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: tuple.Int(7)}}
	s.Snapshot(func(r Reader) {
		for pass := 0; pass < promoteScanBar; pass++ {
			if got := len(scanIDs(r, 3, sels)); got != n+2*wideLeadBucket {
				t.Fatalf("pass %d delivered %d tuples, want the tag bucket's %d", pass, got, n+2*wideLeadBucket)
			}
		}
		// <7,rec,7>, <107,rec,7>, <207,rec,7>, <307,rec,7> and <hub,rec,7>.
		if got := len(scanIDs(r, 3, sels)); got != n/groups+1 {
			t.Errorf("after %d scans carrying it the (2, 7) bucket is still not served: %d tuples delivered, want %d", promoteScanBar, got, n/groups+1)
		}
	})
}
