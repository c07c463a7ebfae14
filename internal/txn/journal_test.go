package txn

import (
	"errors"
	"slices"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// TestNextCommitCarriesOnlyItsOwnEffects pins the reuse hygiene of the
// store's pooled commit journals: after a commit that rolled back, one
// whose Delete failed, and a ∀ retract of 1 000 tuples — on the key-latch
// and the whole-store path alike — the next commit's CommitRecord and
// Result hold exactly that commit's own retraction and assertion.
func TestNextCommitCarriesOnlyItsOwnEffects(t *testing.T) {
	s := dataspace.New(dataspace.WithShards(2))
	e := New(s)
	var last dataspace.CommitRecord
	s.OnCommit(func(rec dataspace.CommitRecord) {
		last = dataspace.CommitRecord{Version: rec.Version, Owner: rec.Owner,
			Inserted: slices.Clone(rec.Inserted), Deleted: slices.Clone(rec.Deleted)}
	})
	ctr, item := tuple.Atom("ctr"), tuple.Atom("item")
	s.Assert(tuple.Environment, tuple.New(ctr, tuple.Int(0)))
	items := make([]tuple.Tuple, 1000)
	for i := range items {
		items[i] = tuple.New(item, tuple.Int(int64(i)), tuple.Atom("payload"))
	}
	// paths runs a request on the key-latch path (planned) and on the
	// whole-store path (a view with a dynamic matcher is never planned).
	everything := view.Union(view.Dyn(0, func(dataspace.Reader, expr.Env, tuple.Tuple) bool { return true }))
	paths := map[string]view.View{"key-latch": view.Universal(), "whole-store": view.New(everything, everything)}
	request := func(v view.View, quant pattern.Quantifier, q pattern.Pattern, asserts ...pattern.Pattern) Request {
		return Request{Proc: 7, View: v, Asserts: asserts,
			Query: pattern.Query{Quant: quant, Patterns: []pattern.Pattern{q}}}
	}
	bump := pattern.P(pattern.C(ctr), pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))))
	v := int64(0)
	next := func(t *testing.T, after string) {
		t.Helper()
		for name, vw := range paths {
			before := s.Version()
			res, err := e.Immediate(request(vw, pattern.Exists, pattern.R(pattern.C(ctr), pattern.V("v")), bump))
			if err != nil || !res.OK {
				t.Fatalf("after %s, %s upsert: ok=%v err=%v", after, name, res.OK, err)
			}
			old, cur := tuple.New(ctr, tuple.Int(v)), tuple.New(ctr, tuple.Int(v+1))
			v++
			if len(res.Retracted) != 1 || !res.Retracted[0].Tuple.Equal(old) ||
				len(res.Asserted) != 1 || !res.Asserted[0].Tuple.Equal(cur) {
				t.Errorf("after %s, %s upsert: result retracted %v asserted %v, want [%v] [%v]", after, name, res.Retracted, res.Asserted, old, cur)
			}
			if last.Version != before+1 || last.Owner != 7 ||
				len(last.Deleted) != 1 || !sameInstance(last.Deleted[0], res.Retracted[0]) ||
				len(last.Inserted) != 1 || !sameInstance(last.Inserted[0], res.Asserted[0]) {
				t.Errorf("after %s, %s upsert: record %+v, want version %d deleting %v inserting %v", after, name, last, before+1, res.Retracted, res.Asserted)
			}
		}
	}

	// A rollback: the retraction and the first assertion are applied (or
	// buffered) before the second assertion fails to ground.
	for name, vw := range paths {
		unbound := pattern.P(pattern.C(ctr), pattern.E(expr.V("nosuch")))
		res, err := e.Immediate(request(vw, pattern.Exists, pattern.R(pattern.C(ctr), pattern.V("v")), bump, unbound))
		if err == nil || res.OK {
			t.Fatalf("%s: an assertion that cannot ground committed", name)
		}
	}
	next(t, "a rollback")

	// A Delete that reports ErrNoSuchTuple after an insert.
	missing := func(w dataspace.Writer) error {
		w.Insert(tuple.New(ctr, tuple.Int(-1)), 7)
		return w.Delete(1 << 40)
	}
	keys := []dataspace.InterestKey{dataspace.InterestOf(2, ctr, true)}
	if err := s.UpdateCommuting(7, keys, missing); !errors.Is(err, dataspace.ErrNoSuchTuple) {
		t.Fatalf("key-latch Delete of a missing tuple: %v", err)
	}
	if err := s.Update(7, missing); !errors.Is(err, dataspace.ErrNoSuchTuple) {
		t.Fatalf("whole-store Delete of a missing tuple: %v", err)
	}
	next(t, "a failed Delete")

	// A ∀ retract of 1 000 tuples, past what a pooled journal may keep.
	for name, vw := range paths {
		s.Assert(tuple.Environment, items...)
		res, err := e.Immediate(request(vw, pattern.ForAll, pattern.R(pattern.C(item), pattern.V("i"), pattern.V("p"))))
		if err != nil || !res.OK || len(res.Retracted) != len(items) || len(last.Deleted) != len(items) {
			t.Fatalf("%s ∀ retract: ok=%v err=%v, %d retracted, record deleted %d", name, res.OK, err, len(res.Retracted), len(last.Deleted))
		}
	}
	next(t, "a 1 000-tuple ∀ retract")
	if s.Len() != 1 {
		t.Errorf("store holds %d tuples, want the counter alone", s.Len())
	}
}

func sameInstance(a, b dataspace.Instance) bool {
	return a.ID == b.ID && a.Owner == b.Owner && a.Tuple.Equal(b.Tuple)
}
