package dataspace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// matchFilter is the shape of filter the transaction engine compiles for a
// delta-safe guard: accept the asserted tuples that match one of the
// patterns standalone. calls counts invocations.
type matchFilter struct {
	pats  []pattern.Pattern
	calls int
}

func (f *matchFilter) accept(d Delta) bool {
	f.calls++
	if !d.Asserted {
		return false
	}
	for _, p := range f.pats {
		if p.Match(d.Inst.Tuple, nil, nil) {
			return true
		}
	}
	return false
}

// randomSub draws a subscription spec: one or two lead-known patterns over a
// small value pool (so subscriptions share buckets and selector values),
// sometimes with a selector-less pattern, sometimes arity-wide, sometimes
// unfiltered.
type subSpec struct {
	keys     []InterestKey
	sels     []pattern.FieldSel
	filter   *matchFilter // nil: wake on any covering commit
	describe string
}

func randomSub(r *rand.Rand) subSpec {
	leads := []tuple.Value{tuple.Atom("job"), tuple.Atom("tok"), tuple.Int(1), tuple.Float(1)}
	val := func() tuple.Value { return tuple.Int(int64(r.Intn(4))) }
	spec := subSpec{}
	filtered := r.Intn(5) != 0
	if filtered {
		spec.filter = &matchFilter{}
	}
	for n := 1 + r.Intn(2); n > 0; n-- {
		lead := leads[r.Intn(len(leads))]
		var (
			p   pattern.Pattern
			sel pattern.FieldSel
		)
		switch r.Intn(5) {
		case 0: // selector-less: every non-lead field open
			p = pattern.P(pattern.C(lead), pattern.W(), pattern.V("x"))
		case 1: // selector on the last field
			v := val()
			p = pattern.P(pattern.C(lead), pattern.W(), pattern.C(v))
			sel = pattern.FieldSel{Pos: 2, Val: v}
		case 2: // arity-2 bucket
			v := val()
			p = pattern.P(pattern.C(lead), pattern.C(v))
			sel = pattern.FieldSel{Pos: 1, Val: v}
		default: // two constants: file under the first
			v, w := val(), val()
			p = pattern.P(pattern.C(lead), pattern.C(v), pattern.C(w))
			sel = pattern.FieldSel{Pos: 1, Val: v}
		}
		key := InterestKey{Arity: p.Arity(), Lead: lead, LeadKnown: true}
		if r.Intn(8) == 0 {
			key = InterestKey{Arity: p.Arity()} // arity-wide interest
			p.Fields[0] = pattern.W()
			sel = pattern.FieldSel{}
		}
		spec.keys = append(spec.keys, key)
		spec.sels = append(spec.sels, sel)
		if filtered {
			spec.filter.pats = append(spec.filter.pats, p)
		}
		spec.describe += p.String() + " "
	}
	return spec
}

// TestIndexedRegistryMatchesLinear is the differential test of field-indexed
// subscriptions. Two stores receive the same random subscriptions and the
// same random commits; one files the filtered subscriptions under their
// selectors, the other registers them without (the linear registry: every
// subscription of a bucket is offered every delta of the bucket). After
// every commit each subscription must have been published exactly the same
// thing on both — fired or not, the same deltas, the same full flag — and
// on the indexed store collect must have returned every subscription whose
// filter accepts the written tuple. The indexed store never runs more
// filters than the linear one.
func TestIndexedRegistryMatchesLinear(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		shards := 1 << r.Intn(3)
		indexed, linear := New(WithShards(shards)), New(WithShards(shards))
		type pair struct {
			spec       subSpec
			linFilter  *matchFilter
			isub, lsub testSub
		}
		var subs []*pair
		add := func() {
			spec := randomSub(r)
			p := &pair{spec: spec}
			var fi, fl DeltaFilter
			if spec.filter != nil {
				p.linFilter = &matchFilter{pats: spec.filter.pats}
				fi, fl = filterFunc(spec.filter.accept), filterFunc(p.linFilter.accept)
			}
			p.isub = subscribe(indexed, spec.keys, fi, spec.sels...)
			p.lsub = subscribe(linear, spec.keys, fl)
			subs = append(subs, p)
		}
		for i := 0; i < 12; i++ {
			add()
		}
		render := func(ds []Delta, full bool) string {
			var out []string
			for _, d := range ds {
				out = append(out, fmt.Sprintf("%t:%s", d.Asserted, d.Inst.Tuple))
			}
			sort.Strings(out)
			return fmt.Sprintf("%v full=%t", out, full)
		}
		for step := 0; step < 80; step++ {
			switch r.Intn(10) {
			case 0:
				add()
				continue
			case 1:
				if len(subs) > 4 {
					i := r.Intn(len(subs))
					subs[i].isub.Cancel()
					subs[i].lsub.Cancel()
					subs = append(subs[:i], subs[i+1:]...)
				}
				continue
			}
			// One commit of 1-3 tuples, the same on both stores.
			leads := []tuple.Value{tuple.Atom("job"), tuple.Atom("tok"), tuple.Int(1)}
			var batch []tuple.Tuple
			for n := 1 + r.Intn(3); n > 0; n-- {
				lead := leads[r.Intn(len(leads))]
				if r.Intn(3) == 0 {
					batch = append(batch, tuple.New(lead, tuple.Int(int64(r.Intn(4)))))
				} else {
					batch = append(batch, tuple.New(lead, tuple.Int(int64(r.Intn(4))), tuple.Int(int64(r.Intn(4)))))
				}
			}
			// collect ⊇ accepting subscriptions, checked before the commit
			// drains nothing: the registry is stable here.
			for _, tup := range batch {
				inst := Instance{Tuple: tup}
				got := map[*Subscription]bool{}
				si := indexed.shardIndex(indexKeyOf(tup))
				for _, c := range indexed.shards[si].waiters.collect(inst, nil) {
					got[c.sub] = true
				}
				for _, p := range subs {
					if p.spec.filter == nil {
						continue
					}
					probe := matchFilter{pats: p.spec.filter.pats}
					if probe.accept(Delta{Asserted: true, Inst: inst}) && !got[p.isub.Subscription] {
						t.Fatalf("seed %d step %d: collect(%s) missed subscription %s whose filter accepts it",
							seed, step, tup, p.spec.describe)
					}
				}
			}
			indexed.Assert(tuple.Environment, batch...)
			linear.Assert(tuple.Environment, batch...)
			for _, p := range subs {
				id, ifull := p.isub.Drain()
				ld, lfull := p.lsub.Drain()
				if gi, gl := render(id, ifull), render(ld, lfull); gi != gl {
					t.Fatalf("seed %d step %d: commit %v published %s to the indexed subscription %s, %s to the linear one",
						seed, step, batch, gi, p.spec.describe, gl)
				}
			}
		}
		var icalls, lcalls int
		for _, p := range subs {
			if p.spec.filter != nil {
				icalls += p.spec.filter.calls
				lcalls += p.linFilter.calls
			}
		}
		if icalls > lcalls {
			t.Errorf("seed %d: indexed registry ran %d filters, linear %d", seed, icalls, lcalls)
		}
		for _, p := range subs {
			p.isub.Cancel()
			p.lsub.Cancel()
		}
		assertRegistriesEmpty(t, indexed)
		assertRegistriesEmpty(t, linear)
	}
}

// TestFanoutFilterInvocations pins the cost of the fan-out shape: P
// subscriptions in ONE bucket, each on its own <job, i, 1>. A noise commit
// into the bucket runs at most 2 filters and the releasing commit (P tuples)
// at most 2P — it was P and P² when a commit met every filter of the bucket.
func TestFanoutFilterInvocations(t *testing.T) {
	job := tuple.Atom("job")
	for _, p := range []int{64, 128, 256} {
		s := New()
		calls := 0
		subs := make([]testSub, p)
		for i := range subs {
			i := i
			me := tuple.Int(int64(i))
			subs[i] = subscribe(s,
				[]InterestKey{{Arity: 3, Lead: job, LeadKnown: true}},
				filterFunc(func(d Delta) bool {
					calls++
					return d.Asserted && d.Inst.Tuple.Field(1).Equal(me) && d.Inst.Tuple.Field(2).Equal(tuple.Int(1))
				}),
				pattern.FieldSel{Pos: 1, Val: me})
		}
		for k := 0; k < 10; k++ {
			before := calls
			s.Assert(tuple.Environment, tuple.New(job, tuple.Int(int64(p+k)), tuple.Int(0)))
			if got := calls - before; got > 2 {
				t.Errorf("P=%d: a noise commit ran %d filters, want <= 2", p, got)
			}
		}
		// A noise tuple that shares a waiter's selector value still reaches
		// only that waiter.
		before := calls
		s.Assert(tuple.Environment, tuple.New(job, tuple.Int(3), tuple.Int(0)))
		if got := calls - before; got != 1 {
			t.Errorf("P=%d: a near-miss commit ran %d filters, want 1", p, got)
		}
		release := make([]tuple.Tuple, p)
		for i := range release {
			release[i] = tuple.New(job, tuple.Int(int64(i)), tuple.Int(1))
		}
		before = calls
		s.Assert(tuple.Environment, release...)
		if got := calls - before; got > 2*p {
			t.Errorf("P=%d: the releasing commit ran %d filters, want <= %d", p, got, 2*p)
		}
		for i, sub := range subs {
			if !waitFired(t, sub.Ready()) {
				t.Fatalf("P=%d: waiter %d not released", p, i)
			}
			if deltas, full := sub.Drain(); full || len(deltas) != 1 {
				t.Fatalf("P=%d: waiter %d drained %v full=%t, want its one tuple", p, i, deltas, full)
			}
			sub.Cancel()
		}
		assertRegistriesEmpty(t, s)
	}
}
