package consensus

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/trace"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// Differential test of the readiness gate. A random society — disjoint and
// chained bucket-complete communities, partial-bucket imports such as
// <a,1,*> vs <a,2,*>, universal and unbounded members, and parameterized
// imports <x,*,*> whose offers may rebind x mixed in — is driven
// through a random event sequence (register, unregister, offer with
// satisfiable, unsatisfiable-until-later, negated and retracting queries, withdraw,
// assert, retract, empty a bucket, refill it) against two gates:
//
//   - the production Manager, whose events run the gate's attempts on the
//     caller that made a set ready, so by the time an event returns every
//     fire it owes has happened and the comparison is deterministic;
//   - refSociety, which keeps no state between events and after each one
//     re-derives everything from the definitions by brute force: the
//     partition from materialized import overlap, readiness by evaluating
//     every member's query, the composite by "all retractions, then all
//     assertions" on a refmodel.Model.
//
// After every event both must have fired exactly the same consensus sets
// and hold the same dataspace: an event that left a ready set unattempted
// (a lost wake) shows as a missed fire, and one whose skipped evaluation
// could have fired (the soundness rule) as a fire the production gate owes.
// At the end the production commit log replays through refmodel to the
// store's contents.

var (
	diffRegions = []tuple.Value{tuple.Atom("a"), tuple.Atom("b"), tuple.Atom("c"), tuple.Atom("d")}
	diffOut     = tuple.Atom("out")
	diffGo      = tuple.Atom("go")
)

type refMember struct {
	v   view.View
	env expr.Env
}

type refSociety struct {
	model   refmodel.Model
	members map[tuple.ProcessID]refMember
	offers  map[tuple.ProcessID][]txn.Request
}

// refSource is a brute-force pattern.Source over the instances a member may
// see: its import, minus the instances hidden by earlier participants.
type refSource struct{ insts []refmodel.Instance }

func (s refSource) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	for _, inst := range s.insts {
		if inst.Tuple.Arity() != arity || (leadKnown && !inst.Tuple.Field(0).Equal(lead)) {
			continue
		}
		if !fn(inst.ID, inst.Tuple) {
			return
		}
	}
}

func (rs *refSociety) window(mem refMember, hidden map[tuple.ID]bool) []refmodel.Instance {
	var out []refmodel.Instance
	for _, inst := range rs.model.All() {
		if !hidden[inst.ID] && mem.v.Import.Admits(nil, mem.env, inst.Tuple) {
			out = append(out, inst)
		}
	}
	return out
}

// communities partitions the society by the definition: the transitive
// closure of "imports share an instance of D".
func (rs *refSociety) communities() [][]tuple.ProcessID {
	var pids []tuple.ProcessID
	for pid := range rs.members {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	group := map[tuple.ProcessID]int{}
	for i, pid := range pids {
		group[pid] = i
	}
	imports := map[tuple.ProcessID]map[tuple.ID]bool{}
	for _, pid := range pids {
		imports[pid] = map[tuple.ID]bool{}
		for _, inst := range rs.window(rs.members[pid], nil) {
			imports[pid][inst.ID] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range pids {
			for _, q := range pids {
				if group[p] == group[q] {
					continue
				}
				for id := range imports[p] {
					if imports[q][id] {
						from, to := group[q], group[p]
						for pid, g := range group {
							if g == from {
								group[pid] = to
							}
						}
						changed = true
						break
					}
				}
			}
		}
	}
	byGroup := map[int][]tuple.ProcessID{}
	for _, pid := range pids {
		byGroup[group[pid]] = append(byGroup[group[pid]], pid)
	}
	var out [][]tuple.ProcessID
	for _, g := range byGroup {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// fire executes every consensus set that is ready, repeatedly, and returns
// the sets fired in order.
func (rs *refSociety) fire(t *testing.T) (fired [][]tuple.ProcessID) {
	for again := true; again; {
		again = false
		for _, set := range rs.communities() {
			if rs.tryFire(t, set) {
				fired = append(fired, set)
				again = true
				break // the dataspace changed: re-derive the partition
			}
		}
	}
	return fired
}

func (rs *refSociety) tryFire(t *testing.T, set []tuple.ProcessID) bool {
	for _, pid := range set {
		if rs.offers[pid] == nil {
			return false
		}
	}
	hidden := map[tuple.ID]bool{}
	var deleted, inserted []dataspace.Instance
	for _, pid := range set {
		mem := rs.members[pid]
		matched := false
		for _, req := range rs.offers[pid] {
			reqMem := refMember{v: req.View, env: expr.EnvOf(req.Env)}
			sol, found, err := pattern.Solve(req.Query, refSource{rs.window(reqMem, hidden)}, req.Env)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				continue
			}
			matched = true
			for _, mt := range sol.Matched {
				if mt.Retract {
					hidden[mt.ID] = true
					deleted = append(deleted, dataspace.Instance{ID: mt.ID, Tuple: mt.Tuple})
				}
			}
			for _, ap := range req.Asserts {
				tup, err := ap.Ground(sol.Env)
				if err != nil {
					t.Fatal(err)
				}
				if mem.v.Export.Admits(nil, sol.Env, tup) {
					inserted = append(inserted, dataspace.Instance{Tuple: tup, Owner: pid})
				}
			}
			break
		}
		if !matched {
			return false
		}
	}
	for _, del := range deleted {
		if err := rs.model.ApplyEffects([]dataspace.Instance{del}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, ins := range inserted {
		rs.model.Assert(ins.Owner, ins.Tuple)
	}
	for _, pid := range set {
		delete(rs.offers, pid)
	}
	return true
}

// diffView draws one of the import shapes the gate treats differently. env
// is the registration environment: nil except for the parameterized import,
// whose bucket it names.
func diffView(r *rand.Rand) (v view.View, env expr.Env, regions []tuple.Value, name string) {
	region := func() tuple.Value { return diffRegions[r.Intn(len(diffRegions))] }
	whole := func(reg tuple.Value) view.Matcher {
		return view.Pat(pattern.P(pattern.C(reg), pattern.W(), pattern.W()))
	}
	switch r.Intn(11) {
	case 0:
		return view.Universal(), nil, diffRegions, "universal"
	case 1: // unbounded, not universal: admits by a non-lead field
		return view.New(view.Union(view.Pat(pattern.P(pattern.W(), pattern.C(tuple.Int(1)), pattern.W()))), view.Everything()), nil, diffRegions, "unbounded"
	case 2, 3: // part of a bucket
		reg, k := region(), tuple.Int(int64(1+r.Intn(2)))
		return view.New(view.Union(view.Pat(pattern.P(pattern.C(reg), pattern.C(k), pattern.W()))), view.Everything()),
			nil, []tuple.Value{reg}, fmt.Sprintf("partial<%s,%s,*>", reg, k)
	case 4, 5, 6: // two whole buckets: chains communities
		a, b := region(), region()
		return view.New(view.Union(whole(a), whole(b)), view.Everything()), nil, []tuple.Value{a, b}, fmt.Sprintf("complete<%s|%s>", a, b)
	case 7: // a whole bucket named by a parameter: the shape depends on the env
		a := region()
		return view.New(view.Union(view.Pat(pattern.P(pattern.V("x"), pattern.W(), pattern.W()))), view.Everything()),
			expr.Env{"x": a}, []tuple.Value{a}, fmt.Sprintf("param<x=%s>", a)
	default:
		a := region()
		return view.New(view.Union(whole(a)), view.Everything()), nil, []tuple.Value{a}, fmt.Sprintf("complete<%s>", a)
	}
}

// diffOffer draws an offer for pid over the regions its view imports: one or
// two alternatives among a plain read, a query only a later assertion
// satisfies, and a retraction with an assertion into the out bucket. Under
// a parameterized import (env non-nil) the queries lead with the parameter,
// and an alternative may rebind it — as a process does with let — so that it
// reads a bucket other than the one the member registered with.
func diffOffer(r *rand.Rand, pid tuple.ProcessID, v view.View, env expr.Env, regions []tuple.Value) []txn.Request {
	alt := func() txn.Request {
		req := txn.Request{Proc: pid, View: v, Env: env}
		reg := pattern.C(regions[r.Intn(len(regions))])
		if env != nil {
			reg = pattern.V("x")
			if r.Intn(2) == 0 {
				req.Env = expr.Env{"x": diffRegions[r.Intn(len(diffRegions))]}
			}
		}
		k := pattern.C(tuple.Int(int64(1 + r.Intn(2))))
		switch r.Intn(5) {
		case 0:
			req.Query = pattern.Q(pattern.P(reg, pattern.V("k"), pattern.V("v")))
		case 4:
			// A lead-free negation walks every bucket the import names: one
			// counterexample in any of them must sink the offer.
			req.Query = pattern.Q(pattern.P(reg, pattern.V("k"), pattern.V("v")),
				pattern.N(pattern.W(), k, pattern.C(diffGo)))
		case 1:
			req.Query = pattern.Q(pattern.P(reg, k, pattern.C(diffGo)))
		case 2:
			// The retracted value is a constant: ∃ may pick any matching
			// instance, and all of them have the same content.
			v := pattern.C(tuple.Int(int64(r.Intn(3))))
			req.Query = pattern.Q(pattern.R(reg, k, v))
			req.Asserts = []pattern.Pattern{pattern.P(pattern.C(diffOut), pattern.C(tuple.Int(int64(pid))), v)}
		default:
			req.Query = pattern.Q(pattern.P(pattern.V("r"), k, pattern.V("v")))
		}
		return req
	}
	if r.Intn(4) == 0 {
		return []txn.Request{alt(), alt()}
	}
	return []txn.Request{alt()}
}

func TestGateMatchesEvaluateEverywhereReference(t *testing.T) {
	const societies, events = 250, 80
	fires, multi := 0, 0
	for seed := int64(1); seed <= societies; seed++ {
		r := rand.New(rand.NewSource(seed))
		store := dataspace.New(dataspace.WithShards(1 << r.Intn(4)))
		engine := txn.New(store)
		log := trace.NewCommitLog()
		log.Attach(store)
		m := NewManager(engine)
		ref := &refSociety{members: map[tuple.ProcessID]refMember{}, offers: map[tuple.ProcessID][]txn.Request{}}
		pending := map[tuple.ProcessID]*Offer{}
		views := map[tuple.ProcessID]view.View{}
		envs := map[tuple.ProcessID]expr.Env{}
		regions := map[tuple.ProcessID][]tuple.Value{}
		var trail []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d after %d events: %s\nevents:\n  %s", seed, len(trail), fmt.Sprintf(format, args...), joinLines(trail))
		}

		pick := func(from map[tuple.ProcessID]view.View) (tuple.ProcessID, bool) {
			var pids []tuple.ProcessID
			for pid := range from {
				pids = append(pids, pid)
			}
			if len(pids) == 0 {
				return 0, false
			}
			sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
			return pids[r.Intn(len(pids))], true
		}
		assert := func(tup tuple.Tuple) {
			store.Assert(tuple.Environment, tup)
			ref.model.Assert(tuple.Environment, tup)
		}
		// check compares the gate with the reference after one commit or
		// other event: the gate's event ran the attempts it owed, so both
		// must have fired the same sets since the last check, and hold the
		// same dataspace.
		firesSeen := uint64(0)
		check := func() {
			t.Helper()
			want := ref.fire(t)
			for _, set := range want {
				fires++
				if len(set) > 1 {
					multi++
				}
			}
			var wantPIDs, gotPIDs []tuple.ProcessID
			for _, set := range want {
				wantPIDs = append(wantPIDs, set...)
			}
			for pid, o := range pending {
				select {
				case <-o.Done():
					if res, err := o.Result(); err != nil || !res.OK {
						fail("offer %d resolved with res=%+v err=%v", pid, res, err)
					}
					gotPIDs = append(gotPIDs, pid)
					delete(pending, pid)
				default:
				}
			}
			sort.Slice(wantPIDs, func(i, j int) bool { return wantPIDs[i] < wantPIDs[j] })
			sort.Slice(gotPIDs, func(i, j int) bool { return gotPIDs[i] < gotPIDs[j] })
			if fmt.Sprint(gotPIDs) != fmt.Sprint(wantPIDs) {
				fail("fired members %v, reference fired %v (sets %v)", gotPIDs, wantPIDs, want)
			}
			if got := int(m.Fires() - firesSeen); got != len(want) {
				fail("%d fires for members %v, reference fired the sets %v", got, gotPIDs, want)
			}
			firesSeen = m.Fires()
			if !refmodel.SameContent(&ref.model, store) {
				fail("dataspace diverged from the reference after firing %v", want)
			}
		}
		// retractRegion retracts one instance of the region, or all of them
		// one commit each, checking after every commit: a set can fire
		// between two of them.
		retractRegion := func(reg tuple.Value, all bool) {
			for {
				var inst dataspace.Instance
				found := false
				for _, in := range store.All() {
					if in.Tuple.Field(0).Equal(reg) {
						inst, found = in, true
						break
					}
				}
				if !found {
					return
				}
				if err := store.Update(tuple.Environment, func(w dataspace.Writer) error { return w.Delete(inst.ID) }); err != nil {
					t.Fatal(err)
				}
				// The reference deletes one instance of equal content.
				for _, ri := range ref.model.All() {
					if ri.Tuple.Equal(inst.Tuple) {
						if err := ref.model.ApplyEffects([]dataspace.Instance{{ID: ri.ID, Tuple: ri.Tuple}}, nil); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				check()
				if !all {
					return
				}
			}
		}

		var nextPID tuple.ProcessID
		for ev := 0; ev < events; ev++ {
			switch op := r.Intn(16); {
			case len(views) < 3 || (op == 0 && len(views) < 7):
				nextPID++
				v, env, regs, name := diffView(r)
				views[nextPID], envs[nextPID], regions[nextPID] = v, env, regs
				m.Register(nextPID, v, env)
				ref.members[nextPID] = refMember{v: v, env: env}
				trail = append(trail, fmt.Sprintf("register %d %s", nextPID, name))
			case op == 1:
				pid, _ := pick(views)
				delete(views, pid)
				delete(pending, pid)
				m.Unregister(pid)
				delete(ref.members, pid)
				delete(ref.offers, pid)
				trail = append(trail, fmt.Sprintf("unregister %d", pid))
			case op < 8:
				pid, _ := pick(views)
				if pending[pid] != nil {
					continue
				}
				reqs := diffOffer(r, pid, views[pid], envs[pid], regions[pid])
				o, err := m.StartOfferAlts(reqs)
				if err != nil {
					t.Fatal(err)
				}
				pending[pid] = o
				ref.offers[pid] = reqs
				trail = append(trail, fmt.Sprintf("offer %d %v env %v", pid, reqs[0].Query, reqs[0].Env))
			case op == 8:
				pid, _ := pick(views)
				if o := pending[pid]; o != nil {
					if !o.Withdraw() {
						fail("withdraw of pending offer %d refused", pid)
					}
					delete(pending, pid)
					delete(ref.offers, pid)
					trail = append(trail, fmt.Sprintf("withdraw %d", pid))
				}
			case op < 14:
				tup := tuple.New(diffRegions[r.Intn(len(diffRegions))], tuple.Int(int64(1+r.Intn(2))), tuple.Int(int64(r.Intn(3))))
				if r.Intn(3) == 0 {
					tup = tuple.New(tup.Field(0), tup.Field(1), diffGo)
				}
				assert(tup)
				trail = append(trail, fmt.Sprintf("assert %s", tup))
			case op == 14:
				reg := diffRegions[r.Intn(len(diffRegions))]
				trail = append(trail, fmt.Sprintf("retract one of %s", reg))
				retractRegion(reg, false)
			default:
				reg := diffRegions[r.Intn(len(diffRegions))]
				trail = append(trail, fmt.Sprintf("empty %s", reg))
				retractRegion(reg, true)
			}
			check()

		}
		replayed, err := refmodel.Replay(log.Commits())
		if err != nil {
			fail("commit log does not replay: %v", err)
		}
		if !refmodel.SameContent(replayed, store) {
			fail("replayed commit log diverges from the store")
		}
		m.Close()
	}
	// The comparison is only worth something if sets actually fire, and not
	// just singletons.
	if fires < societies || multi < societies/4 {
		t.Errorf("only %d fires (%d of several members) over %d societies: the generator exercises too little", fires, multi, societies)
	}
	t.Logf("%d fires, %d of them multi-member", fires, multi)
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// An offer evaluated under an Env other than the one its member registered
// with — a process that rebinds, with let, the variable its import leads
// with — reads a bucket the registration never named. The gate must lock
// and watch that bucket all the same: the offer fires on a tuple already
// there, and on one asserted after a failed attempt.
func TestOfferUnderRebindingEnvFires(t *testing.T) {
	store := dataspace.New(dataspace.WithShards(16))
	m := NewManager(txn.New(store))
	defer m.Close()
	v := view.New(view.Union(view.Pat(pattern.P(pattern.V("x"), pattern.W()))), view.Everything())
	query := pattern.Q(pattern.P(pattern.V("x"), pattern.V("n")))
	fired := func(o *Offer) bool {
		select {
		case <-o.Done():
			return true
		default:
			return false
		}
	}
	m.Register(1, v, expr.Env{"x": tuple.Atom("a")})

	store.Assert(tuple.Environment, tuple.New(tuple.Atom("b"), tuple.Int(1)))
	o, err := m.StartOffer(txn.Request{Proc: 1, View: v, Env: expr.Env{"x": tuple.Atom("b")}, Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if !fired(o) {
		t.Fatal("offer under x=b did not fire on <b,1>: its bucket is outside the registered shape and was not locked")
	}

	for _, lead := range []string{"c", "d", "e", "f"} {
		o, err = m.StartOffer(txn.Request{Proc: 1, View: v, Env: expr.Env{"x": tuple.Atom(lead)}, Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if fired(o) {
			t.Fatalf("offer under x=%s fired on an empty bucket", lead)
		}
		store.Assert(tuple.Environment, tuple.New(tuple.Atom(lead), tuple.Int(1)))
		if !fired(o) {
			t.Fatalf("offer under x=%s did not fire after <%s,1> was asserted: the commit did not re-dirty its set", lead, lead)
		}
	}
}
