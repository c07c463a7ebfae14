package dataspace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// keyedSlab returns a slab of n slots after the reserved slot 0, whose slot
// s holds instance #s with tuple of(s).
func keyedSlab(n int, of func(slot int) tuple.Tuple) []Instance {
	slab := make([]Instance, n+1)
	for s := 1; s <= n; s++ {
		slab[s] = Instance{ID: tuple.ID(s), Tuple: of(s), Owner: 1}
	}
	return slab
}

// runIDSetScript drives an idIndex bucket and a plain map[uint32]struct{}
// with the same edits and compares them after every step. Each script byte
// is one operation on a slot drawn from 1..64, every one holding a tuple of
// the one key — enough distinct slots to cross the inline, slice and map
// forms in both directions:
//
//	00iiiiii, 01iiiiii  add (re-adding a member, and re-adding a removed
//	                    slot as a refilled slab slot does, included)
//	10iiiiii            remove (absent slots included)
//	11iiiiii            iterate, stopping after i members
func runIDSetScript(t testing.TB, script []byte) {
	t.Helper()
	k := canonLead(tuple.Int(7))
	slab := keyedSlab(64, func(int) tuple.Tuple { return tuple.New(tuple.Int(7)) })
	ix := idIndex{arity: 1}
	peak := 0
	ref := make(map[uint32]struct{})
	for step, b := range script {
		id := uint32(1 + b&63)
		switch b >> 6 {
		case 0, 1:
			_, had := ref[id]
			ref[id] = struct{}{}
			if got := ix.add(slab, id); got == had {
				t.Fatalf("step %d: add(%d) = %v with membership %v", step, id, got, had)
			}
		case 2:
			_, had := ref[id]
			delete(ref, id)
			if got := ix.remove(slab, id); got != had {
				t.Fatalf("step %d: remove(%d) = %v with membership %v", step, id, got, had)
			}
		case 3:
			limit, seen := int(b&63), 0
			done := ix.get(slab, k).each(func(uint32) bool {
				seen++
				return seen < limit
			})
			want := min(max(limit, 1), len(ref))
			if seen != want || done != (len(ref) == 0 || seen < limit) {
				t.Fatalf("step %d: early-stop iteration visited %d of %d (limit %d, done=%v)", step, seen, len(ref), limit, done)
			}
		}

		set := ix.get(slab, k)
		if present := ix.len() == 1; present != (len(ref) > 0) {
			t.Fatalf("step %d: bucket slot present=%v with %d members", step, present, len(ref))
		}
		if set.len() != len(ref) || (len(ref) > 0 && set.a == 0) {
			t.Fatalf("step %d: len = %d, want %d, with a member in a (%d)", step, set.len(), len(ref), set.a)
		}
		visited := make(map[uint32]struct{}, len(ref))
		set.each(func(id uint32) bool {
			if _, dup := visited[id]; dup {
				t.Fatalf("step %d: iteration delivered %d twice", step, id)
			}
			visited[id] = struct{}{}
			return true
		})
		for id := uint32(0); id <= 65; id++ {
			_, want := ref[id]
			if _, got := visited[id]; got != want {
				t.Fatalf("step %d: iteration membership of %d = %v, want %v", step, id, got, want)
			}
		}
		if sp := set.spill(); sp != nil && sp.m != nil && len(sp.slots) != 0 {
			t.Fatalf("step %d: spill holds a slice and a map at once", step)
		}
		checkSpillSlab(t, step, &ix, &peak)
	}
}

// checkSpillSlab checks an index's spill slab against its sets after one
// step: every spilled set owns a cell no other set owns and the free list
// does not hold, every other cell is on the free list once, empty and
// keeping no more than a first spill's two-slot slice, and the slab holds
// no more cells than the most sets spilled at once (*peak, raised here to
// the current count).
func checkSpillSlab(t testing.TB, step int, ix *idIndex, peak *int) {
	t.Helper()
	owned := make(map[int]bool)
	ix.each(func(set idView) bool {
		if cell, ok := set.cell(); ok {
			if owned[cell] {
				t.Fatalf("step %d: spill cell %d is owned twice (again by %+v)", step, cell, set.idSet)
			}
			owned[cell] = true
		}
		return true
	})
	*peak = max(*peak, len(owned))
	sl := ix.spill
	if sl == nil {
		return
	}
	if len(sl.spills) > *peak {
		t.Fatalf("step %d: the slab holds %d cells, but at most %d sets were spilled at once", step, len(sl.spills), *peak)
	}
	if len(sl.spills) != len(owned)+len(sl.free) {
		t.Fatalf("step %d: %d cells, %d owned and %d free", step, len(sl.spills), len(owned), len(sl.free))
	}
	for _, cell := range sl.free {
		if owned[cell] {
			t.Fatalf("step %d: cell %d is free and owned (or freed twice)", step, cell)
		}
		if sp := &sl.spills[cell]; sp.len() != 0 || sp.m != nil || cap(sp.slots) > 2 {
			t.Fatalf("step %d: free cell %d still holds %d slots, a map (%t) or a %d-slot slice", step, cell, sp.len(), sp.m != nil, cap(sp.slots))
		}
		owned[cell] = true
	}
}

// TestIDSetDifferential crosses every representation threshold in both
// directions: a ramp up past wideLeadBucket and back down to empty, twice
// (the second pass re-adds removed IDs), then random walks biased to grow,
// to shrink, and to hover.
func TestIDSetDifferential(t *testing.T) {
	var ramp []byte
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 40; i++ {
			ramp = append(ramp, byte(i), 0xC0|byte(i))
		}
		for i := 39; i >= 0; i-- {
			ramp = append(ramp, 0x80|byte(i), 0x80|byte(i), 0xC3)
		}
	}
	runIDSetScript(t, ramp)

	r := rand.New(rand.NewSource(testSeed(18)))
	for _, addBias := range []int{80, 20, 50} {
		script := make([]byte, 4000)
		for i := range script {
			id := byte(r.Intn(64))
			switch roll := r.Intn(100); {
			case roll < 10:
				script[i] = 0xC0 | id
			case roll < 10+addBias*9/10:
				script[i] = id
			default:
				script[i] = 0x80 | id
			}
		}
		runIDSetScript(t, script)
	}
}

func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 0x81, 0x82})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 0xC5, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x8B, 0x8C, 0x8D, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		runIDSetScript(t, script)
	})
}

// TestIDSetSmallExcursionsDoNotAllocate: the 1 → 2 → 1 walk of a
// read-modify-write that inserts before it deletes (the shard-path writer
// in that order) stays in the inline words, a bucket hovering between two
// and three members reuses the spill it already has, and one that spills
// and empties over and over reuses its freed cell.
func TestIDSetSmallExcursionsDoNotAllocate(t *testing.T) {
	seven, eight := tuple.New(tuple.Int(7)), tuple.New(tuple.Int(8))
	slab := keyedSlab(1024, func(int) tuple.Tuple { return seven })
	ix := idIndex{arity: 1}
	ix.add(slab, 1)
	next := uint32(2)
	if n := testing.AllocsPerRun(100, func() {
		ix.add(slab, next)
		ix.remove(slab, next-1)
		next++
	}); n != 0 {
		t.Errorf("1 -> 2 -> 1 allocates %v times per round, want 0", n)
	}
	ix.add(slab, next)
	ix.add(slab, next+1) // first spill
	next += 2
	if n := testing.AllocsPerRun(100, func() {
		ix.remove(slab, next-1)
		ix.add(slab, next)
		next++
	}); n != 0 {
		t.Errorf("3 -> 2 -> 3 allocates %v times per round, want 0", n)
	}
	for s := int(next); s < len(slab); s++ {
		slab[s].Tuple = eight
	}
	if n := testing.AllocsPerRun(100, func() {
		for id := next; id < next+3; id++ {
			ix.add(slab, id)
		}
		for id := next; id < next+3; id++ {
			ix.remove(slab, id)
		}
		next += 3
	}); n != 0 {
		t.Errorf("0 -> 3 -> 0 allocates %v times per round, want 0", n)
	}
	if got := len(ix.spill.spills); got != 2 {
		t.Errorf("two sets spilled at once left %d slab cells, want 2", got)
	}
}

// TestIDIndexSpillSlots walks one spill slab through a cell's lifecycle:
// sets that cross 2 → 3 take a cell each, a set back at two members keeps
// its own, a set that empties frees it, the next set to spill takes the
// freed cell instead of growing the slab, and a set that crosses
// wideLeadBucket into a map and drains to empty frees its cell and drops
// its spill's memory.
func TestIDIndexSpillSlots(t *testing.T) {
	ix := idIndex{arity: 1}
	// Slots 1-9 hold lead 1, 10-59 lead b, 60 on lead 3.
	keys := []leadKey{canonLead(tuple.Int(1)), canonLead(tuple.Atom("b")), canonLead(tuple.Int(3))}
	slab := keyedSlab(64, func(s int) tuple.Tuple {
		switch {
		case s < 10:
			return tuple.New(tuple.Int(1))
		case s < 60:
			return tuple.New(tuple.Atom("b"))
		}
		return tuple.New(tuple.Int(3))
	})
	fill := func(from, to uint32) {
		for id := from; id < to; id++ {
			ix.add(slab, id)
		}
	}
	drain := func(from, to uint32) {
		for id := from; id < to; id++ {
			ix.remove(slab, id)
		}
	}
	cellOf := func(k leadKey) int {
		t.Helper()
		cell, ok := ix.get(slab, k).cell()
		if !ok {
			t.Fatalf("%v holds %d members and no spill cell", k, ix.get(slab, k).len())
		}
		return cell
	}
	fill(1, 3)
	if ix.spill != nil {
		t.Fatal("a two-member set made a slab")
	}
	fill(3, 4)
	fill(11, 14)
	a, b := cellOf(keys[0]), cellOf(keys[1])
	if a == b || len(ix.spill.spills) != 2 {
		t.Fatalf("two spilled sets share cell %d / %d of %d", a, b, len(ix.spill.spills))
	}
	drain(1, 2)
	if cellOf(keys[0]) != a || len(ix.spill.free) != 0 {
		t.Fatal("a set back at two members gave up its cell")
	}
	drain(2, 4)
	if ix.get(slab, keys[0]).len() != 0 || len(ix.spill.free) != 1 || ix.spill.free[0] != a {
		t.Fatalf("an emptied set did not free cell %d: free %v", a, ix.spill.free)
	}
	fill(61, 64)
	if cellOf(keys[2]) != a || len(ix.spill.spills) != 2 || len(ix.spill.free) != 0 {
		t.Fatalf("a new spill took cell %d of %d, want the freed %d", cellOf(keys[2]), len(ix.spill.spills), a)
	}
	fill(14, 14+2*wideLeadBucket)
	if sp := ix.get(slab, keys[1]).spill(); sp.m == nil || ix.get(slab, keys[1]).len() != 3+2*wideLeadBucket {
		t.Fatal("a set past wideLeadBucket did not turn its spill into a map")
	}
	drain(11, 14+2*wideLeadBucket)
	if sp := &ix.spill.spills[b]; ix.len() != 1 || sp.m != nil || sp.slots != nil || len(ix.spill.free) != 1 || ix.spill.free[0] != b {
		t.Fatalf("a drained map-form set did not free cell %d and drop its spill: free %v", b, ix.spill.free)
	}
}

// TestIDSetRejectsNoID: slot 0, reserved in every shard slab, marks a
// vacant word of a set, and a slot carrying the spill tag would read as a
// spill cell; filing either panics.
func TestIDSetRejectsNoID(t *testing.T) {
	for _, slot := range []uint32{0, spillTag, spillTag | 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("filing slot %#x did not panic", slot)
				}
			}()
			new(idIndex).add(make([]Instance, 1), slot)
		}()
	}
}

// idIndexLeads is a mixed-class pool of the values a lead index files
// under: numbers (a NaN and an infinity among them), atoms and strings with
// equal text, both bools and the other class. idIndexTuple makes a 1-field
// tuple of each, and past the pool's end the empty tuple, which files under
// the arity-0 zero key.
var idIndexLeads = []tuple.Value{
	tuple.Int(2), tuple.Float(2.5), tuple.Float(math.NaN()),
	tuple.Int(0), tuple.Int(-1), tuple.Float(math.Inf(1)),
	tuple.Atom("x"), tuple.Atom(""), tuple.Atom("y"),
	tuple.String("x"), tuple.String(""),
	tuple.Bool(true), tuple.Bool(false),
	{}, tuple.Int(1),
}

// idIndexTuple returns the tuple key k of the pool names.
func idIndexTuple(k int) tuple.Tuple {
	if k >= len(idIndexLeads) {
		return tuple.New()
	}
	return tuple.New(idIndexLeads[k])
}

// runIDIndexScript drives the lead indexes of arities 0 and 1 and a Go-map
// model — key → set of slots — with the same edits and compares every
// bucket, the bucket count, a full walk and the tables' invariants after
// each step. The slab holds 32 slots; a slot takes the tuple of the key it
// is filed under, and keeps it while unfiled, as a slot does between
// vacate's unfiling and its clearing. Each operation is two script bytes,
// an op and key byte then a slot byte:
//
//	00..kkkk, 01..kkkk  file slot 1 + (next byte & 31) under key k, unless
//	                    it is filed already (under any key)
//	10......            unfile it
//	11......            walk the arity-1 buckets, stopping after
//	                    (next byte & 63)
func runIDIndexScript(t testing.TB, script []byte) {
	t.Helper()
	slab := keyedSlab(32, func(int) tuple.Tuple { return idIndexTuple(0) })
	ixs := [2]idIndex{{arity: 0}, {arity: 1}}
	ixOf := func(slot uint32) *idIndex { return &ixs[slab[slot].Tuple.Arity()] }
	peaks := [2]int{}
	ref := make(map[leadKey]map[uint32]struct{})
	filed := make(map[uint32]leadKey)
	for step := 0; step+1 < len(script); step += 2 {
		op, id := script[step]>>6, uint32(1+script[step+1]&31)
		k, had := filed[id]
		switch op {
		case 0, 1:
			if !had {
				slab[id].Tuple = idIndexTuple(int(script[step] & 15))
				k = leadOf(slab[id].Tuple)
				filed[id] = k
				if ref[k] == nil {
					ref[k] = make(map[uint32]struct{})
				}
				ref[k][id] = struct{}{}
			}
			if got := ixOf(id).add(slab, id); got == had {
				t.Fatalf("step %d: add(%v, %d) = %v with membership %v", step, k, id, got, had)
			}
		case 2:
			if had {
				delete(filed, id)
				if delete(ref[k], id); len(ref[k]) == 0 {
					delete(ref, k)
				}
			}
			if got := ixOf(id).remove(slab, id); got != had {
				t.Fatalf("step %d: remove(%v, %d) = %v with membership %v", step, k, id, got, had)
			}
		case 3:
			limit, seen := int(script[step+1]&63), 0
			done := ixs[1].each(func(idView) bool {
				seen++
				return seen < limit
			})
			buckets := len(ref)
			if _, ok := ref[leadKey{}]; ok {
				buckets--
			}
			if want := min(max(limit, 1), buckets); seen != want || done != (buckets == 0 || seen < limit) {
				t.Fatalf("step %d: early-stop walk visited %d of %d buckets (limit %d, done=%v)", step, seen, buckets, limit, done)
			}
		}

		if n := ixs[0].len() + ixs[1].len(); n != len(ref) {
			t.Fatalf("step %d: len() = %d, want %d live buckets", step, n, len(ref))
		}
		for kk := 0; kk <= len(idIndexLeads); kk++ {
			tup := idIndexTuple(kk)
			k := leadOf(tup)
			set := ixs[tup.Arity()].get(slab, k)
			if set.len() != len(ref[k]) {
				t.Fatalf("step %d: bucket %v holds %d, want %d", step, k, set.len(), len(ref[k]))
			}
			set.each(func(id uint32) bool {
				if _, ok := ref[k][id]; !ok {
					t.Fatalf("step %d: bucket %v holds %d, which was not filed there", step, k, id)
				}
				return true
			})
		}
		walked := make(map[leadKey]bool, len(ref))
		for a := range ixs {
			ix := &ixs[a]
			ix.each(func(set idView) bool {
				k := ix.keyOf(slab, set.idSet)
				if walked[k] || set.len() != len(ref[k]) {
					t.Fatalf("step %d: walk met %v (again: %v) holding %d, want %d", step, k, walked[k], set.len(), len(ref[k]))
				}
				walked[k] = true
				return true
			})
			checkIndexTable(t, slab, ix)
			checkSpillSlab(t, step, ix, &peaks[a])
		}
	}
}

func FuzzIDIndex(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0x80, 1, 0xC0, 5, 0x81, 1, 0x82, 1})
	var ramp []byte
	for i := byte(0); i < 32; i++ {
		ramp = append(ramp, i&15, i, 2, i, 0xC0, i)
	}
	for i := byte(0); i < 32; i++ {
		ramp = append(ramp, 0x80|i&15, i, 0x82, i)
	}
	f.Add(ramp)
	// Four sets cross 2 -> 3 together, empty in turn and spill again, so
	// freed slots are reused while others are held.
	var slots []byte
	for round := byte(0); round < 2; round++ {
		for id := byte(0); id < 3; id++ {
			for k := byte(0); k < 4; k++ {
				slots = append(slots, k, id+4*round)
			}
		}
		for k := byte(0); k < 4; k++ {
			for id := byte(0); id < 3; id++ {
				slots = append(slots, 0x80|k, id+4*round)
			}
			slots = append(slots, 4+k, 9, 4+k, 10, 4+k, 11)
		}
	}
	f.Add(slots)
	f.Fuzz(func(t *testing.T, script []byte) {
		runIDIndexScript(t, script)
	})
}

// TestIDIndexValueClasses: the lead index and a hot secondary shape file a
// value in its class's map under its canonical key, so Equal numbers share
// a bucket across int and float and across the zeros, a NaN bucket is
// reachable, equal text in an atom and a string stays apart, and the bucket
// counts the planner divides by are exact as buckets empty.
func TestIDIndexValueClasses(t *testing.T) {
	groups := [][]tuple.Value{ // each group is one bucket
		{tuple.Int(2), tuple.Float(2)},
		{tuple.Float(math.Copysign(0, -1)), tuple.Float(0), tuple.Int(0)},
		{tuple.Float(math.NaN())},
		{tuple.Atom("x")},
		{tuple.String("x")},
		{tuple.Bool(true)},
		{tuple.Int(1)},
	}
	s := New(WithShards(1))
	sh := s.shards[0]
	st := sh.secShape(2, 1)
	st.state.Store(shapeHot)
	sh.sec.hot.Add(1)
	idx := sh.shapeIndex(st, 2, 1) // built empty, then maintained by every commit

	// <v, v> files v under the lead index and under the (2, 1) shape.
	ids := make([][]tuple.ID, len(groups))
	for g, vals := range groups {
		for _, v := range vals {
			ids[g] = append(ids[g], s.Assert(tuple.Environment, tuple.New(v, v))...)
		}
	}
	empty := s.Assert(tuple.Environment, tuple.New())[0]

	check := func(when string) {
		t.Helper()
		if st.idx.Load() != idx || idx.seq != sh.seq.Load() {
			t.Fatalf("%s: the shape index was rebuilt or went stale instead of being maintained", when)
		}
		live := 0
		for g, vals := range groups {
			if len(ids[g]) > 0 {
				live++
			}
			for _, v := range vals {
				k := canonLead(v)
				for name, set := range map[string]idView{"lead": sh.leadSet(2, k), "shape": idx.buckets.get(sh.slab, k)} {
					got := map[tuple.ID]bool{}
					set.each(func(slot uint32) bool { got[sh.slab[slot].ID] = true; return true })
					if len(got) != len(ids[g]) || set.len() != len(ids[g]) {
						t.Fatalf("%s: %s bucket of %v holds %v, want %v", when, name, v, got, ids[g])
					}
					for _, id := range ids[g] {
						if !got[id] {
							t.Fatalf("%s: %s bucket of %v misses %d: %v", when, name, v, id, got)
						}
					}
				}
			}
		}
		leads := 0
		if ai := sh.byArity[2]; ai != nil {
			leads = ai.leads.len()
		}
		if leads != live || idx.buckets.len() != live {
			t.Fatalf("%s: %d lead and %d shape buckets, want %d", when, leads, idx.buckets.len(), live)
		}
		checkSlab(t, s)
	}

	check("loaded")
	if set := sh.leadSet(0, leadKey{}); set.len() != 1 || sh.slab[set.a].ID != empty || sh.byArity[0].leads.len() != 1 {
		t.Fatalf("the arity-0 tuple is not the one member of the zero-key bucket: %+v", set)
	}
	del := func(id tuple.ID) {
		t.Helper()
		if err := s.Update(tuple.Environment, func(w Writer) error { return w.Delete(id) }); err != nil {
			t.Fatal(err)
		}
	}
	del(empty)
	if sh.byArity[0] != nil {
		t.Fatal("the arity-0 index outlived its one tuple")
	}
	for round := 0; round < 3; round++ { // first members, then the rest
		for g := range groups {
			if len(ids[g]) == 0 {
				continue
			}
			del(ids[g][0])
			ids[g] = ids[g][1:]
			check(fmt.Sprintf("round %d, group %d deleted from", round, g))
		}
	}
	if sh.byArity[2] != nil {
		t.Fatal("the arity-2 lead index outlived its tuples")
	}
}
