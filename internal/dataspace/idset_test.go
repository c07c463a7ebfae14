package dataspace

import (
	"math/rand"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// runIDSetScript drives an idIndex bucket and a plain map[ID]struct{} with
// the same edits and compares them after every step. Each script byte is
// one operation on an ID drawn from 1..64 — enough distinct IDs to cross
// the inline, slice and map forms in both directions:
//
//	00iiiiii, 01iiiiii  add (re-adding a member, and re-adding a removed ID
//	                    as writer.rollback does, included)
//	10iiiiii            remove (absent IDs included)
//	11iiiiii            iterate, stopping after i members
func runIDSetScript(t testing.TB, script []byte) {
	t.Helper()
	var k leadKey
	ix := make(idIndex)
	ref := make(map[tuple.ID]struct{})
	for step, b := range script {
		id := tuple.ID(1 + b&63)
		switch b >> 6 {
		case 0, 1:
			_, had := ref[id]
			ref[id] = struct{}{}
			if got := ix.add(k, id); got == had {
				t.Fatalf("step %d: add(%d) = %v with membership %v", step, id, got, had)
			}
		case 2:
			_, had := ref[id]
			delete(ref, id)
			if got := ix.remove(k, id); got != had {
				t.Fatalf("step %d: remove(%d) = %v with membership %v", step, id, got, had)
			}
		case 3:
			limit, seen := int(b&63), 0
			done := ix[k].each(func(tuple.ID) bool {
				seen++
				return seen < limit
			})
			want := min(max(limit, 1), len(ref))
			if seen != want || done != (len(ref) == 0 || seen < limit) {
				t.Fatalf("step %d: early-stop iteration visited %d of %d (limit %d, done=%v)", step, seen, len(ref), limit, done)
			}
		}

		set, present := ix[k]
		if present != (len(ref) > 0) {
			t.Fatalf("step %d: bucket slot present=%v with %d members", step, present, len(ref))
		}
		if set.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, set.len(), len(ref))
		}
		visited := make(map[tuple.ID]struct{}, len(ref))
		set.each(func(id tuple.ID) bool {
			if _, dup := visited[id]; dup {
				t.Fatalf("step %d: iteration delivered %d twice", step, id)
			}
			visited[id] = struct{}{}
			return true
		})
		for id := tuple.ID(0); id <= 65; id++ {
			_, want := ref[id]
			if _, got := visited[id]; got != want {
				t.Fatalf("step %d: iteration membership of %d = %v, want %v", step, id, got, want)
			}
		}
		if sp := set.spill; sp != nil && sp.m != nil && len(sp.ids) != 0 {
			t.Fatalf("step %d: spill holds a slice and a map at once", step)
		}
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
// read-modify-write (applyBuffered inserts the new instance before it
// deletes the old) stays in the inline slots, and a bucket hovering between
// two and three members reuses the spill it already has.
func TestIDSetSmallExcursionsDoNotAllocate(t *testing.T) {
	k := canonLead(tuple.Int(7))
	ix := make(idIndex)
	ix.add(k, 1)
	next := tuple.ID(2)
	if n := testing.AllocsPerRun(100, func() {
		ix.add(k, next)
		ix.remove(k, next-1)
		next++
	}); n != 0 {
		t.Errorf("1 -> 2 -> 1 allocates %v times per round, want 0", n)
	}
	ix.add(k, next)
	ix.add(k, next+1) // first spill
	next += 2
	if n := testing.AllocsPerRun(100, func() {
		ix.remove(k, next-1)
		ix.add(k, next)
		next++
	}); n != 0 {
		t.Errorf("3 -> 2 -> 3 allocates %v times per round, want 0", n)
	}
}

func TestIDSetRejectsNoID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("filing NoID must panic: it marks a vacant slot")
		}
	}()
	make(idIndex).add(leadKey{}, tuple.NoID)
}
