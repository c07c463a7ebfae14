package workloads

import (
	"reflect"
	"testing"

	"github.com/sdl-lang/sdl/perf/harness"
)

// The same seed must yield the same operation sequence, a different seed a
// different one, and different windows and clients different sequences.
func TestOpSequencesAreAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed uint64) (keys []int32, ops []joinOp, src round) {
		u := &Upsert{seed: seed, sc: Tiny}
		j := newJoin("mixed-rw", seed, Tiny, 10, false)
		s := &Society{seed: seed, sc: Tiny}
		s.Prepare(3)
		return u.keys(3, 1, 500), j.ops(3, 1, 500), s.prepared[0]
	}
	k1, o1, s1 := gen(1)
	k1b, o1b, s1b := gen(1)
	k2, o2, s2 := gen(2)
	if !reflect.DeepEqual(k1, k1b) || !reflect.DeepEqual(o1, o1b) || !reflect.DeepEqual(s1, s1b) {
		t.Fatal("the same seed produced different inputs")
	}
	if reflect.DeepEqual(k1, k2) || reflect.DeepEqual(o1, o2) || reflect.DeepEqual(s1, s2) {
		t.Fatal("different seeds produced the same inputs")
	}
	u := &Upsert{seed: 1, sc: Tiny}
	if reflect.DeepEqual(u.keys(3, 1, 500), u.keys(4, 1, 500)) || reflect.DeepEqual(u.keys(3, 0, 500), u.keys(3, 1, 500)) {
		t.Fatal("windows or clients share an operation sequence")
	}
}

// The stationarity guard must trip on a workload that is known not to be
// stationary: inserting into Zipf-hot groups makes every window's reads
// slower than the last.
func TestInsertOnlyMixedTripsTheDriftFlag(t *testing.T) {
	sc := Tiny
	sc.MixedOps = 1500
	ref, err := harness.NewReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rep, err := harness.Run(NewInsertOnlyMixed(1, sc), harness.Config{Seed: 1, Seconds: 0, MinWindows: 7, Setups: 1, Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("insert-only run: correct=%v failed=%d: %s", rep.Correct, rep.Failed, rep.CheckError)
	}
	if !rep.Unstable {
		t.Fatalf("drift %.3f did not mark the insert-only run unstable (limit %.2f)", rep.Drift, harness.DriftLimit)
	}
}
