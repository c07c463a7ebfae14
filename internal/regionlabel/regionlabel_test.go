package regionlabel

import (
	"context"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/workload"
)

const cut = 100

func newRT(t *testing.T) *process.Runtime {
	t.Helper()
	s := dataspace.New()
	rt := process.NewRuntime(txn.New(s), nil)
	t.Cleanup(func() {
		rt.Shutdown()
		rt.Consensus().Close()
	})
	return rt
}

func checkAgainstReference(t *testing.T, im *workload.Image, got []int64) {
	t.Helper()
	want := workload.ReferenceLabels(im, cut)
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("pixel %d: label %d, want %d", p, got[p], want[p])
		}
	}
}

func TestWorkerModelMatchesReference(t *testing.T) {
	for _, tc := range []struct{ w, h, blobs int }{
		{4, 4, 1},
		{8, 8, 2},
		{12, 12, 3},
	} {
		im := workload.GenImage(tc.w, tc.h, tc.blobs, int64(tc.w*tc.h))
		rt := newRT(t)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, err := RunWorker(ctx, rt, im, cut)
		cancel()
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.w, tc.h, err)
		}
		checkAgainstReference(t, im, res.Labels)
		if res.Regions != workload.RegionCount(workload.ReferenceLabels(im, cut)) {
			t.Errorf("%dx%d: regions = %d", tc.w, tc.h, res.Regions)
		}
		if res.FirstRegion != res.Total {
			t.Error("worker model has no early completion signal")
		}
	}
}

func TestWorkerModelUniformImage(t *testing.T) {
	im := &workload.Image{W: 4, H: 3, Pix: make([]int64, 12)}
	rt := newRT(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := RunWorker(ctx, rt, im, cut)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != 1 {
		t.Errorf("regions = %d", res.Regions)
	}
	for _, l := range res.Labels {
		if l != 11 {
			t.Fatalf("labels = %v", res.Labels)
		}
	}
}

func TestCommunityModelMatchesReference(t *testing.T) {
	for _, tc := range []struct{ w, h, blobs int }{
		{3, 3, 1},
		{6, 6, 2},
		{8, 8, 2},
	} {
		im := workload.GenImage(tc.w, tc.h, tc.blobs, int64(tc.w+tc.h))
		rt := newRT(t)
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		res, err := RunCommunity(ctx, rt, im, cut)
		cancel()
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.w, tc.h, err)
		}
		checkAgainstReference(t, im, res.Labels)
		want := workload.RegionCount(workload.ReferenceLabels(im, cut))
		if res.Regions != want {
			t.Errorf("%dx%d: regions = %d, want %d", tc.w, tc.h, res.Regions, want)
		}
		// One consensus firing per region.
		if fires := rt.Consensus().Fires(); int(fires) != want {
			t.Errorf("%dx%d: consensus fires = %d, want %d", tc.w, tc.h, fires, want)
		}
		if res.FirstRegion > res.Total {
			t.Error("first region after total?")
		}
	}
}

func TestCommunitySinglePixel(t *testing.T) {
	im := &workload.Image{W: 1, H: 1, Pix: []int64{200}}
	rt := newRT(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := RunCommunity(ctx, rt, im, cut)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != 1 || res.Labels[0] != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestCommunityThresholdsDiscarded(t *testing.T) {
	// "When the labeling is complete in a given region, the threshold
	// values are discarded."
	im := workload.GenImage(5, 5, 1, 3)
	rt := newRT(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := RunCommunity(ctx, rt, im, cut); err != nil {
		t.Fatal(err)
	}
	s := rt.Engine().Store()
	count := 0
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			if inst.Tuple.Arity() == 3 && inst.Tuple.Field(1).Equal(atomThreshold) {
				count++
			}
			return true
		})
	})
	if count != 0 {
		t.Errorf("%d threshold tuples left", count)
	}
}

// TestCompletionGuardSeesWholeNeighbourhood evaluates the Label completion
// guard — "every label in my window equals mine" — through the real dynamic
// import. A pixel's window spans its own bucket and each neighbour's; a
// differing label in any of them must sink the guard, whichever bucket the
// scan visits after it — or a community fires with a pixel a label short
// (E4's "labeling mismatch").
func TestCompletionGuardSeesWholeNeighbourhood(t *testing.T) {
	im := &workload.Image{W: 3, H: 1, Pix: []int64{200, 200, 200}} // one bright region
	guard := LabelDef(im).Body[2].(process.Repeat).Branches[1].Guard.Query
	s := dataspace.New()
	label := func(p, l int64) tuple.Tuple { return tuple.New(tuple.Int(p), atomLabel, tuple.Int(l)) }
	for p := int64(0); p < 3; p++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(p), atomThreshold, tuple.Int(1)))
	}
	stale := s.Assert(tuple.Environment, label(0, 0), label(1, 2), label(2, 2))[0]
	holds := func(r int64) bool {
		env := expr.Env{"r": tuple.Int(r), "t": tuple.Int(1)}
		var found bool
		s.Snapshot(func(rd dataspace.Reader) {
			var err error
			_, found, err = pattern.Solve(guard, labelView(im)(env).Window(rd, env), env)
			if err != nil {
				t.Fatal(err)
			}
		})
		return found
	}
	// Pixel 1 scans buckets 1, 0, 2: the counterexample <0, label, 0> comes
	// before the agreeing <2, label, 2>.
	for r, want := range []bool{false, false, true} {
		if got := holds(int64(r)); got != want {
			t.Errorf("labels (0, 2, 2): pixel %d completion guard = %v, want %v", r, got, want)
		}
	}
	if err := s.Update(tuple.Environment, func(w dataspace.Writer) error {
		w.Insert(label(0, 2), tuple.Environment)
		return w.Delete(stale)
	}); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 3; r++ {
		if !holds(r) {
			t.Errorf("labels (2, 2, 2): pixel %d completion guard fails", r)
		}
	}
}

// TestWorkerOptimisticMode labels one more image with the worker model. It
// ran under the deleted Optimistic mode; the ID is kept so the suite's test
// IDs stay stable.
func TestWorkerOptimisticMode(t *testing.T) {
	im := workload.GenImage(8, 8, 2, 99)
	rt := newRT(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := RunWorker(ctx, rt, im, cut)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, im, res.Labels)
}
