package arraysum

import (
	"context"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/workload"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func runOne(t *testing.T, n int, seed int64,
	run func(context.Context, *process.Runtime, int, int64) (int64, error)) {
	t.Helper()
	rt := NewRuntime()
	defer CloseRuntime(rt)
	_, want := workload.Array(n, seed)
	got, err := run(ctxT(t), rt, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestSum3Sizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 32, 100} {
		runOne(t, n, int64(n), RunSum3)
	}
}

// TestSum3Optimistic runs one more sum3 input. It ran under the deleted
// Optimistic mode; the ID is kept so the suite's test IDs stay stable.
func TestSum3Optimistic(t *testing.T) {
	runOne(t, 64, 5, RunSum3)
}

func TestSum2Sizes(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64} {
		runOne(t, n, int64(n), RunSum2)
	}
}

func TestSum1Sizes(t *testing.T) {
	for _, n := range []int{2, 4, 16} {
		runOne(t, n, int64(n), RunSum1)
	}
}

func TestPowerOfTwoValidation(t *testing.T) {
	rt := NewRuntime()
	defer CloseRuntime(rt)
	if _, err := RunSum2(ctxT(t), rt, 6, 1); err == nil {
		t.Error("n=6 should be rejected")
	}
	rt2 := NewRuntime()
	defer CloseRuntime(rt2)
	if _, err := RunSum1(ctxT(t), rt2, 1, 1); err == nil {
		t.Error("n=1 should be rejected")
	}
}

func TestSum1UsesConsensusBarriers(t *testing.T) {
	rt := NewRuntime()
	defer CloseRuntime(rt)
	if _, err := RunSum1(ctxT(t), rt, 8, 2); err != nil {
		t.Fatal(err)
	}
	// Three phases of barriers for n=8.
	if fires := rt.Consensus().Fires(); fires != 3 {
		t.Errorf("consensus fires = %d, want 3", fires)
	}
}
