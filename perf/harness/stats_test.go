package harness

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = Quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Fatalf("quartiles = %v, %v; want 1, 4.5", q1, q3)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := Median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i+1) * 1000 // 1..100 us
	}
	if p := PercentileNS(sorted, 99); p != 99 {
		t.Fatalf("p99 = %v us, want 99", p)
	}
	if p := PercentileNS(sorted, 50); p != 50 {
		t.Fatalf("p50 = %v us, want 50", p)
	}
}

func TestMixSeparatesCoordinates(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		for client := uint64(0); client < 2; client++ {
			for window := uint64(0); window < 10; window++ {
				h := Mix(seed, Name("join-read"), client, window)
				if seen[h] {
					t.Fatalf("stream seed collision at seed=%d client=%d window=%d", seed, client, window)
				}
				seen[h] = true
			}
		}
	}
	if Mix(7, 1, 2) != Mix(7, 1, 2) {
		t.Fatal("Mix is not a pure function")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := NewTracer(1, 8)
	l := tr.Lane(0)
	root := l.Begin("op", 1, -1)
	child := l.Begin("txn.immediate", 1, root)
	l.End(child)
	l.End(root)
	// Pin the clock readings so the arithmetic is exact.
	l.spans[root].Start, l.spans[root].End = 0, 100
	l.spans[child].Start, l.spans[child].End = 10, 70
	stats := map[string]SpanStat{}
	tr.Aggregate(stats)
	if got := stats["op"]; got.Count != 1 || got.TotalNS != 100 || got.SelfNS != 40 {
		t.Fatalf("op span stat = %+v, want total 100 self 40", got)
	}
	if got := stats["txn.immediate"]; got.TotalNS != 60 || got.SelfNS != 60 {
		t.Fatalf("child span stat = %+v, want total 60 self 60", got)
	}
	var nilTracer *Tracer
	if nilTracer.Lane(0) != nil {
		t.Fatal("a nil tracer must hand out nil lanes")
	}
}

func TestFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	slope, r := Fit(xs, []float64{1, 3, 5, 7})
	if math.Abs(slope-2) > 1e-12 || math.Abs(r-1) > 1e-12 {
		t.Fatalf("fit of y=2x+1: slope %v r %v", slope, r)
	}
}

// A run with too few kept windows for the drift check is reported as
// unassessed, not as stable.
func TestDriftIsUnassessedBelowSixKeptWindows(t *testing.T) {
	report := func(kept int) *Report {
		r := &Report{SetupS: []float64{1}, SetupRefMS: []float64{15}, TailRefMS: []float64{15}}
		for i := 0; i <= kept; i++ {
			r.Windows = append(r.Windows, WindowStat{Index: i, Kept: i > 0, Ops: 10, Thr: 100, P50: 1, RefMS: []float64{15}})
		}
		r.aggregate(nil)
		return r
	}
	if r := report(MinDriftWindows - 1); r.DriftAssessed || r.Stability() != "unassessed" {
		t.Fatalf("%d kept windows: assessed=%v stability=%q", MinDriftWindows-1, r.DriftAssessed, r.Stability())
	}
	if r := report(MinDriftWindows); !r.DriftAssessed || r.Stability() != "stable" {
		t.Fatalf("%d kept windows: assessed=%v stability=%q", MinDriftWindows, r.DriftAssessed, r.Stability())
	}
}
