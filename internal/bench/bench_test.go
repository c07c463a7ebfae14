package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/race"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestTableWrite(t *testing.T) {
	tbl := &Table{
		ID:    "EX",
		Title: "demo",
		Note:  "claim",
		Rows: []Row{
			{Config: "n=1", Metrics: []Metric{Ms("a", 1500*time.Microsecond), Count("b", 3, "x")}},
			{Config: "n=200", Metrics: []Metric{Ms("a", 2*time.Millisecond)}},
		},
	}
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== EX: demo ==", "paper: claim", "a (ms)", "b (x)", "1.500", "n=200"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// Each experiment runs at its smallest configuration to verify the harness
// end to end (correctness checks are built into the experiment functions).

func TestE1Smoke(t *testing.T) {
	tbl, err := E1ArraySum(ctxT(t), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || len(tbl.Rows[0].Metrics) != 3 {
		t.Errorf("rows = %+v", tbl.Rows)
	}
}

func TestE2Smoke(t *testing.T) {
	tbl, err := E2PropertyList(ctxT(t), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	// Search must spawn one process per hop (L of them for the tail).
	var procs float64
	for _, m := range tbl.Rows[0].Metrics {
		if m.Name == "Search procs" {
			procs = m.Value
		}
	}
	if procs != 8 {
		t.Errorf("search procs = %v, want 8", procs)
	}
}

func TestE3Smoke(t *testing.T) {
	if _, err := E3SortConsensus(ctxT(t), []int{6}); err != nil {
		t.Fatal(err)
	}
}

func TestE4Smoke(t *testing.T) {
	if _, err := E4RegionLabel(ctxT(t), []int{6}); err != nil {
		t.Fatal(err)
	}
}

func TestE5ShapeBoundedViewWins(t *testing.T) {
	tbl, err := E5ViewScoping(ctxT(t), []int{20000})
	if err != nil {
		t.Fatal(err)
	}
	var speedup float64
	for _, m := range tbl.Rows[0].Metrics {
		if m.Name == "speedup" {
			speedup = m.Value
		}
	}
	// The paper's claim: the view bounds the scan. With 20k background
	// tuples the bounded view must be decisively faster.
	if speedup < 3 {
		t.Errorf("speedup = %.2f, want >= 3", speedup)
	}
}

func TestE6Smoke(t *testing.T) {
	if _, err := E6ConsensusScale(ctxT(t), []int{2, 8}); err != nil {
		t.Fatal(err)
	}
}

func TestE7Smoke(t *testing.T) {
	if _, err := E7LindaVsSDL(ctxT(t), []int{2}); err != nil {
		t.Fatal(err)
	}
}

func TestE8Smoke(t *testing.T) {
	tbl, err := E8SocietyScale(ctxT(t), []int{200})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("rows = %+v", tbl.Rows)
	}
}

// TestE8WakeBurstLeavesNoHeap: once a society of 10⁴ parked processes has
// been woken and closed, one collection leaves at most 1 MB live above the
// heap before it. A parked process holds its record and its wait, and an
// evaluation's answer goes back to the pool as soon as it is read, so the
// pools keep a few answers per worker across the collection, not one per
// woken process with its subscription and rows.
func TestE8WakeBurstLeavesNoHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow memory makes the live heap inexact")
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runtime.GC()
	runtime.GC()
	before := heap()
	if _, err := E8SocietyScale(ctxT(t), []int{10_000}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	after := heap()
	t.Logf("live heap %.2f MB before the society, %.2f MB after it and one collection", float64(before)/(1<<20), float64(after)/(1<<20))
	if after > before+1<<20 {
		t.Errorf("a woken and closed society of 10⁴ left %.2f MB live after one collection, want <= 1 MB", float64(after-before)/(1<<20))
	}
}

func TestE10ShapeKeyedBeatsBroad(t *testing.T) {
	tbl, err := E10WakeupIndex(ctxT(t), []int{300})
	if err != nil {
		t.Fatal(err)
	}
	got := byName(tbl.Rows[0])
	keyed, broad := got["keyed wakeups"], got["broad wakeups"]
	// Keyed wakeups must not balloon with unrelated commits; the broad arm
	// (the spurious-wakeup fault) re-evaluates waiters on every noise commit.
	if keyed != 300 || broad < 10*keyed {
		t.Errorf("keyed=%v broad=%v: expected one keyed wakeup per waiter and broad ≫ keyed", keyed, broad)
	}
}

func TestE12Smoke(t *testing.T) {
	tbl, err := E12ShardScaling(ctxT(t), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	// Three shard counts × (RMW throughput + lock count) + three Sum3 times.
	if len(tbl.Rows) != 1 || len(tbl.Rows[0].Metrics) != 9 {
		t.Errorf("rows = %+v", tbl.Rows)
	}
	// The keyed RMW workload must lock at most ~one shard per op at every
	// count — group commit can drain several commits under one
	// acquisition, so values slightly below 1 are the mechanism working,
	// while values above ~1 would mean footprints widened.
	for _, m := range tbl.Rows[0].Metrics {
		if strings.HasPrefix(m.Name, "wlocks") && (m.Value <= 0 || m.Value > 1.5) {
			t.Errorf("%s = %v locks/op, want (0, ~1]", m.Name, m.Value)
		}
	}
}

func TestE11ShapePlannerWins(t *testing.T) {
	// The written-order baseline, refmodel.Solutions, is quadratic in n.
	tbl, err := E11JoinPlanner(ctxT(t), []int{500})
	if err != nil {
		t.Fatal(err)
	}
	var written, planned float64
	for _, m := range tbl.Rows[0].Metrics {
		switch m.Name {
		case "written order":
			written = m.Value
		case "planned":
			planned = m.Value
		}
	}
	if written < 5*planned {
		t.Errorf("planner speedup too small: written=%.1f planned=%.1f us/txn", written, planned)
	}
}

// byName indexes a row's metrics by name.
func byName(r Row) map[string]float64 {
	out := make(map[string]float64, len(r.Metrics))
	for _, m := range r.Metrics {
		out[m.Name] = m.Value
	}
	return out
}

func TestE13Smoke(t *testing.T) {
	tbl, err := E13CommutingUpserts(ctxT(t), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	got := byName(tbl.Rows[0])
	// The commuting arm must take key latches, and group commit may only
	// share shard write locks, never add to them.
	for _, sc := range []int{1, 8} {
		arm := fmt.Sprintf("commute s=%d", sc)
		if got[arm+" klocks"] <= 0 {
			t.Errorf("%s klocks = %v locks/op, want > 0", arm, got[arm+" klocks"])
		}
		if w := got[arm+" wlocks"]; w <= 0 || w > 1.5 {
			t.Errorf("%s wlocks = %v locks/op, want (0, 1.5]", arm, w)
		}
	}
}

func TestE14Smoke(t *testing.T) {
	// Each arm checks the lost-increment invariant (the counters sum to the
	// op count) before it reports, so a row per policy is the invariant held
	// under that policy.
	tbl, err := E14DurableUpserts(ctxT(t), []int{250})
	if err != nil {
		t.Fatal(err)
	}
	got := byName(tbl.Rows[0])
	for _, policy := range []string{"volatile", "interval", "batch"} {
		if got[policy] <= 0 {
			t.Errorf("%s arm missing or idle: %v kops/s", policy, got[policy])
		}
	}
}

func TestE17VisitedExact(t *testing.T) {
	const n, groups, shards = 4096, 1024, 8
	tbl, err := E17SecondaryIndex(ctxT(t), []int{n})
	if err != nil {
		t.Fatal(err)
	}
	// Both queries are ∀. The scan baseline tries every instance — n records
	// plus one probe row per group — once for the lookup, and for the join
	// once for the probe leg and once more under the one probe row it
	// matches: 3 passes per 2 queries. With the index, each reads one (pos 2,
	// g) bucket: the n/groups records of group g plus the probe row <g, link,
	// g>. Warm-up promotes the two field shapes the lookups carry (pos 1 and
	// 2) in every shard, and every measured field scan is served indexed:
	// by the group's bucket, so the tag's shape (pos 1) serves nothing and
	// is demoted in every shard.
	want := map[string]float64{
		"scan visited":    1.5 * (n + groups),
		"indexed visited": n/groups + 1,
		"promotions":      2 * shards,
		"demotions":       shards,
		"indexed share":   100,
	}
	got := byName(tbl.Rows[0])
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

func TestE16ShapeExact(t *testing.T) {
	const waiters, noise = 200, 300
	tbl, err := E16ReactiveWakeups(ctxT(t), []int{waiters})
	if err != nil {
		t.Fatal(err)
	}
	// The noise commits share the waiters' index bucket, but each waiter's
	// subscription is filed under its own (field 1 = i): a noise tuple
	// carries nobody's value, so it reaches no filter at all — nothing is
	// left to suppress (this read waiters × noise while every commit met
	// every filter of the bucket) — and each waiter re-evaluates exactly
	// once, for the delta that satisfies it — and commits, so none of those
	// evaluations is wasted.
	want := map[string]float64{
		"reactive evals": waiters,
		"suppressed":     0,
		"delta hits":     waiters,
		"wasted":         0,
	}
	for _, m := range tbl.Rows[0].Metrics {
		if w, ok := want[m.Name]; ok && m.Value != w {
			t.Errorf("%s = %v, want %v", m.Name, m.Value, w)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("metric %q missing from the E16 row", name)
	}
}
