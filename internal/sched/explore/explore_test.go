package explore

import (
	"strings"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/sched"
)

// testSeeds keeps the in-gate run quick; make explore runs the full
// campaign (1000+ seeds).
func testSeeds(t *testing.T) int {
	if testing.Short() {
		return 2
	}
	return 5
}

func TestExploreCleanSweepLightFaults(t *testing.T) {
	rep := Run(Options{
		Seeds:   testSeeds(t),
		Faults:  sched.Light(),
		Timeout: time.Minute,
		Log:     t.Logf,
	})
	if len(rep.Failures) != 0 {
		for _, f := range rep.Failures {
			t.Errorf("%s", f)
		}
	}
	if want := testSeeds(t) * len(Corpus()); rep.Runs != want {
		t.Errorf("Runs = %d, want %d", rep.Runs, want)
	}
}

func TestExploreHeavyFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy profile skipped in -short")
	}
	// The heavy profile on the most schedule-sensitive programs.
	var subset []Program
	for _, name := range []string{"micro-upsert", "micro-transfer", "micro-consensus", "barrier", "sum1"} {
		p, ok := Find(name)
		if !ok {
			t.Fatalf("corpus program %q missing", name)
		}
		subset = append(subset, p)
	}
	rep := Run(Options{
		Seeds:     4,
		StartSeed: 1000,
		Faults:    sched.Heavy(),
		Timeout:   time.Minute,
		Programs:  subset,
		Log:       t.Logf,
	})
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
}

// TestDecisionStreamReproduces pins the replay guarantee: two runs of the
// same (program, seed) draw identical decision values at every (point,
// seq) position, regardless of how the OS scheduler interleaves the
// goroutines consuming them.
func TestDecisionStreamReproduces(t *testing.T) {
	p, ok := Find("micro-upsert")
	if !ok {
		t.Fatal("micro-upsert missing")
	}
	opts := Options{Faults: sched.Heavy(), Timeout: time.Minute}.withDefaults()
	_, tr1, err := runOnce(p, 77, -1, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, err := runOnce(p, 77, -1, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr1) == 0 || len(tr2) == 0 {
		t.Fatal("no decisions recorded")
	}
	values := map[[2]uint64]uint64{}
	for _, d := range tr1 {
		values[[2]uint64{uint64(d.Point), d.Seq}] = d.Value
	}
	for _, d := range tr2 {
		if v, seen := values[[2]uint64{uint64(d.Point), d.Seq}]; seen && v != d.Value {
			t.Fatalf("decision %v#%d differs across runs: %x vs %x", d.Point, d.Seq, v, d.Value)
		}
	}
}

// TestInjectedBugCaughtAndShrunk is the harness's teeth: with the
// test-only racy-version fault enabled, exploration must find a
// serializability violation, shrink it to a minimal active-decision
// budget, and the reported (seed, limit) pair must replay the failure.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	p, ok := Find("micro-parallel")
	if !ok {
		t.Fatal("micro-parallel missing")
	}
	opts := Options{
		Seeds:       30,
		Faults:      sched.Faults{Yield: 64, RacyVersionBug: 255},
		Shards:      8, // disjoint-footprint commits must be able to overlap
		Timeout:     time.Minute,
		Programs:    []Program{p},
		MaxFailures: 1,
		Log:         t.Logf,
	}
	rep := Run(opts)
	if len(rep.Failures) == 0 {
		t.Fatal("injected racy-version bug survived 30 explored seeds undetected")
	}
	f := rep.Failures[0]
	if !strings.Contains(f.Err.Error(), "serializability") {
		t.Errorf("failure is not a serializability violation: %v", f.Err)
	}
	if f.MinLimit < 0 {
		t.Fatalf("failure was not shrunk: %+v", f)
	}
	if f.MinLimit > f.Decisions {
		t.Errorf("shrunk budget %d exceeds decisions drawn %d", f.MinLimit, f.Decisions)
	}
	if len(f.Trace) == 0 {
		t.Error("shrunk failure carries no decision trace")
	}
	// The replay pair must reproduce the failure (the schedule is
	// perturbation-driven, so allow a few attempts).
	reproduced := false
	for i := 0; i < 8 && !reproduced; i++ {
		if _, err := RunSeed(p, f.Seed, f.MinLimit, opts); err != nil {
			reproduced = true
		}
	}
	if !reproduced {
		t.Errorf("seed %d limit %d did not reproduce the failure", f.Seed, f.MinLimit)
	}
	t.Logf("caught and shrunk: %s", f)
}

// TestDurableCrashCutsExplored drives micro-durable across seeds: each
// run attaches a WAL (sync mode seed-derived), truncates the log at a
// seed-derived cut after the run, and verifies recovery against the
// reference replay. Any failure here is a durability bug, not noise.
func TestDurableCrashCutsExplored(t *testing.T) {
	p, ok := Find("micro-durable")
	if !ok {
		t.Fatal("micro-durable missing")
	}
	rep := Run(Options{
		Seeds:    testSeeds(t) * 3,
		Faults:   sched.Light(),
		Timeout:  time.Minute,
		Programs: []Program{p},
		Log:      t.Logf,
	})
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
}

// TestDurableInjectedBugShrinks pins that the shrinking loop works with
// the WAL attached: the racy-version fault must be caught on the durable
// program and the reported (seed, limit) pair must replay through the
// full open-recover-run-crash-verify cycle.
func TestDurableInjectedBugShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fault campaign skipped in -short")
	}
	p, ok := Find("micro-durable")
	if !ok {
		t.Fatal("micro-durable missing")
	}
	opts := Options{
		Seeds:       30,
		Faults:      sched.Faults{Yield: 64, RacyVersionBug: 255},
		Shards:      8,
		Timeout:     time.Minute,
		Programs:    []Program{p},
		MaxFailures: 1,
		Log:         t.Logf,
	}
	rep := Run(opts)
	if len(rep.Failures) == 0 {
		t.Fatal("injected racy-version bug survived on the durable program")
	}
	f := rep.Failures[0]
	if f.MinLimit < 0 {
		t.Fatalf("failure was not shrunk: %+v", f)
	}
	reproduced := false
	for i := 0; i < 8 && !reproduced; i++ {
		if _, err := RunSeed(p, f.Seed, f.MinLimit, opts); err != nil {
			reproduced = true
		}
	}
	if !reproduced {
		t.Errorf("seed %d limit %d did not reproduce through the WAL path", f.Seed, f.MinLimit)
	}
	t.Logf("caught and shrunk through WAL: %s", f)
}

// TestVerifyCatchesBadMarkers exercises the all-or-nothing checker
// directly: a partial-fire commit must be rejected.
func TestShrinkKeepsUnreproducibleFailure(t *testing.T) {
	// A failure that does not reproduce (clean program, no faults) is
	// returned unshrunk rather than dropped.
	p, ok := Find("micro-fair")
	if !ok {
		t.Fatal("micro-fair missing")
	}
	f := Failure{Program: p.Name, Seed: 3, Err: errFake, Decisions: 100, MinLimit: -1}
	got := Shrink(p, f, Options{Timeout: time.Minute})
	if got.MinLimit != -1 {
		t.Errorf("unreproducible failure was shrunk: %+v", got)
	}
	if got.Err != errFake {
		t.Errorf("original error replaced: %v", got.Err)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake failure" }

func TestConfigForIsPure(t *testing.T) {
	saw := map[int]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		s := configFor(seed, Options{})
		if s != configFor(seed, Options{}) {
			t.Fatalf("configFor(%d) unstable", seed)
		}
		if s < 1 || s > 8 {
			t.Errorf("configFor(%d) shards = %d", seed, s)
		}
		saw[s] = true
	}
	if len(saw) != 4 {
		t.Errorf("seeds 0..63 drew shard counts %v, want all of 1, 2, 4, 8", saw)
	}
	// Overrides win.
	if s := configFor(9, Options{Shards: 2}); s != 2 {
		t.Errorf("override ignored: shards=%d", s)
	}
}

// TestConfigForGolden pins the shard count every recorded seed replays
// with, as captured before the mode and secondary-index arms were deleted
// (the seeds that drew either ablated arm now run the one configuration).
func TestConfigForGolden(t *testing.T) {
	golden := []struct {
		seed   uint64
		shards int
	}{
		{0, 2},
		{1, 1},
		{2, 2},
		{3, 8},
		{4, 4},
		{5, 1},
		{6, 1},
		{7, 2},
		{8, 2},
		{9, 2},
		{10, 2},
		{11, 4},
		{12, 4},
		{13, 8},
		{14, 8},
		{15, 8},
		{16, 2},
		{17, 1},
		{18, 8},
		{19, 4},
		{20, 1},
		{21, 4},
		{22, 2},
		{23, 1},
		{24, 4},
		{25, 4},
		{26, 4},
		{27, 1},
		{28, 1},
		{29, 8},
		{30, 4},
		{31, 2},
	}
	for _, g := range golden {
		if s := configFor(g.seed, Options{}); s != g.shards {
			t.Errorf("configFor(%d) = shards %d, want %d", g.seed, s, g.shards)
		}
	}
}

func TestCorpusComplete(t *testing.T) {
	want := []string{"barrier", "pairing", "philosophers", "proplist", "sort", "sum1", "sum3",
		"micro-upsert", "micro-commute", "micro-transfer", "micro-consensus", "micro-parallel",
		"micro-durable", "micro-fair", "micro-reactive", "fanout", "two-communities", "micro-shared-consensus", "micro-index"}
	got := Corpus()
	if len(got) != len(want) {
		t.Fatalf("corpus has %d programs, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("corpus[%d] = %s, want %s", i, got[i].Name, name)
		}
		if got[i].Src == "" || got[i].Check == nil {
			t.Errorf("corpus[%d] %s incomplete", i, name)
		}
	}
	if _, ok := Find("no-such-program"); ok {
		t.Error("Find invented a program")
	}
}
