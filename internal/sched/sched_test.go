package sched

import (
	"strings"
	"sync"
	"testing"
)

func TestDecideDeterministic(t *testing.T) {
	for seed := uint64(1); seed < 100; seed++ {
		for p := Point(0); p < NumPoints; p++ {
			for seq := uint64(0); seq < 50; seq++ {
				a := Decide(seed, p, seq)
				b := Decide(seed, p, seq)
				if a != b {
					t.Fatalf("Decide(%d,%v,%d) unstable: %x vs %x", seed, p, seq, a, b)
				}
				if a == 0 {
					t.Fatalf("Decide(%d,%v,%d) = 0 (reserved)", seed, p, seq)
				}
			}
		}
	}
}

func TestDecideSeedsDiffer(t *testing.T) {
	// Different seeds must produce different streams (overwhelmingly).
	same := 0
	for seq := uint64(0); seq < 1000; seq++ {
		if Decide(1, PointTxnExec, seq) == Decide(2, PointTxnExec, seq) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d/1000 draws", same)
	}
}

func TestNilControllerNoOps(t *testing.T) {
	var c *Controller
	c.Yield(PointTxnExec)
	if p := c.Perm(PointReactiveDeliver, 5); p != nil {
		t.Errorf("nil Perm = %v", p)
	}
	if c.SpuriousWakeup() || c.ForceRetry() || c.DelaySignal() || c.RacyVersion() {
		t.Error("nil controller injected a fault")
	}
	if n := c.LockSpike(); n != 0 {
		t.Errorf("nil LockSpike = %d", n)
	}
	if c.Seed() != 0 || c.Decisions() != 0 || c.Fingerprint() != 0 {
		t.Error("nil controller reports nonzero state")
	}
	c.SetLimit(5)
	c.EnableTrace(0)
	if tr := c.Trace(); tr != nil {
		t.Errorf("nil Trace = %v", tr)
	}
}

func TestControllerStreamReproduces(t *testing.T) {
	// Two controllers on the same seed consuming the same (point, seq)
	// pattern — even from concurrent goroutines — end with the same
	// fingerprint and the same per-point decision values.
	run := func() (*Controller, uint64) {
		c := New(42, Heavy())
		c.EnableTrace(0)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					c.Yield(PointTxnExec)
					c.Perm(PointReactiveDeliver, 4)
					c.ForceRetry()
				}
			}()
		}
		wg.Wait()
		return c, c.Fingerprint()
	}
	c1, fp1 := run()
	c2, fp2 := run()
	if fp1 != fp2 {
		t.Fatalf("fingerprints differ: %x vs %x", fp1, fp2)
	}
	if c1.Decisions() != c2.Decisions() {
		t.Fatalf("decision counts differ: %d vs %d", c1.Decisions(), c2.Decisions())
	}
	// The traces contain the same (point, seq, value) triples, possibly in
	// different order; index one and compare.
	want := map[[2]uint64]uint64{}
	for _, d := range c1.Trace() {
		want[[2]uint64{uint64(d.Point), d.Seq}] = d.Value
	}
	for _, d := range c2.Trace() {
		if v, ok := want[[2]uint64{uint64(d.Point), d.Seq}]; !ok || v != d.Value {
			t.Fatalf("decision %v#%d: value %x, want %x (ok=%v)", d.Point, d.Seq, d.Value, v, ok)
		}
	}
}

func TestPermValidity(t *testing.T) {
	c := New(7, Faults{Shuffle: 255})
	got := 0
	for i := 0; i < 100; i++ {
		p := c.Perm(PointConsensusClaim, 6)
		if p == nil {
			continue
		}
		got++
		if len(p) != 6 {
			t.Fatalf("perm length %d", len(p))
		}
		seen := map[int]bool{}
		for _, v := range p {
			if v < 0 || v >= 6 || seen[v] {
				t.Fatalf("invalid perm %v", p)
			}
			seen[v] = true
		}
	}
	if got == 0 {
		t.Error("Shuffle=255 never produced a permutation")
	}
	if p := c.Perm(PointConsensusClaim, 1); p != nil {
		t.Errorf("Perm(n=1) = %v, want nil", p)
	}
}

func TestLimitCutsDecisions(t *testing.T) {
	c := New(9, Faults{Shuffle: 255})
	c.SetLimit(10)
	active := 0
	for i := 0; i < 100; i++ {
		if c.Perm(PointReactiveDeliver, 4) != nil {
			active++
		}
	}
	if active > 10 {
		t.Errorf("limit 10 but %d active decisions", active)
	}
	if c.Decisions() != 100 {
		t.Errorf("Decisions() = %d, want 100 (draws beyond limit still count)", c.Decisions())
	}
	// Beyond the limit the fingerprint must stop changing.
	fp := c.Fingerprint()
	c.Perm(PointReactiveDeliver, 4)
	if c.Fingerprint() != fp {
		t.Error("fingerprint changed beyond the limit")
	}
}

func TestFaultProbabilities(t *testing.T) {
	// Probability 0 never fires; 255 fires nearly always.
	never := New(3, Faults{})
	for i := 0; i < 200; i++ {
		if never.SpuriousWakeup() || never.ForceRetry() || never.DelaySignal() || never.RacyVersion() {
			t.Fatal("zero-probability fault fired")
		}
		if never.LockSpike() != 0 {
			t.Fatal("zero-probability lock spike fired")
		}
	}
	always := New(3, Faults{SpuriousWakeup: 255, ForceRetry: 255, DelaySignal: 255, LockSpike: 255, RacyVersionBug: 255})
	hits := 0
	for i := 0; i < 200; i++ {
		if always.SpuriousWakeup() {
			hits++
		}
		if always.ForceRetry() {
			hits++
		}
		if always.LockSpike() > 0 {
			hits++
		}
		if always.RacyVersion() {
			hits++
		}
	}
	if hits < 700 { // 800 draws at p≈255/256
		t.Errorf("high-probability faults fired only %d/800 times", hits)
	}
}

func TestTraceFormatting(t *testing.T) {
	c := New(5, Heavy())
	c.EnableTrace(16)
	for i := 0; i < 40; i++ {
		c.Yield(PointProcStep)
		c.ForceRetry()
	}
	tr := c.Trace()
	if len(tr) != 16 {
		t.Fatalf("trace len %d, want cap 16", len(tr))
	}
	text := FormatTrace(tr)
	if !strings.Contains(text, "proc-step#0=") {
		t.Errorf("FormatTrace missing first decision:\n%s", text)
	}
	sum := TraceSummary(tr)
	if !strings.Contains(sum, "proc-step:") || !strings.Contains(sum, "txn-retry:") {
		t.Errorf("TraceSummary = %q", sum)
	}
}

func TestPointStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Point(0); p < NumPoints; p++ {
		s := p.String()
		if s == "unknown" || seen[s] {
			t.Errorf("point %d has bad/duplicate name %q", p, s)
		}
		seen[s] = true
	}
	if NumPoints.String() != "unknown" {
		t.Error("out-of-range point should stringify as unknown")
	}
}
