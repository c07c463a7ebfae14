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
	if c.SpuriousWakeup() || c.DelaySignal() || c.RacyVersion() {
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
					c.DelaySignal()
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
		if never.SpuriousWakeup() || never.DelaySignal() || never.RacyVersion() {
			t.Fatal("zero-probability fault fired")
		}
		if never.LockSpike() != 0 {
			t.Fatal("zero-probability lock spike fired")
		}
	}
	always := New(3, Faults{SpuriousWakeup: 255, DelaySignal: 255, LockSpike: 255, RacyVersionBug: 255})
	hits := 0
	for i := 0; i < 200; i++ {
		if always.SpuriousWakeup() {
			hits++
		}
		if always.DelaySignal() {
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
		c.DelaySignal()
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
	if !strings.Contains(sum, "proc-step:") || !strings.Contains(sum, "consensus-signal:") {
		t.Errorf("TraceSummary = %q", sum)
	}
}

// TestDecideGolden pins the first decisions of every point's stream for one
// seed, as captured before PointTxnRetry was retired: a point's ordinal
// seeds its stream, so renumbering would re-draw every recorded replay.
func TestDecideGolden(t *testing.T) {
	golden := map[Point][8]uint64{
		PointTxnExec:          {0x5d44b333c4abce10, 0x51325a04597ea2f8, 0xe36d72b67b597d4b, 0xe9c6c5f2bfd7a37c, 0xc2a7b76db68a7e62, 0xc7204bc713521f92, 0x375a0a4c9654e4e5, 0x40512875dd43c2fd},
		PointTxnWakeup:        {0xeefd3943d0fdcaf8, 0xd296dd4c7a05e1cf, 0x81e2de1b10531fb0, 0x1bb537b702b6fa2e, 0x352cc23444965a7e, 0x2ebf78049db133aa, 0x16c8e1cd796cb3a, 0xf47e3faab32a28fe},
		PointLockShard:        {0xfbfa52896cd86f97, 0xa006d51c12d30e1b, 0xc4515c591553172d, 0x9d6f60b5078c1c85, 0x5fe935cd615ad81f, 0x523a1d067b79b08f, 0x18636ac92d90682, 0x9f4042f77c88ec77},
		PointLockSpike:        {0x69d762b5c7905a44, 0xbd2851974b992c21, 0xdf6bc242556a83ae, 0x3f984f06fa957e6c, 0xe1193e51262f5b96, 0xb71aedaa55c21ef, 0x37d6c77fa55ee77e, 0x68d7743834c9ab6},
		PointCommitPublish:    {0x8c8f048ceb85a74a, 0xcacc868f5b60a38, 0x4e066fc67cc8bb21, 0x3c29f93757bba91a, 0xa802cc511731b580, 0xfacc282a74d59f34, 0x5ba8f82308318c5a, 0xcf6f0e72f02c50f7},
		PointWakeupSpurious:   {0x284dbbedc12a4903, 0x61f9b981aadd6f9d, 0x7543427ce1144ef6, 0x6d9263078a28506b, 0x859fa399acd5787f, 0x87266618950948a0, 0xf46bd78aae8f6238, 0x386fbb8701ab2c18},
		PointWaiterRegister:   {0x2cdb57541083904, 0xf24cb69f03c4473, 0x2c0e1d7efb685dd1, 0x301a9f4934074ff1, 0x42bf193851e824a1, 0x26423e25069a390c, 0x163912ae318766a0, 0x7672b5cf42e82a5a},
		PointConsensusEval:    {0x1915b4bfc0d4db1, 0xaaa5547331a64891, 0x2eef7fd41336a3c, 0x17389374eef5693e, 0xec8aa0f70ad9d783, 0x1aecb3d4a651e60c, 0xa4a549690794b159, 0xda5a167a4e4ace45},
		PointConsensusSignal:  {0xe12b3fece2591bfa, 0x1d14636ba39ed931, 0x16ef45afaa99b85a, 0x225a982362225f52, 0xcaaf5f2046783176, 0x29879bed85f6ce8e, 0x849b8593203d51b8, 0xeed7bfedb6a1152e},
		PointConsensusClaim:   {0x1e012250da9c66ec, 0x460d7cdfe86c5434, 0x910662ac688e442a, 0xf8798cbfd0e3abca, 0x285f43597b6fe040, 0x868fb143ee7d467c, 0xd070ddd9608fc84c, 0x69685ba1a7da64b},
		PointConsensusResolve: {0x275b48237286038e, 0xef975d80704c40c8, 0xa5ddbc18173de4a1, 0x6744be63cace532a, 0xc4f7977f3e8ea805, 0x4374d32c5a79db8, 0xd5fdbcf47f138ec3, 0xf0a15f426a719008},
		PointProcStep:         {0xe8f3d7541ec88cfd, 0xf3700c5866b59c07, 0x95a57c9d3bfb0fb2, 0x91ca0bf4a282bd1d, 0xbde5b5be8ab2da50, 0x6781437b588708bc, 0xc3e25513aa610b0a, 0xde0a00abe26811c9},
		PointProcSpawn:        {0xf4d582efaf134937, 0x4211564dbfa7de0f, 0xebb61d9d92386223, 0x787efa8b0f6f211f, 0x8b69be7685b70596, 0xca244e201906d350, 0xca5c78a6cfaf471b, 0xeba33aceb91fda04},
		PointLockKey:          {0x2650dfccc5e82688, 0x9f3ee934bd3c701e, 0xd34221814c4457db, 0x1e981425b3e6c3fe, 0x1e05583b49e172b2, 0x394b2255eb925349, 0x8acd8e5f68a5d600, 0x5dd76c2bfe40f399},
		PointGroupCommit:      {0xde4404a621a327df, 0x85bcd1efe429beaf, 0x3a02f7af82d9dbb0, 0x840b4789c2229efd, 0xad466656b5e06d5f, 0x8ba07bbe9f96e8d3, 0x3d24c4db42fc5b82, 0x8362d29eeb32ddae},
		PointWalSync:          {0xc3f048cfc513eb18, 0x90d7b92131afe3ad, 0xfcb773ea9c2d16fc, 0x7d5327220299ec0c, 0x3e3531ee908dc40b, 0x6cf807add91cb4d4, 0x9253e483f0107545, 0xf4bf9ca030912ffc},
		PointWalCrash:         {0xcbb417a17c5ed3a6, 0xaee8edcecbfa251a, 0xd7fb0f8a613f437, 0x29f8ece4e1d2c352, 0x2d713466e96f8c57, 0x3d8143c3dd1c4131, 0x4847f79fe7c8d88b, 0xae914961247be5ff},
		PointReactiveDeliver:  {0x9450ee2c31cf0707, 0xba22d4c77467e58b, 0x25de96c3563ed101, 0xf9ad3f4a96d1a8a0, 0xf729cb732094b192, 0x6e802c4afb3654b6, 0xe87d5a8053e90e62, 0x7bb85b309109a13d},
		PointIndexPromote:     {0x425483a23f0aee7c, 0xb7fa2850d713a947, 0x888c3131a0034df1, 0x274dbad80a88199e, 0x342bedd1abf01cc1, 0xa1acca5f1c58e5f6, 0x48ad7b2066909fb0, 0x49cba2b7f8ea07c3},
	}
	if len(golden) != int(NumPoints)-1 {
		t.Fatalf("golden covers %d points, want every point but the retired slot (%d)", len(golden), NumPoints-1)
	}
	for p, want := range golden {
		for seq, v := range want {
			if got := Decide(7, p, uint64(seq)); got != v {
				t.Errorf("Decide(7, %s, %d) = %#x, want %#x", p, seq, got, v)
			}
		}
	}
}

func TestPointStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Point(0); p < NumPoints; p++ {
		if p == PointTxnExec+1 {
			continue // the retired slot
		}
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
