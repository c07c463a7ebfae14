package metrics

import (
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/race"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(2)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Errorf("gauge = %d, want 1", g.Value())
	}
}

// snapshotOf snapshots h alone, into a counts block of its own.
func snapshotOf(h *Histogram) HistogramSnapshot {
	block := make([]uint64, len(h.counts))
	return h.snapshot(&block)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{0, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := snapshotOf(h)
	want := []uint64{2, 2, 0, 1} // (<=10)x2, (<=100)x2, (<=1000)x0, overflow x1
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 || s.Sum != 0+10+11+100+5000 {
		t.Errorf("count=%d sum=%d", s.Count, s.Sum)
	}
	if got := s.Mean(); got != float64(s.Sum)/5 {
		t.Errorf("mean = %v", got)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty mean must be 0")
	}
}

// Bucket counts must sum to the observation count under concurrency — the
// invariant the audit suite relies on when it equates histogram counts with
// attempt counters.
func TestHistogramConcurrentConsistency(t *testing.T) {
	h := NewHistogram(SizeBounds)
	const workers = 8
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64((w*per + i) % 300))
			}
		}(w)
	}
	wg.Wait()
	s := snapshotOf(h)
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != workers*per || s.Count != workers*per {
		t.Errorf("bucket sum %d, count %d, want %d", total, s.Count, workers*per)
	}
}

func TestTxnKindString(t *testing.T) {
	cases := map[TxnKind]string{
		TxnImmediate: "immediate",
		TxnDelayed:   "delayed",
		TxnConsensus: "consensus",
		numTxnKinds:  "invalid",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry(4)
	if r.Observed() {
		t.Error("fresh registry must be unobserved")
	}
	r.SetObserved(true)

	r.IncShardRead(0)
	r.IncShardRead(0)
	r.IncShardWrite(3)
	r.IncCommits()
	r.ObserveFootprint(2)
	r.IncFootprintPlan(true)
	r.IncFootprintPlan(true)
	r.IncFootprintPlan(false)
	r.ObserveWakeupFanout(5)
	r.SubscriptionsLive().Inc()
	r.IncTxnAttempt(TxnDelayed)
	r.IncTxnCommit(TxnDelayed)
	r.IncTxnRetry(TxnDelayed)
	r.IncTxnBlock(TxnDelayed)
	r.ObserveTxnLatency(TxnDelayed, 3*time.Microsecond)
	r.IncConsensusRound()
	r.ObserveCommunity(7)
	r.ObserveCheckpointWrite(time.Millisecond)
	r.ObserveCheckpointRead(2 * time.Millisecond)

	s := r.Snapshot()
	if !s.Observed {
		t.Error("snapshot not observed")
	}
	if len(s.Shards) != 4 || s.Shards[0].ReadLocks != 2 || s.Shards[3].WriteLocks != 1 {
		t.Errorf("shards = %+v", s.Shards)
	}
	if reads, writes := s.ShardLockTotals(); reads != 2 || writes != 1 {
		t.Errorf("lock totals = %d/%d", reads, writes)
	}
	if s.StoreCommits != 1 || r.Commits() != 1 {
		t.Errorf("commits = %d", s.StoreCommits)
	}
	d := s.Txn["delayed"]
	if d != (TxnCounters{Attempts: 1, Commits: 1, Retries: 1, Blocks: 1}) {
		t.Errorf("delayed = %+v", d)
	}
	if r.TxnAttempts(TxnDelayed) != 1 {
		t.Error("TxnAttempts")
	}
	if s.TotalAttempts() != 1 || s.TotalCommits() != 1 {
		t.Errorf("totals = %d/%d", s.TotalAttempts(), s.TotalCommits())
	}
	if s.TxnLatency["delayed"].Count != 1 || s.TxnLatency["delayed"].Sum != 3000 {
		t.Errorf("latency = %+v", s.TxnLatency["delayed"])
	}
	if s.Footprint.Count != 1 || s.Footprint.Sum != 2 {
		t.Errorf("footprint = %+v", s.Footprint)
	}
	if s.FootprintPlanned != 2 || s.FootprintUnplanned != 1 {
		t.Errorf("footprint plans = %d planned / %d unplanned, want 2 / 1", s.FootprintPlanned, s.FootprintUnplanned)
	}
	if s.WakeupFanout.Sum != 5 || s.ReactiveSubscriptions != 1 {
		t.Errorf("fanout=%+v subscriptions=%d", s.WakeupFanout, s.ReactiveSubscriptions)
	}
	if s.ConsensusRounds != 1 || s.ConsensusCommunity.Sum != 7 {
		t.Errorf("consensus = %d/%+v", s.ConsensusRounds, s.ConsensusCommunity)
	}
	if s.CheckpointWrite.Count != 1 || s.CheckpointRead.Sum != 2e6 {
		t.Errorf("checkpoints = %+v / %+v", s.CheckpointWrite, s.CheckpointRead)
	}

	// Snapshots are copies: later recording must not mutate them.
	r.IncCommits()
	r.ObserveFootprint(1)
	if s.StoreCommits != 1 || s.Footprint.Count != 1 {
		t.Error("snapshot aliases live registry state")
	}
}

func TestNewRegistryClampsShards(t *testing.T) {
	r := NewRegistry(0)
	if len(r.Snapshot().Shards) != 1 {
		t.Error("shard floor not applied")
	}
}

func TestLatencyBoundsAscending(t *testing.T) {
	for _, bs := range [][]uint64{LatencyBounds, SizeBounds} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("bounds not ascending at %d: %v", i, bs)
			}
		}
	}
}

// TestNewRegistryAllocates: a registry's histograms are cut from one block
// and their counts from another, so NewRegistry allocates a fixed handful —
// the registry, its shard cells and the two blocks — not two per histogram.
// Each histogram still owns its counts: an observation shows in one of them
// only, in a bucket of its own bounds.
func TestNewRegistryAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	if got := testing.AllocsPerRun(20, func() { NewRegistry(4) }); got > 4 {
		t.Errorf("NewRegistry allocates %.0f times, want <= 4", got)
	}
	r := NewRegistry(1)
	hists := []*Histogram{r.groupBatch, r.footprint, r.wakeupFanout, r.consensusCommunity,
		r.checkpointWrite, r.checkpointRead, r.walSyncCover, r.walRecoveryTime}
	for _, h := range r.txnLatency {
		hists = append(hists, h)
	}
	for i, h := range hists {
		h.Observe(^uint64(0)) // the overflow bucket: the last of h's counts
		for j, o := range hists {
			want := uint64(0)
			if j <= i {
				want = 1
			}
			if hs := snapshotOf(o); len(hs.Counts) != len(hs.Bounds)+1 || hs.Counts[len(hs.Counts)-1] != want || hs.Count != want {
				t.Fatalf("after observing histograms 0..%d, histogram %d holds %+v", i, j, hs)
			}
		}
	}
}

// TestSnapshotAllocates: a snapshot copies every histogram's counts into
// one block, as NewRegistry cuts the histograms' counts from one, so it
// allocates a fixed handful — the counts block, the shard counters and the
// two per-kind maps (a header and a group each) — not one counts slice per
// histogram. Each snapshot's
// histograms still hold their own counts.
func TestSnapshotAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	r := NewRegistry(4)
	got := testing.AllocsPerRun(20, func() { r.Snapshot() })
	if got > 6 {
		t.Errorf("Snapshot allocates %.0f times, want <= 6", got)
	}
	r.wakeupFanout.Observe(3)
	s := r.Snapshot()
	r.wakeupFanout.Observe(3)
	if c := s.WakeupFanout.Counts; len(c) != len(SizeBounds)+1 || c[3] != 1 || s.WakeupFanout.Count != 1 {
		t.Errorf("a snapshot's WakeupFanout = %+v, want one observation in bucket 3", s.WakeupFanout)
	}
	if n := len(s.Footprint.Counts); n != len(SizeBounds)+1 || cap(s.Footprint.Counts) != n {
		t.Errorf("a snapshot's Footprint counts have len %d, cap %d, want both %d", n, cap(s.Footprint.Counts), len(SizeBounds)+1)
	}
}

// TestExplainSitesMergeByName: a Go request's site "3:5" and an SDL
// statement at 3:5 sum into one explain site; another position keeps its
// own.
func TestExplainSitesMergeByName(t *testing.T) {
	r := NewRegistry(1)
	var ex Explain
	r.RecordExplain("3:5", Pos{}, &ex)
	r.RecordExplain("", Pos{Line: 3, Col: 5}, &ex)
	r.RecordExplain("", Pos{Line: 3, Col: 5}, &ex)
	r.RecordExplain("", Pos{Line: 4, Col: 1}, &ex)
	got := r.Snapshot().Explain
	if len(got) != 2 || got[0].Site != "3:5" || got[0].Planned != 3 || got[1].Site != "4:1" || got[1].Planned != 1 {
		t.Errorf("explain sites %+v, want 3:5 with 3 executions and 4:1 with 1", got)
	}
}
