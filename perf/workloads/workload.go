// Package workloads holds the four end-to-end workloads of the perf
// benchmark and their layer probes. Each drives the system only through
// public functions of sdl and of the internal layer packages, and checks
// its own outputs.
package workloads

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	sdl "github.com/sdl-lang/sdl"
	"github.com/sdl-lang/sdl/perf/harness"
)

// Info names a workload and records why it exists.
type Info struct {
	Name string
	Why  string
}

// All lists the workloads in run order. BENCHMARK.json repeats the names
// and rationales (the smoke test compares the names).
var All = []Info{
	{"upsert-durable", "write path: Zipf read-modify-write upserts through txn, key-latch/group commit and the interval-synced WAL; pattern, consensus, process and lang idle"},
	{"join-read", "read path: two-leg joins and group fetches over a static 220k-tuple store; matcher and secondary-index bound, zero commits, zero WAL"},
	{"mixed-rw", "join-read's store and reads at 90% plus 10% group-swapping writes: secondary-index maintenance and read/write interference show here only"},
	{"society", "full stack: generated SDL source parsed, compiled and run (sort with consensus, 250-waiter fan-out, 64-way barrier, sum3); tiny store"},
}

// Scale sizes a workload. Full is what the benchmark measures; Tiny keeps
// the smoke test under a few seconds.
type Scale struct {
	Counters     int // upsert-durable keys (a power of two)
	UpsertOps    int // per client per window
	Groups       int // join-read / mixed-rw groups
	PerGroup     int // records per group
	ReadOps      int // join-read ops per client per window
	MixedOps     int // mixed-rw ops per client per window
	Rounds       int // society rounds per window
	SortLen      int
	Waiters      int
	Noise        int
	BarrierProcs int
	SumLen       int
	ProbeOps     int // operations each layer probe replays
}

// Full is the measured scale. Window sizes are fixed work, sized to about
// half a second on the commit that introduced the benchmark, so that the
// reference slices between windows track the host closely.
var Full = Scale{
	Counters: 1 << 18, UpsertOps: 25000,
	Groups: 20000, PerGroup: 10, ReadOps: 12000, MixedOps: 11000,
	Rounds: 8, SortLen: 24, Waiters: 250, Noise: 100, BarrierProcs: 64, SumLen: 128,
	ProbeOps: 20000,
}

// Tiny is the smoke-test scale.
var Tiny = Scale{
	Counters: 1 << 10, UpsertOps: 1500,
	Groups: 100, PerGroup: 10, ReadOps: 1000, MixedOps: 1000,
	Rounds: 2, SortLen: 6, Waiters: 20, Noise: 5, BarrierProcs: 4, SumLen: 16,
	ProbeOps: 200,
}

// New builds the named workload. dir is a scratch directory the workload
// may create files under (the WAL); nothing is written outside it.
func New(name string, seed uint64, sc Scale, dir string) (harness.Workload, error) {
	switch name {
	case "upsert-durable":
		return &Upsert{seed: seed, sc: sc, dir: filepath.Join(dir, "wal")}, nil
	case "join-read":
		return newJoin(name, seed, sc, 0, false), nil
	case "mixed-rw":
		return newJoin(name, seed, sc, 10, false), nil
	case "society":
		return &Society{seed: seed, sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// NewInsertOnlyMixed is mixed-rw with its stationary swap replaced by
// inserts into Zipf-hot groups. It exists to prove the drift guard: groups
// grow, reads slow down and the run must be flagged unstable.
func NewInsertOnlyMixed(seed uint64, sc Scale) harness.Workload {
	return newJoin("mixed-rw-insert-only", seed, sc, 50, true)
}

// stream returns the generator for one (workload, purpose, client, window)
// coordinate.
func stream(seed uint64, workload string, coords ...uint64) *rand.Rand {
	all := append([]uint64{harness.Name(workload)}, coords...)
	return rand.New(rand.NewSource(int64(harness.Mix(seed, all...))))
}

// zipf draws ranks in [0, n) with P(rank) proportional to (1+rank)^-1.1.
func zipf(r *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(r, 1.1, 1, uint64(n-1))
}

// opID packs (window, client, index) into one span operation identifier.
func opID(window, client, i int) int64 {
	return int64(window+1)<<40 | int64(client)<<36 | int64(i)
}

// immediate issues one request through the engine and returns its wall
// latency in nanoseconds. When tracing, the call is a txn.immediate span
// under the operation's root span.
func immediate(eng *sdl.Engine, req sdl.Request, lane *harness.Lane, op int64) (sdl.Result, int64, error) {
	var root, span int32
	if lane != nil {
		root = lane.Begin("op", op, -1)
		span = lane.Begin("txn.immediate", op, root)
	}
	t0 := time.Now()
	res, err := eng.Immediate(req)
	ns := int64(time.Since(t0))
	if lane != nil {
		lane.End(span)
		lane.End(root)
	}
	return res, ns, err
}

// share is a/b, 0 when b is 0.
func share(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// meanUS is total/n in microseconds, 0 when n is 0.
func meanUS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// Indexes into counters.
const (
	cCommits = iota
	cKeyCommits
	cShardFallbacks
	cCoarseCommits
	cBatchSum
	cBatchCount
	cLocks
	cEpochReads
	cEpochRebuilds
	cEpochFallbacks
	cPromotions
	cDemotions
	cFieldScans
	cIndexedScans
	cTuplesVisited
	cSignals
	cSuppressed
	cEvals
	cHits
	cFanoutSum
	cFanoutCount
	cKicksSuppressed
	cConsRounds
	cConsFires
	cTxnCommits
	cRetries
	cBlocks
	cWalAppends
	cWalBytes
	cWalSyncs
	numCounters
)

// counters are the cumulative layer counts the per-layer metrics are
// ratios of, copied out of a metrics snapshot so that the society workload
// can sum them over the many short-lived systems it creates.
type counters [numCounters]uint64

func countersOf(s sdl.MetricsSnapshot) counters {
	reads, writes := s.ShardLockTotals()
	c := counters{
		cCommits: s.StoreCommits, cKeyCommits: s.KeyCommits, cShardFallbacks: s.ShardFallbacks, cCoarseCommits: s.CoarseCommits,
		cBatchSum: s.GroupBatch.Sum, cBatchCount: s.GroupBatch.Count,
		cLocks:      reads + writes + s.KeyLockTotal(),
		cEpochReads: s.EpochReads, cEpochRebuilds: s.EpochRebuilds, cEpochFallbacks: s.EpochFallbacks,
		cPromotions: s.SecondaryPromotions, cDemotions: s.SecondaryDemotions,
		cFieldScans: s.SecondaryFieldScans, cIndexedScans: s.SecondaryIndexedScans, cTuplesVisited: s.SecondaryTuplesVisited,
		cSignals: s.ReactiveSignals, cSuppressed: s.ReactiveSuppressed, cEvals: s.ReactiveEvals, cHits: s.ReactiveHits,
		cFanoutSum: s.WakeupFanout.Sum, cFanoutCount: s.WakeupFanout.Count,
		cKicksSuppressed: s.ConsensusKicksSuppressed, cConsRounds: s.ConsensusRounds, cConsFires: s.ConsensusCommunity.Count,
		cTxnCommits: s.TotalCommits(),
		cWalAppends: s.WalAppends, cWalBytes: s.WalAppendBytes, cWalSyncs: s.WalSyncs,
	}
	for _, t := range s.Txn {
		c[cRetries] += t.Retries
		c[cBlocks] += t.Blocks
	}
	return c
}

// add sums o into c.
func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// layerCounts fills the dataspace-, txn-, consensus- and wal-layer count
// metrics from the counters accumulated between from and to over ops
// operations.
func layerCounts(m map[string]float64, from, to counters, ops int64) {
	var d counters
	for i := range d {
		d[i] = to[i] - from[i]
	}
	m["dataspace.key_commit_share"] = share(d[cKeyCommits], d[cCommits])
	m["dataspace.shard_fallback_share"] = share(d[cShardFallbacks], d[cCommits])
	m["dataspace.coarse_share"] = share(d[cCoarseCommits], d[cCommits])
	m["dataspace.group_batch_mean"] = share(d[cBatchSum], d[cBatchCount])
	m["dataspace.locks_per_op"] = share(d[cLocks], uint64(ops))

	m["dataspace.epoch_hit_share"] = share(d[cEpochReads], d[cEpochReads]+d[cEpochFallbacks])
	m["dataspace.epoch_fallback_share"] = share(d[cEpochFallbacks], d[cEpochReads]+d[cEpochFallbacks])
	m["dataspace.epoch_rebuilds_per_kop"] = 1000 * share(d[cEpochRebuilds], uint64(ops))
	m["dataspace.indexed_scan_share"] = share(d[cIndexedScans], d[cFieldScans])
	m["dataspace.index_promotions"] = float64(d[cPromotions])
	m["dataspace.index_demotions"] = float64(d[cDemotions])

	m["dataspace.reactive_suppressed_share"] = share(d[cSuppressed], d[cSignals])
	m["dataspace.reactive_delta_hit_share"] = share(d[cHits], d[cEvals])
	m["dataspace.wakeup_fanout_mean"] = share(d[cFanoutSum], d[cFanoutCount])

	m["txn.retries_per_commit"] = share(d[cRetries], d[cTxnCommits])
	m["txn.blocks_per_commit"] = share(d[cBlocks], d[cTxnCommits])

	m["consensus.kicks_suppressed_share"] = share(d[cKicksSuppressed], d[cCommits])
	m["consensus.rounds_per_fire"] = share(d[cConsRounds], d[cConsFires])

	m["wal.bytes_per_commit"] = share(d[cWalBytes], d[cWalAppends])
	m["wal.commits_per_sync"] = share(d[cWalAppends], d[cWalSyncs])
}
