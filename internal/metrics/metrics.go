// Package metrics is the runtime observability layer: a low-overhead
// registry of atomic counters, gauges, and fixed-bucket histograms that the
// dataspace store, the transaction engine, and the consensus manager record
// into on their hot paths.
//
// Design constraints (see DESIGN.md §6):
//
//   - Compiled-in, always present: every Store owns a Registry, so callers
//     never branch on nil.
//   - Near-free when no observer is attached: the always-on instruments are
//     single atomic adds on cache-line-padded cells (per-shard counters are
//     striped by shard index, so a counter cell is contended exactly as much
//     as the shard lock next to it). Everything that needs a clock reading
//     or touches a shared histogram on a per-operation basis — transaction
//     latencies, footprint sizes, wakeup fan-out, explain records (see
//     Explain) — is gated behind an Observed flag that Snapshot consumers
//     flip on.
//   - Lock-free recording: recording never blocks and is safe from any
//     goroutine (the gated explain records take a per-site lock); Snapshot reads are racy-but-atomic (each field is a single
//     atomic load; cross-field consistency is not promised while a workload
//     runs).
package metrics

import (
	"sync/atomic"
	"time"
)

// cell is a cache-line-padded counter, so striped counters on adjacent
// indexes do not false-share.
type cell struct {
	v atomic.Uint64
	_ [120]byte
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. waiter queue depth).
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-boundary histogram: counts[i] tallies observations
// v <= Bounds[i]; the final bucket is the overflow (+Inf) bucket. Boundaries
// are fixed at construction so Observe is a short linear scan plus three
// atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last = overflow
	count  atomic.Uint64
	sum    atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending boundaries.
func NewHistogram(bounds []uint64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"` // ascending; last bucket is +Inf
	Counts []uint64 `json:"counts"` // len(Bounds)+1
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Mean returns the average observed value (0 when empty).
func (hs HistogramSnapshot) Mean() float64 {
	if hs.Count == 0 {
		return 0
	}
	return float64(hs.Sum) / float64(hs.Count)
}

// snapshot copies h, its counts cut from the front of *block.
func (h *Histogram) snapshot(block *[]uint64) HistogramSnapshot {
	n := len(h.counts)
	hs := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: (*block)[:n:n],
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	*block = (*block)[n:]
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// LatencyBounds are the nanosecond boundaries of the latency histograms:
// 250ns, 500ns, 1µs, … doubling up to ~268ms, then +Inf.
var LatencyBounds = expBounds(250, 21)

// SizeBounds are the boundaries of the size histograms (footprint shard
// counts, wakeup fan-out, consensus community sizes): 0, 1, 2, 4, … 256.
var SizeBounds = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

func expBounds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base << uint(i)
	}
	return out
}

// TxnKind labels the operational type of a transaction for the per-kind
// counters, mirroring the paper's '→', '⇒', and '⇑' tags.
type TxnKind uint8

// Transaction kinds.
const (
	TxnImmediate TxnKind = iota
	TxnDelayed
	TxnConsensus
	numTxnKinds
)

// String names the kind.
func (k TxnKind) String() string {
	switch k {
	case TxnImmediate:
		return "immediate"
	case TxnDelayed:
		return "delayed"
	case TxnConsensus:
		return "consensus"
	default:
		return "invalid"
	}
}

// TxnCounters is the per-kind transaction activity snapshot.
type TxnCounters struct {
	Attempts uint64 `json:"attempts"` // executions (one per Immediate/Delayed evaluation or consensus firing attempt)
	Commits  uint64 `json:"commits"`  // successful executions
	Retries  uint64 `json:"retries"`  // aborted consensus fires (always 0 for immediate and delayed)
	Blocks   uint64 `json:"blocks"`   // times a process blocked (delayed wait, consensus offer)
}

// txnCells holds one kind's counters on separate cache lines.
type txnCells struct {
	attempts cell
	commits  cell
	retries  cell
	blocks   cell
}

// shardCells holds one shard's lock counters on separate cache lines.
type shardCells struct {
	readLocks  cell
	writeLocks cell
	keyLocks   cell
}

// ShardCounters is the per-shard activity snapshot.
type ShardCounters struct {
	ReadLocks  uint64 `json:"readLocks"`  // read-lock acquisitions
	WriteLocks uint64 `json:"writeLocks"` // write-lock acquisitions
	KeyLocks   uint64 `json:"keyLocks"`   // per-key latch acquisitions (commuting path)
}

// Registry is the per-store metrics registry. Construct with NewRegistry;
// the zero value is not usable.
type Registry struct {
	observed atomic.Bool

	shards []shardCells

	commits Counter // mutating store commits (== commit-hook invocations)

	keyCommits     Counter    // commits admitted on the per-key commuting path
	shardFallbacks Counter    // planned commits that fell back to shard locking
	coarseCommits  Counter    // unplanned commits applied under the full lock set
	groupBatch     *Histogram // commits applied per group-commit drain (always on)
	epochReads     Counter    // lock-free epoch snapshot reads
	epochRebuilds  Counter    // epoch snapshot rebuilds (cache misses)
	epochFallbacks Counter    // epoch reads invalidated by a concurrent commit

	txn         [numTxnKinds]txnCells
	txnLatency  [numTxnKinds]*Histogram // ns per execution; gated on Observed
	sharedReads cell                    // executions served by the engine's shared read path

	footprintPlanned   cell // executions the footprint planner planned
	footprintUnplanned cell // executions it could not plan (whole-store path)

	footprint    *Histogram // shards write-locked per update; gated on Observed
	wakeupFanout *Histogram // subscriptions woken per mutating commit; gated on Observed

	subsLive           Gauge   // currently registered subscriptions (blocked delayed txns and selections)
	reactiveSignals    Counter // subscription candidates a commit's delta delivery inspected
	reactiveSuppressed Counter // candidates whose deltas filtered to nothing (wakeup suppressed)
	reactiveEvals      Counter // guard re-evaluations after a subscription fired
	reactiveHits       Counter // of those, driven by a concrete delta batch
	reactiveFallbacks  Counter // of those, full re-queries (not delta-safe, or overflow/spurious)
	reactiveWasted     Counter // of those, evaluations that blocked again

	processesSpawned Counter // processes ever started by the process runtime
	processesLive    Gauge   // processes started and not yet terminated

	idxPromotions Counter // secondary-index shape promotions (cold -> hot)
	idxDemotions  Counter // secondary-index shape demotions: writes and lost comparisons outran the scans served
	idxFieldScans Counter // non-lead field scans (every ScanFields shard visit)
	idxScans      Counter // of those, served by a promoted field index
	idxArityScans Counter // of those, served by the full arity-scan fallback
	idxTuples     Counter // tuple candidates delivered by field scans

	consensusKicksSuppressed Counter // commits that left the consensus gate no work

	consensusRounds    Counter    // consensus gate evaluations (firing attempts)
	consensusCommunity *Histogram // members per fired consensus set (always on; fires are rare)

	checkpointWrite *Histogram // ns per WriteCheckpoint (always on; rare)
	checkpointRead  *Histogram // ns per ReadCheckpoint (always on; rare)

	walAppends      Counter    // commit records appended to the WAL
	walAppendBytes  Counter    // frame bytes appended (header + payload)
	walSyncs        Counter    // fsync calls issued by the log
	walSyncCover    *Histogram // records made durable per fsync (group-commit amortization)
	walSegments     Counter    // segment rotations (new segment files opened)
	walRecovered    Counter    // records replayed into a store during recovery
	walDiscarded    Counter    // version gaps found at recovery (versions missing inside the replayed suffix)
	walRecoveries   Counter    // completed Recover calls
	walRecoveryTime *Histogram // ns per Recover (always on; rare)

	explain explainLog // per-site explain aggregates; gated on Observed
}

// The registry's histograms: sizedHists over SizeBounds, timedHists over
// LatencyBounds.
const sizedHists, timedHists = 5, 3 + int(numTxnKinds)

// histCells returns the counts of the registry's histograms in all.
func histCells() int {
	return sizedHists*(len(SizeBounds)+1) + timedHists*(len(LatencyBounds)+1)
}

// NewRegistry returns a registry for a store with the given shard count.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	// The histograms are cut from one block, and their counts from another.
	hs := make([]Histogram, sizedHists+timedHists)
	counts := make([]atomic.Uint64, histCells())
	next := func(bounds []uint64) *Histogram {
		h, n := &hs[0], len(bounds)+1
		h.bounds, h.counts = bounds, counts[:n:n]
		hs, counts = hs[1:], counts[n:]
		return h
	}
	r := &Registry{
		shards:             make([]shardCells, shards),
		groupBatch:         next(SizeBounds),
		footprint:          next(SizeBounds),
		wakeupFanout:       next(SizeBounds),
		consensusCommunity: next(SizeBounds),
		checkpointWrite:    next(LatencyBounds),
		checkpointRead:     next(LatencyBounds),
		walSyncCover:       next(SizeBounds),
		walRecoveryTime:    next(LatencyBounds),
	}
	for k := range r.txnLatency {
		r.txnLatency[k] = next(LatencyBounds)
	}
	return r
}

// SetObserved attaches (or detaches) an observer: it enables the gated
// instruments — transaction latency, footprint, and wakeup fan-out
// histograms, and the per-site explain records — which need clock readings
// or shared-cacheline updates per operation. Flip it on before the workload whose histograms you want;
// the always-on counters are unaffected.
func (r *Registry) SetObserved(on bool) { r.observed.Store(on) }

// Observed reports whether an observer is attached.
func (r *Registry) Observed() bool { return r.observed.Load() }

// --- recording (store) ---

// IncShardRead counts one read-lock acquisition of shard i.
func (r *Registry) IncShardRead(i uint32) { r.shards[i].readLocks.v.Add(1) }

// IncShardWrite counts one write-lock acquisition of shard i.
func (r *Registry) IncShardWrite(i uint32) { r.shards[i].writeLocks.v.Add(1) }

// IncCommits counts one mutating store commit.
func (r *Registry) IncCommits() { r.commits.Add(1) }

// Commits returns the mutating-commit count.
func (r *Registry) Commits() uint64 { return r.commits.Value() }

// IncShardKeyLocks counts n per-key latch acquisitions on shard i.
func (r *Registry) IncShardKeyLocks(i uint32, n int) { r.shards[i].keyLocks.v.Add(uint64(n)) }

// IncKeyCommit counts one commit admitted on the per-key commuting path.
func (r *Registry) IncKeyCommit() { r.keyCommits.Add(1) }

// IncShardFallback counts one planned commit that fell back to shard locks.
func (r *Registry) IncShardFallback() { r.shardFallbacks.Add(1) }

// IncCoarseCommit counts one unplanned mutating commit applied under the
// full (or env-assert) lock set. Every mutating store commit is exactly
// one of key / fallback / coarse — the audited-ladder invariant.
func (r *Registry) IncCoarseCommit() { r.coarseCommits.Add(1) }

// IncFootprintPlan counts one transaction execution the footprint planner
// planned (the commuting fast path's and the epoch read path's intake) or
// could not plan. Every execution is exactly one of the two.
func (r *Registry) IncFootprintPlan(planned bool) {
	if planned {
		r.footprintPlanned.v.Add(1)
	} else {
		r.footprintUnplanned.v.Add(1)
	}
}

// ObserveGroupBatch records the number of commits one group-commit drain
// applied (always on; one observation per drain, not per commit).
func (r *Registry) ObserveGroupBatch(n int) { r.groupBatch.Observe(uint64(n)) }

// IncEpochRead counts one lock-free epoch snapshot read.
func (r *Registry) IncEpochRead() { r.epochReads.Add(1) }

// IncEpochRebuild counts one epoch snapshot rebuild.
func (r *Registry) IncEpochRebuild() { r.epochRebuilds.Add(1) }

// IncEpochFallback counts one epoch read invalidated by a concurrent commit.
func (r *Registry) IncEpochFallback() { r.epochFallbacks.Add(1) }

// ObserveFootprint records the number of shards an update write-locked.
// Gated: call only when Observed.
func (r *Registry) ObserveFootprint(shards int) { r.footprint.Observe(uint64(shards)) }

// ObserveWakeupFanout records the number of subscriptions a commit woke.
// Gated: call only when Observed.
func (r *Registry) ObserveWakeupFanout(n int) { r.wakeupFanout.Observe(uint64(n)) }

// SubscriptionsLive is the gauge of currently registered subscriptions:
// one per blocked delayed transaction or guarded selection.
func (r *Registry) SubscriptionsLive() *Gauge { return &r.subsLive }

// IncReactiveSignal counts one subscription candidate inspected during a
// commit's delta delivery (whether or not it was ultimately woken).
func (r *Registry) IncReactiveSignal() { r.reactiveSignals.Add(1) }

// IncReactiveSuppressed counts one subscription candidate whose deltas all
// filtered to nothing — the wakeup a covering commit would otherwise have
// issued was suppressed at the publisher.
func (r *Registry) IncReactiveSuppressed() { r.reactiveSuppressed.Add(1) }

// IncReactiveEval counts one guard re-evaluation after a subscription
// fired. Every eval is exactly one of hit / fallback — the audited
// invariant.
func (r *Registry) IncReactiveEval() { r.reactiveEvals.Add(1) }

// IncReactiveHit counts one re-evaluation driven by a concrete delta batch.
func (r *Registry) IncReactiveHit() { r.reactiveHits.Add(1) }

// IncReactiveFallback counts one re-evaluation that fell back to a full
// re-query (guard not delta-safe, broad/spurious wakeup, or empty batch).
func (r *Registry) IncReactiveFallback() { r.reactiveFallbacks.Add(1) }

// IncReactiveWasted counts one re-evaluation after a wakeup that found the
// guard still unsatisfied and blocked again. It is at most the evaluations.
func (r *Registry) IncReactiveWasted() { r.reactiveWasted.Add(1) }

// IncProcessSpawned counts one process started by the process runtime.
func (r *Registry) IncProcessSpawned() { r.processesSpawned.Add(1) }

// ProcessesSpawned returns the number of processes ever started.
func (r *Registry) ProcessesSpawned() uint64 { return r.processesSpawned.Value() }

// ProcessesLive is the gauge of processes started and not yet terminated.
func (r *Registry) ProcessesLive() *Gauge { return &r.processesLive }

// IncIndexPromotion counts one secondary-index shape promotion.
func (r *Registry) IncIndexPromotion() { r.idxPromotions.Add(1) }

// IncIndexDemotion counts one secondary-index shape demotion.
func (r *Registry) IncIndexDemotion() { r.idxDemotions.Add(1) }

// AddFieldScans records one batch of non-lead field scans: indexed scans
// served by a promoted field index, arity scans that fell back to the full
// per-shard arity walk, and the tuple candidates the batch delivered.
// Every field scan is exactly one of indexed / arity — the audited-ladder
// invariant mirroring the commit-path counters.
func (r *Registry) AddFieldScans(indexed, arity, visited uint64) {
	if indexed+arity == 0 {
		return
	}
	r.idxFieldScans.Add(indexed + arity)
	if indexed > 0 {
		r.idxScans.Add(indexed)
	}
	if arity > 0 {
		r.idxArityScans.Add(arity)
	}
	if visited > 0 {
		r.idxTuples.Add(visited)
	}
}

// IncConsensusKickSuppressed counts one commit that left the consensus gate
// no work: it touched no bucket imported by a fully offered consensus set
// and could not have changed the partition into sets.
func (r *Registry) IncConsensusKickSuppressed() { r.consensusKicksSuppressed.Add(1) }

// ObserveCheckpointWrite records a WriteCheckpoint duration.
func (r *Registry) ObserveCheckpointWrite(d time.Duration) {
	r.checkpointWrite.Observe(uint64(d.Nanoseconds()))
}

// ObserveCheckpointRead records one checkpoint read — decode plus install —
// by ReadCheckpoint or by WAL recovery.
func (r *Registry) ObserveCheckpointRead(d time.Duration) {
	r.checkpointRead.Observe(uint64(d.Nanoseconds()))
}

// --- recording (write-ahead log) ---

// IncWalAppend counts one commit record appended to the WAL, n frame bytes
// long. Safe on a nil receiver: the log may run without a registry.
func (r *Registry) IncWalAppend(n int) {
	if r == nil {
		return
	}
	r.walAppends.Add(1)
	r.walAppendBytes.Add(uint64(n))
}

// WalAppends returns the number of records appended to the WAL.
func (r *Registry) WalAppends() uint64 { return r.walAppends.Value() }

// ObserveWalSync counts one fsync covering n newly durable records.
func (r *Registry) ObserveWalSync(n uint64) {
	if r == nil {
		return
	}
	r.walSyncs.Add(1)
	r.walSyncCover.Observe(n)
}

// IncWalSegment counts one segment rotation.
func (r *Registry) IncWalSegment() {
	if r != nil {
		r.walSegments.Add(1)
	}
}

// ObserveWalRecovery records one completed recovery: replayed records,
// version gaps (versions missing inside the replayed suffix:
// RecoveryStats.Gaps), and the wall time.
func (r *Registry) ObserveWalRecovery(replayed, discarded uint64, d time.Duration) {
	if r == nil {
		return
	}
	r.walRecovered.Add(replayed)
	r.walDiscarded.Add(discarded)
	r.walRecoveries.Add(1)
	r.walRecoveryTime.Observe(uint64(d.Nanoseconds()))
}

// --- recording (transaction engine / consensus) ---

// IncTxnAttempt counts one execution of a kind-k transaction.
func (r *Registry) IncTxnAttempt(k TxnKind) { r.txn[k].attempts.v.Add(1) }

// IncTxnCommit counts one successful kind-k transaction.
func (r *Registry) IncTxnCommit(k TxnKind) { r.txn[k].commits.v.Add(1) }

// IncTxnRetry counts one aborted consensus fire; immediate and delayed
// transactions evaluate once per execution and never retry.
func (r *Registry) IncTxnRetry(k TxnKind) { r.txn[k].retries.v.Add(1) }

// IncTxnBlock counts one process block.
func (r *Registry) IncTxnBlock(k TxnKind) { r.txn[k].blocks.v.Add(1) }

// IncSharedRead counts one execution served by the engine's shared read
// path: a statically read-only transaction, evaluated without any
// exclusive lock. Every one is also an attempt of its kind.
func (r *Registry) IncSharedRead() { r.sharedReads.v.Add(1) }

// TxnAttempts returns the kind's execution count.
func (r *Registry) TxnAttempts(k TxnKind) uint64 { return r.txn[k].attempts.v.Load() }

// ObserveTxnLatency records one execution's duration. Gated: call only
// when Observed.
func (r *Registry) ObserveTxnLatency(k TxnKind, d time.Duration) {
	r.txnLatency[k].Observe(uint64(d.Nanoseconds()))
}

// IncConsensusRound counts one evaluation of the consensus gate: a firing
// attempt, run by a drain, for a consensus set the gate admitted (fully
// offered and dirty).
func (r *Registry) IncConsensusRound() { r.consensusRounds.Add(1) }

// ObserveCommunity records the size of a fired consensus set.
func (r *Registry) ObserveCommunity(n int) { r.consensusCommunity.Observe(uint64(n)) }

// --- snapshot ---

// Snapshot is a point-in-time copy of every instrument, suitable for JSON
// export (the expvar endpoint serves exactly this).
type Snapshot struct {
	Observed bool `json:"observed"`

	Shards       []ShardCounters `json:"shards"`
	StoreCommits uint64          `json:"storeCommits"`

	KeyCommits     uint64            `json:"keyCommits"`     // commits on the per-key commuting path
	ShardFallbacks uint64            `json:"shardFallbacks"` // planned commits demoted to shard locks
	CoarseCommits  uint64            `json:"coarseCommits"`  // unplanned commits under the full lock set
	GroupBatch     HistogramSnapshot `json:"groupBatch"`     // commits per group-commit drain
	EpochReads     uint64            `json:"epochReads"`     // lock-free snapshot reads
	EpochRebuilds  uint64            `json:"epochRebuilds"`  // snapshot rebuilds
	EpochFallbacks uint64            `json:"epochFallbacks"` // epoch reads that fell back to locking

	Txn         map[string]TxnCounters       `json:"txn"`
	TxnLatency  map[string]HistogramSnapshot `json:"txnLatencyNs"`
	SharedReads uint64                       `json:"sharedReads"` // executions served by the shared read path (no exclusive lock)

	FootprintPlanned   uint64 `json:"footprintPlanned"`   // executions with an exact footprint plan
	FootprintUnplanned uint64 `json:"footprintUnplanned"` // executions without one (whole-store path)

	Footprint    HistogramSnapshot `json:"footprintShards"`
	WakeupFanout HistogramSnapshot `json:"wakeupFanout"`

	ReactiveSubscriptions    int64  `json:"reactiveSubscriptions"`    // live subscription gauge
	ReactiveSignals          uint64 `json:"reactiveSignals"`          // subscription candidates inspected by commits
	ReactiveSuppressed       uint64 `json:"reactiveSuppressed"`       // candidates suppressed (no relevant delta)
	ReactiveEvals            uint64 `json:"reactiveWakeupEvals"`      // guard re-evaluations after a subscription fired
	ReactiveHits             uint64 `json:"reactiveDeltaHits"`        // of those, driven by a concrete delta batch
	ReactiveFallbacks        uint64 `json:"reactiveFallbacks"`        // of those, full re-queries
	ReactiveWasted           uint64 `json:"reactiveWakeupsWasted"`    // of those, evaluations that blocked again
	ConsensusKicksSuppressed uint64 `json:"consensusKicksSuppressed"` // commits that left the consensus gate nothing to do

	SecondaryPromotions    uint64 `json:"secondaryPromotions"`    // field-index shape promotions (cold -> hot)
	SecondaryDemotions     uint64 `json:"secondaryDemotions"`     // field-index shape demotions: writes and lost comparisons outran the scans served
	SecondaryFieldScans    uint64 `json:"secondaryFieldScans"`    // non-lead field scans, any access path
	SecondaryIndexedScans  uint64 `json:"secondaryIndexedScans"`  // of those, served by a promoted field index
	SecondaryArityScans    uint64 `json:"secondaryArityScans"`    // of those, full per-shard arity walks
	SecondaryTuplesVisited uint64 `json:"secondaryTuplesVisited"` // tuple candidates delivered by field scans

	ProcessesSpawned uint64 `json:"processesSpawned"` // processes ever started
	ProcessesLive    int64  `json:"processesLive"`    // processes started and not yet terminated

	ConsensusRounds    uint64            `json:"consensusRounds"` // consensus gate evaluations (firing attempts)
	ConsensusCommunity HistogramSnapshot `json:"consensusCommunity"`

	CheckpointWrite HistogramSnapshot `json:"checkpointWriteNs"`
	CheckpointRead  HistogramSnapshot `json:"checkpointReadNs"`

	WalAppends      uint64            `json:"walAppends"`     // commit records appended to the WAL
	WalAppendBytes  uint64            `json:"walAppendBytes"` // frame bytes appended
	WalSyncs        uint64            `json:"walSyncs"`       // fsync calls
	WalSyncCover    HistogramSnapshot `json:"walSyncCover"`   // records durable per fsync
	WalSegments     uint64            `json:"walSegments"`    // segment rotations
	WalRecovered    uint64            `json:"walRecovered"`   // records replayed during recovery
	WalDiscarded    uint64            `json:"walDiscarded"`   // version gaps found by recovery (Σ RecoveryStats.Gaps)
	WalRecoveries   uint64            `json:"walRecoveries"`  // completed recoveries
	WalRecoveryTime HistogramSnapshot `json:"walRecoveryNs"`  // ns per recovery

	Explain []ExplainSite `json:"explain"` // per transaction site, sorted by site; recorded while observed
}

// TotalAttempts sums transaction attempts across kinds.
func (s Snapshot) TotalAttempts() uint64 {
	var n uint64
	for _, c := range s.Txn {
		n += c.Attempts
	}
	return n
}

// TotalCommits sums transaction commits across kinds.
func (s Snapshot) TotalCommits() uint64 {
	var n uint64
	for _, c := range s.Txn {
		n += c.Commits
	}
	return n
}

// ShardLockTotals sums lock acquisitions across shards.
func (s Snapshot) ShardLockTotals() (reads, writes uint64) {
	for _, sc := range s.Shards {
		reads += sc.ReadLocks
		writes += sc.WriteLocks
	}
	return reads, writes
}

// KeyLockTotal sums per-key latch acquisitions across shards.
func (s Snapshot) KeyLockTotal() uint64 {
	var n uint64
	for _, sc := range s.Shards {
		n += sc.KeyLocks
	}
	return n
}

// Snapshot copies every instrument.
func (r *Registry) Snapshot() Snapshot {
	counts := make([]uint64, histCells()) // every histogram's counts, one block
	s := Snapshot{
		Observed:                 r.observed.Load(),
		Shards:                   make([]ShardCounters, len(r.shards)),
		StoreCommits:             r.commits.Value(),
		KeyCommits:               r.keyCommits.Value(),
		ShardFallbacks:           r.shardFallbacks.Value(),
		CoarseCommits:            r.coarseCommits.Value(),
		GroupBatch:               r.groupBatch.snapshot(&counts),
		EpochReads:               r.epochReads.Value(),
		EpochRebuilds:            r.epochRebuilds.Value(),
		EpochFallbacks:           r.epochFallbacks.Value(),
		Txn:                      make(map[string]TxnCounters, int(numTxnKinds)),
		TxnLatency:               make(map[string]HistogramSnapshot, int(numTxnKinds)),
		SharedReads:              r.sharedReads.v.Load(),
		FootprintPlanned:         r.footprintPlanned.v.Load(),
		FootprintUnplanned:       r.footprintUnplanned.v.Load(),
		Footprint:                r.footprint.snapshot(&counts),
		WakeupFanout:             r.wakeupFanout.snapshot(&counts),
		ReactiveSubscriptions:    r.subsLive.Value(),
		ReactiveSignals:          r.reactiveSignals.Value(),
		ReactiveSuppressed:       r.reactiveSuppressed.Value(),
		ReactiveEvals:            r.reactiveEvals.Value(),
		ReactiveHits:             r.reactiveHits.Value(),
		ReactiveFallbacks:        r.reactiveFallbacks.Value(),
		ReactiveWasted:           r.reactiveWasted.Value(),
		ProcessesSpawned:         r.processesSpawned.Value(),
		ProcessesLive:            r.processesLive.Value(),
		ConsensusKicksSuppressed: r.consensusKicksSuppressed.Value(),
		SecondaryPromotions:      r.idxPromotions.Value(),
		SecondaryDemotions:       r.idxDemotions.Value(),
		SecondaryFieldScans:      r.idxFieldScans.Value(),
		SecondaryIndexedScans:    r.idxScans.Value(),
		SecondaryArityScans:      r.idxArityScans.Value(),
		SecondaryTuplesVisited:   r.idxTuples.Value(),
		ConsensusRounds:          r.consensusRounds.Value(),
		ConsensusCommunity:       r.consensusCommunity.snapshot(&counts),
		CheckpointWrite:          r.checkpointWrite.snapshot(&counts),
		CheckpointRead:           r.checkpointRead.snapshot(&counts),
		WalAppends:               r.walAppends.Value(),
		WalAppendBytes:           r.walAppendBytes.Value(),
		WalSyncs:                 r.walSyncs.Value(),
		WalSyncCover:             r.walSyncCover.snapshot(&counts),
		WalSegments:              r.walSegments.Value(),
		WalRecovered:             r.walRecovered.Value(),
		WalDiscarded:             r.walDiscarded.Value(),
		WalRecoveries:            r.walRecoveries.Value(),
		WalRecoveryTime:          r.walRecoveryTime.snapshot(&counts),
		Explain:                  r.explain.snapshot(),
	}
	for i := range r.shards {
		s.Shards[i] = ShardCounters{
			ReadLocks:  r.shards[i].readLocks.v.Load(),
			WriteLocks: r.shards[i].writeLocks.v.Load(),
			KeyLocks:   r.shards[i].keyLocks.v.Load(),
		}
	}
	for k := TxnKind(0); k < numTxnKinds; k++ {
		s.Txn[k.String()] = TxnCounters{
			Attempts: r.txn[k].attempts.v.Load(),
			Commits:  r.txn[k].commits.v.Load(),
			Retries:  r.txn[k].retries.v.Load(),
			Blocks:   r.txn[k].blocks.v.Load(),
		}
		s.TxnLatency[k.String()] = r.txnLatency[k].snapshot(&counts)
	}
	return s
}
