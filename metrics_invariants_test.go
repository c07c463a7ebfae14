package sdl

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/metrics"
)

// Metrics invariants over a whole System run: the observability layer's
// counters must agree with the ground truth the commit log records, per
// kind and in aggregate, and the waiter gauge must drain when the system
// shuts down.
func TestSystemMetricsInvariants(t *testing.T) {
	for _, name := range stableIDs {
		t.Run(name, systemMetricsInvariants)
	}
}

// stableIDs name the subtests of the scenarios that once ran under each of
// the engine's two concurrency-control modes. The engine has one now; every
// scenario still runs under both names, so the suite's test IDs stay stable.
var stableIDs = []string{"coarse", "optimistic"}

func systemMetricsInvariants(t *testing.T) {
	sys := New(Options{Shards: 4})
	clog := NewCommitLog()
	clog.Attach(sys.Store)
	sys.Metrics().SetObserved(true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Workload: immediate increments on per-worker counters, plus delayed
	// consumers fed by a producer, so both kinds record.
	const workers = 4
	const ops = 100
	for w := 0; w < workers; w++ {
		sys.Store.Assert(Environment, NewTuple(Atom(fmt.Sprintf("ctr%d", w)), Int(0)))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lead := Atom(fmt.Sprintf("ctr%d", w))
			for i := 0; i < ops; i++ {
				res, err := sys.Immediate(Request{
					Proc:    ProcessID(w + 1),
					View:    Universal(),
					Query:   Q(R(C(lead), V("n"))),
					Asserts: []Pattern{P(C(lead), E(Add(X("n"), Lit(Int(1)))))},
				})
				if err != nil || !res.OK {
					t.Errorf("worker %d op %d: res=%+v err=%v", w, i, res, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			res, err := sys.Delayed(ctx, Request{
				Proc:    ProcessID(100),
				View:    Universal(),
				Query:   Q(R(C(Atom("job")), V("v"))),
				Asserts: []Pattern{P(C(Atom("done")), V("v"))},
			})
			if err != nil || !res.OK {
				t.Errorf("consumer %d: res=%+v err=%v", i, res, err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		sys.Store.Assert(Environment, NewTuple(Atom("job"), Int(int64(i))))
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	snap := sys.Snapshot()

	// Commit counters equal the transitions the commit log observed, minus
	// the environment's direct Asserts (which bypass the engine but still
	// commit on the store).
	records := uint64(clog.Len())
	if snap.StoreCommits != records {
		t.Errorf("store commits %d, commit records %d", snap.StoreCommits, records)
	}
	const envAsserts = workers + 10
	if got := snap.TotalCommits(); got != records-envAsserts {
		t.Errorf("txn commits %d, want %d (records %d - env asserts %d)",
			got, records-envAsserts, records, envAsserts)
	}

	// Attempts dominate commits, per kind and in total.
	if snap.TotalAttempts() < snap.TotalCommits() {
		t.Errorf("attempts %d < commits %d", snap.TotalAttempts(), snap.TotalCommits())
	}
	for kind, c := range snap.Txn {
		if c.Attempts < c.Commits {
			t.Errorf("%s: attempts %d < commits %d", kind, c.Attempts, c.Commits)
		}
		// One latency observation per attempt while observed, and bucket
		// counts internally consistent.
		lat := snap.TxnLatency[kind]
		if lat.Count != c.Attempts {
			t.Errorf("%s: latency count %d, attempts %d", kind, lat.Count, c.Attempts)
		}
		var buckets uint64
		for _, n := range lat.Counts {
			buckets += n
		}
		if buckets != lat.Count {
			t.Errorf("%s: bucket sum %d, count %d", kind, buckets, lat.Count)
		}
	}
	// An immediate or delayed transaction evaluates once per execution;
	// aborted consensus fires are the only retries.
	for _, kind := range []string{"immediate", "delayed"} {
		if r := snap.Txn[kind].Retries; r != 0 {
			t.Errorf("%s: %d retries, want 0", kind, r)
		}
	}
	if imm := snap.Txn["immediate"]; imm.Commits != workers*ops {
		t.Errorf("immediate commits %d, want %d", imm.Commits, workers*ops)
	}
	if del := snap.Txn["delayed"]; del.Commits != 10 {
		t.Errorf("delayed commits %d, want 10", del.Commits)
	}

	// Lock discipline: the 4-shard registry exposes per-shard resolution,
	// and every environment Assert write-locked at least one shard. (Write
	// locks no longer dominate commits: group commit drains a whole batch
	// of key-mode commits under one acquisition.)
	if len(snap.Shards) != 4 {
		t.Fatalf("shard counters = %d, want 4", len(snap.Shards))
	}
	if _, writes := snap.ShardLockTotals(); writes < envAsserts {
		t.Errorf("write locks %d < env asserts %d", writes, envAsserts)
	}

	// Commutativity-aware commit path accounting. Every engine commit in
	// this workload is planned (concrete leads, universal views), so each
	// one either committed under key latches or was demoted to shard
	// locking — nothing else.
	if got := snap.KeyCommits + snap.ShardFallbacks; got != snap.TotalCommits() {
		t.Errorf("key commits %d + shard fallbacks %d = %d, want %d engine commits",
			snap.KeyCommits, snap.ShardFallbacks, got, snap.TotalCommits())
	}
	// The full commit-path ladder: every mutating store commit is exactly
	// one of key-latched, shard-fallback, or coarse. The environment's
	// direct Asserts are this workload's only coarse commits.
	if got := snap.KeyCommits + snap.ShardFallbacks + snap.CoarseCommits; got != snap.StoreCommits {
		t.Errorf("commit ladder: key %d + fallback %d + coarse %d = %d, want %d store commits",
			snap.KeyCommits, snap.ShardFallbacks, snap.CoarseCommits, got, snap.StoreCommits)
	}
	if snap.CoarseCommits != envAsserts {
		t.Errorf("coarse commits %d, want %d (env asserts only)", snap.CoarseCommits, envAsserts)
	}
	// Footprint planning accounting: every execution is counted planned or
	// unplanned exactly once, and every execution here is planned.
	plannerBalanced(t, "workload", snap)
	if snap.FootprintUnplanned != 0 {
		t.Errorf("%d unplanned executions on a workload of concrete leads under universal views, want 0",
			snap.FootprintUnplanned)
	}
	// Group-commit batches contain only key-mode commits (multi-shard key
	// commits publish directly), batch sizes are at least one, and every
	// key commit acquired at least one key latch.
	if snap.GroupBatch.Sum > snap.KeyCommits {
		t.Errorf("group-batched commits %d > key commits %d", snap.GroupBatch.Sum, snap.KeyCommits)
	}
	if snap.GroupBatch.Sum < snap.GroupBatch.Count {
		t.Errorf("group batch sum %d < batch count %d (empty batch observed)",
			snap.GroupBatch.Sum, snap.GroupBatch.Count)
	}
	if snap.KeyLockTotal() < snap.KeyCommits {
		t.Errorf("key-latch acquisitions %d < key commits %d", snap.KeyLockTotal(), snap.KeyCommits)
	}
	// This workload is write-only from the engine's perspective (every
	// query retracts), so the shared read path must not have engaged.
	if snap.SharedReads != 0 || snap.EpochReads != 0 {
		t.Errorf("shared reads %d, epoch reads %d on a retract-only workload, want 0",
			snap.SharedReads, snap.EpochReads)
	}

	// Shared read path: statically read-only queries take no exclusive
	// lock, and the planned ones evaluate lock-free on epoch
	// snapshots. With no concurrent writers every epoch read must validate,
	// and each touched shard's snapshot is rebuilt at most once. Half
	// the reads are planned point reads; the other half alternate between
	// an unplanned scan and a failing query.
	const reads = 50
	for i := 0; i < reads; i++ {
		res, err := sys.Immediate(Request{
			Proc:  ProcessID(1),
			View:  Universal(),
			Query: Q(P(C(Atom("ctr0")), V("n"))),
		})
		if err != nil || !res.OK {
			t.Fatalf("read %d: res=%+v err=%v", i, res, err)
		}
		q, want := Q(P(V("k"), V("n"))), true
		if i%2 == 1 {
			q, want = Q(P(C(Atom("absent")), V("n"))), false
		}
		res, err = sys.Immediate(Request{Proc: ProcessID(1), View: Universal(), Query: q})
		if err != nil || res.OK != want {
			t.Fatalf("read %d (second): res=%+v err=%v, want OK=%v", i, res, err, want)
		}
	}
	after := sys.Snapshot()
	if got := after.SharedReads - snap.SharedReads; got != 2*reads {
		t.Errorf("shared reads %d, want %d", got, 2*reads)
	}
	if after.SharedReads > after.TotalAttempts() {
		t.Errorf("shared reads %d > attempts %d", after.SharedReads, after.TotalAttempts())
	}
	// Every planned read is an epoch read, bar the few a stale snapshot
	// declines before its rebuild is earned: fewer than its shard holds.
	const planned = reads + reads/2
	if got := after.EpochReads - snap.EpochReads; got > planned || planned-got >= uint64(sys.Store.Len()) {
		t.Errorf("epoch reads %d of %d planned reads over a %d-tuple store", got, planned, sys.Store.Len())
	}
	if after.EpochFallbacks != snap.EpochFallbacks {
		t.Errorf("epoch fallbacks %d with no concurrent writers, want 0",
			after.EpochFallbacks-snap.EpochFallbacks)
	}
	if after.EpochRebuilds == 0 {
		t.Error("epoch reads ran but no snapshot was ever rebuilt")
	}
	// Reads commit without store commits, exclusive shard locks or key
	// latches: each of these moves by exactly zero.
	if after.KeyCommits != snap.KeyCommits || after.StoreCommits != snap.StoreCommits {
		t.Errorf("read-only phase changed commit counters: key %d->%d store %d->%d",
			snap.KeyCommits, after.KeyCommits, snap.StoreCommits, after.StoreCommits)
	}
	_, writesBefore := snap.ShardLockTotals()
	_, writesAfter := after.ShardLockTotals()
	if writesAfter != writesBefore || after.KeyLockTotal() != snap.KeyLockTotal() {
		t.Errorf("read-only phase took exclusive locks: shard write locks %d->%d, key latches %d->%d",
			writesBefore, writesAfter, snap.KeyLockTotal(), after.KeyLockTotal())
	}
	if got := after.TotalCommits() - snap.TotalCommits(); got != planned {
		t.Errorf("engine commits grew by %d over the read phase, want %d (the successful reads)", got, planned)
	}

	// View-restricted requests are planned at run time iff the view is
	// plannable: under a pure pattern view an upsert takes the key-latch
	// path; under a view with a dynamic matcher — which may consult any
	// bucket — the identical upsert serializes on the whole-store lock.
	ctrPat := P(C(Atom("ctr0")), W())
	upsert := func(v View) Request {
		return Request{
			Proc:    ProcessID(2),
			View:    v,
			Query:   Q(R(C(Atom("ctr0")), V("n"))),
			Asserts: []Pattern{P(C(Atom("ctr0")), E(Add(X("n"), Lit(Int(1)))))},
		}
	}
	pre := sys.Snapshot()
	const patViewOps = 20
	for i := 0; i < patViewOps; i++ {
		if res, err := sys.Immediate(upsert(NewView(Union(Pat(ctrPat)), Union(Pat(ctrPat))))); err != nil || !res.OK {
			t.Fatalf("pattern-view op %d: res=%+v err=%v", i, res, err)
		}
	}
	mid := sys.Snapshot()
	if got := mid.KeyCommits - pre.KeyCommits; got != patViewOps {
		t.Errorf("pattern-view phase: key commits grew by %d, want %d", got, patViewOps)
	}
	if mid.CoarseCommits != pre.CoarseCommits {
		t.Errorf("pattern-view phase took %d coarse commits, want 0", mid.CoarseCommits-pre.CoarseCommits)
	}
	if got := mid.FootprintPlanned - pre.FootprintPlanned; got != patViewOps {
		t.Errorf("pattern-view phase: planned executions grew by %d, want %d", got, patViewOps)
	}
	dyn := Union(Dyn(2, func(Reader, Env, Tuple) bool { return true }))
	const dynViewOps = 5
	for i := 0; i < dynViewOps; i++ {
		if res, err := sys.Immediate(upsert(NewView(dyn, dyn))); err != nil || !res.OK {
			t.Fatalf("dynamic-view op %d: res=%+v err=%v", i, res, err)
		}
	}
	post := sys.Snapshot()
	if got := post.CoarseCommits - mid.CoarseCommits; got != dynViewOps {
		t.Errorf("dynamic-view phase: coarse commits grew by %d, want %d", got, dynViewOps)
	}
	if post.KeyCommits != mid.KeyCommits {
		t.Errorf("dynamic-view phase took %d key commits, want 0", post.KeyCommits-mid.KeyCommits)
	}
	if got := post.FootprintUnplanned - mid.FootprintUnplanned; got != dynViewOps {
		t.Errorf("dynamic-view phase: unplanned executions grew by %d, want %d", got, dynViewOps)
	}
	plannerBalanced(t, "view phases", post)
	if got := post.KeyCommits + post.ShardFallbacks + post.CoarseCommits; got != post.StoreCommits {
		t.Errorf("commit ladder after view phases: key %d + fallback %d + coarse %d = %d, want %d",
			post.KeyCommits, post.ShardFallbacks, post.CoarseCommits, got, post.StoreCommits)
	}

	// Reactive delta-wakeup accounting: every guard re-evaluation after a
	// subscription fired was either driven by a concrete delta batch or
	// fell back to a full re-query — nothing else; a commit can suppress at
	// most the signals it raised; and the consensus gate can only
	// elide kicks that commits actually offered.
	if got := post.ReactiveHits + post.ReactiveFallbacks; got != post.ReactiveEvals {
		t.Errorf("reactive evals %d != hits %d + fallbacks %d",
			post.ReactiveEvals, post.ReactiveHits, post.ReactiveFallbacks)
	}
	if post.ReactiveWasted > post.ReactiveEvals {
		t.Errorf("reactive wasted wakeups %d > evals %d", post.ReactiveWasted, post.ReactiveEvals)
	}
	if post.ReactiveSuppressed > post.ReactiveSignals {
		t.Errorf("reactive suppressed %d > signals %d",
			post.ReactiveSuppressed, post.ReactiveSignals)
	}
	if post.ConsensusKicksSuppressed > post.StoreCommits {
		t.Errorf("consensus kicks suppressed %d > store commits %d",
			post.ConsensusKicksSuppressed, post.StoreCommits)
	}
	// Every delayed block registered a subscription wait that ended in
	// exactly one re-evaluation (this workload cancels nothing).
	if del := post.Txn["delayed"]; post.ReactiveEvals != del.Blocks {
		t.Errorf("reactive evals %d != delayed blocks %d", post.ReactiveEvals, del.Blocks)
	}

	// Secondary-index accounting: every non-lead field scan is served by
	// exactly one access path — a promoted field index or the arity-walk
	// fallback — so the two access-path counters partition the total, and
	// a field-addressed read phase heavy enough to cross the promotion
	// bar must move both the promotion counter and the indexed-scan
	// counter.
	for i := 0; i < 40; i++ {
		sys.Store.Assert(Environment, NewTuple(Int(int64(1000+i)), Atom("mark"), Int(int64(i%4))))
	}
	preSec := sys.Snapshot()
	const fieldReads = 30
	for i := 0; i < fieldReads; i++ {
		res, err := sys.Immediate(Request{
			Proc:  ProcessID(3),
			View:  Universal(),
			Query: Q(P(V("x"), C(Atom("mark")), C(Int(int64(i%4))))),
		})
		if err != nil || !res.OK {
			t.Fatalf("field read %d: res=%+v err=%v", i, res, err)
		}
	}
	secSnap := sys.Snapshot()
	if got := secSnap.SecondaryIndexedScans + secSnap.SecondaryArityScans; got != secSnap.SecondaryFieldScans {
		t.Errorf("secondary access paths: indexed %d + arity %d = %d, want %d field scans",
			secSnap.SecondaryIndexedScans, secSnap.SecondaryArityScans, got, secSnap.SecondaryFieldScans)
	}
	if secSnap.SecondaryFieldScans == preSec.SecondaryFieldScans {
		t.Error("field-addressed phase recorded no field scans")
	}
	if secSnap.SecondaryPromotions == 0 {
		t.Error("scan pressure promoted no shape")
	}
	if secSnap.SecondaryIndexedScans == preSec.SecondaryIndexedScans {
		t.Error("no scan was served by a promoted index after the promotion bar")
	}
	if secSnap.SecondaryDemotions > secSnap.SecondaryPromotions {
		t.Errorf("secondary demotions %d > promotions %d", secSnap.SecondaryDemotions, secSnap.SecondaryPromotions)
	}

	// All waiters were satisfied, and shutdown leaves the gauge at zero.
	sys.Close()
	if d := sys.Snapshot().ReactiveSubscriptions; d != 0 {
		t.Errorf("live subscriptions %d after Close, want 0", d)
	}
}

// plannerBalanced checks the audited planner invariant: the engine runs the
// footprint planner once per immediate or delayed execution (consensus
// fires lock on their own), so planned + unplanned executions equal those
// executions.
func plannerBalanced(t *testing.T, phase string, s MetricsSnapshot) {
	t.Helper()
	execs := s.Txn["immediate"].Attempts + s.Txn["delayed"].Attempts
	if got := s.FootprintPlanned + s.FootprintUnplanned; got != execs {
		t.Errorf("%s: planned %d + unplanned %d = %d, want %d immediate + delayed executions",
			phase, s.FootprintPlanned, s.FootprintUnplanned, got, execs)
	}
}

// The live-subscription gauge must drain even when blocked delayed
// transactions are cancelled rather than satisfied.
func TestMetricsSubscriptionsDrainOnCancel(t *testing.T) {
	sys := New(Options{})
	defer sys.Close()
	live := func() int64 { return sys.Snapshot().ReactiveSubscriptions }
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := sys.Delayed(ctx, Request{
				Proc:  ProcessID(i + 1),
				View:  Universal(),
				Query: Q(R(C(Atom("never")), C(Int(int64(i))))),
			})
			if err == nil {
				t.Error("cancelled delayed txn returned nil error")
			}
		}(i)
	}
	// Wait until every waiter has subscribed, then cancel them all.
	deadline := time.Now().Add(5 * time.Second)
	for live() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never subscribed: %d live", live())
		}
		time.Sleep(time.Millisecond)
	}
	if n := live(); n != 8 {
		t.Errorf("live subscriptions %d, want 8", n)
	}
	cancel()
	wg.Wait()
	if n := live(); n != 0 {
		t.Errorf("live subscriptions %d after cancellation, want 0", n)
	}
}

// The process gauges audit the society: every process a run spawned is
// counted once, SpawnCount reads the same counter, and once Wait returns the
// live gauge is back at zero.
func TestMetricsProcessesDrainOnWait(t *testing.T) {
	sys := New(Options{})
	defer sys.Close()
	const waiters = 16
	if err := sys.Runtime.Define(&Definition{
		Name:   "Waiter",
		Params: []string{"i"},
		Body: []Stmt{Transact{Kind: Delayed,
			Query:   Q(R(C(Atom("job")), V("i"))),
			Asserts: []Pattern{P(C(Atom("done")), V("i"))}}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		if _, err := sys.Runtime.Spawn("Waiter", Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.Snapshot().ProcessesLive; n < 1 || n > waiters {
		t.Errorf("live processes %d while waiting, want 1..%d", n, waiters)
	}
	for i := 0; i < waiters; i++ {
		sys.Store.Assert(Environment, NewTuple(Atom("job"), Int(int64(i))))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Runtime.WaitCtx(ctx); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	if snap.ProcessesLive != 0 || sys.Runtime.Running() != 0 {
		t.Errorf("live processes %d (Running %d) after Wait, want 0", snap.ProcessesLive, sys.Runtime.Running())
	}
	if snap.ProcessesSpawned != waiters || sys.Runtime.SpawnCount() != snap.ProcessesSpawned {
		t.Errorf("spawned %d, SpawnCount %d, want both %d", snap.ProcessesSpawned, sys.Runtime.SpawnCount(), waiters)
	}
}

// Under the spurious-wakeup fault every commit wakes every blocked waiter for
// a full re-query; a waiter whose guard is still false blocks again, and
// each such evaluation is counted wasted: wasted > 0, and wasted <= evals ==
// hits + fallbacks.
func TestMetricsWastedWakeupsUnderSpuriousFault(t *testing.T) {
	sys := New(Options{Scheduler: NewScheduler(1, SchedFaults{SpuriousWakeup: 255})})
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.Delayed(ctx, Request{Proc: 1, View: Universal(), Query: Q(R(C(Atom("go"))))})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sys.Snapshot().ReactiveWasted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no wasted wakeup under the spurious-wakeup fault: %+v", sys.Snapshot().Txn["delayed"])
		}
		sys.Store.Assert(Environment, NewTuple(Atom("noise")))
		time.Sleep(time.Millisecond)
	}
	sys.Store.Assert(Environment, NewTuple(Atom("go")))
	if err := <-done; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	cancel()
	snap := sys.Snapshot()
	if snap.ReactiveWasted == 0 || snap.ReactiveWasted > snap.ReactiveEvals {
		t.Errorf("wasted %d, evals %d: want 0 < wasted <= evals", snap.ReactiveWasted, snap.ReactiveEvals)
	}
	if snap.ReactiveEvals != snap.ReactiveHits+snap.ReactiveFallbacks {
		t.Errorf("evals %d != hits %d + fallbacks %d", snap.ReactiveEvals, snap.ReactiveHits, snap.ReactiveFallbacks)
	}
	// The one evaluation that committed is the only one not wasted.
	if snap.ReactiveWasted != snap.ReactiveEvals-1 {
		t.Errorf("wasted %d of %d evals, want all but the committing one", snap.ReactiveWasted, snap.ReactiveEvals)
	}
}

// A durable restart reads its checkpoint like ReadCheckpoint does, and the
// recovery counters agree with the reports Open returns: one recovery per
// Open, WalDiscarded the sum of the recoveries' version gaps, and the
// recovery phases adding up to no more than its wall time.
func TestMetricsWALRecoveryInvariants(t *testing.T) {
	phasesFit := func(rec *WALRecoveryStats) {
		t.Helper()
		if sum := rec.Decode + rec.Restore + rec.Replay + rec.Verify + rec.Reanchor; sum > rec.Elapsed || sum <= 0 {
			t.Errorf("recovery phases sum to %v of %v elapsed: %+v", sum, rec.Elapsed, *rec)
		}
	}

	dir := t.TempDir()
	sys, err := Open(Options{WALDir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		sys.Store.Assert(Environment, NewTuple(Int(int64(i)), Int(0)))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err = Open(Options{WALDir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, rec := sys.Snapshot(), sys.Recovery
	if rec.CheckpointVersion == 0 || sys.Store.Len() != 64 {
		t.Fatalf("restart restored checkpoint v%d with %d tuples, want a checkpoint of 64", rec.CheckpointVersion, sys.Store.Len())
	}
	if snap.CheckpointRead.Count != 1 {
		t.Errorf("checkpoint reads %d after restoring one checkpoint, want 1", snap.CheckpointRead.Count)
	}
	if snap.WalRecoveries != 1 || snap.WalDiscarded != uint64(rec.Gaps) || snap.WalRecovered != uint64(rec.Replayed) {
		t.Errorf("recoveries %d, discarded %d, recovered %d; want 1, %d gaps, %d replayed",
			snap.WalRecoveries, snap.WalDiscarded, snap.WalRecovered, rec.Gaps, rec.Replayed)
	}
	phasesFit(rec)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// A log whose durable suffix skips versions 3, 5 and 6 and has no
	// checkpoint: three gaps, no checkpoint read.
	gapDir := t.TempDir()
	l, err := OpenWAL(gapDir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 4, 7} {
		l.Append(dataspace.CommitRecord{Version: v, Owner: 1, Inserted: []Instance{
			{ID: TupleID(v), Tuple: NewTuple(Int(int64(v))), Owner: 1}}})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err = Open(Options{WALDir: gapDir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	snap, rec = sys.Snapshot(), sys.Recovery
	if rec.Gaps != 3 || rec.Replayed != 4 {
		t.Fatalf("recovery found %d gaps over %d records, want 3 over 4", rec.Gaps, rec.Replayed)
	}
	if snap.WalDiscarded != uint64(rec.Gaps) {
		t.Errorf("WalDiscarded %d, want Σ RecoveryStats.Gaps = %d", snap.WalDiscarded, rec.Gaps)
	}
	if snap.CheckpointRead.Count != 0 {
		t.Errorf("checkpoint reads %d with no checkpoint on disk, want 0", snap.CheckpointRead.Count)
	}
	phasesFit(rec)
}

// The explain records agree with the counters that already exist. An
// observed program that commits on key latches (Counter), coarsely (Sum3)
// and by a planned consensus on the shard rung (Worker), and reads on epoch snapshots and under shared
// locks (Reader): summed over sites, the planned and unplanned executions
// are the footprint planner's counts, and each rung's executions are its
// counter's — except that a consensus fire, which commits a whole
// community's transactions at once, is on the store's counters but on no
// site's. Every step visits at least the candidates it matches.
func TestMetricsExplainMatchesCounters(t *testing.T) {
	sys := runObserved(t, `process Sum3()
behavior
  par {
    <?n, ?a>!, <?m, ?b>! where ?n != ?m -> <?m, ?a + ?b>
  }
end

process Counter(k)
behavior
  <ctr, k, ?v>! -> <ctr, k, ?v + 1>;
  <ctr, k, ?v>! -> <ctr, k, ?v + 1>;
  <ctr, k, ?v> -> skip
end

process Reader()
behavior
  <?t, ?k, ?v> -> skip
end

process Worker(id)
import <ready, *, *>
export <ready, *, *>; <passed, *, *>
behavior
  -> <ready, id, 0>;
  <ready, 1, 0>, <ready, 2, 0> @> <passed, id, 0>
end

main
  -> <1, 10>, <2, 20>, <3, 30>, <4, 40>, <ctr, a, 0>, <ctr, b, 0>;
  spawn Sum3(), spawn Counter(a), spawn Counter(b), spawn Reader(), spawn Worker(1), spawn Worker(2)
end
`)
	snap := sys.Snapshot()
	var sum metrics.ExplainSite
	for _, s := range snap.Explain {
		sum.Planned += s.Planned
		sum.Unplanned += s.Unplanned
		for r, n := range s.Rungs {
			sum.Rungs[r] += n
		}
		var rungs uint64
		for _, n := range s.Rungs {
			rungs += n
		}
		if s.Planned+s.Unplanned != rungs {
			t.Errorf("site %s: planned %d + unplanned %d executions, %d on rungs", s.Site, s.Planned, s.Unplanned, rungs)
		}
		for _, st := range s.Steps {
			if st.Visited < st.Matched {
				t.Errorf("site %s step %d (pattern %d): visited %d < matched %d",
					s.Site, st.Order+1, st.Pattern+1, st.Visited, st.Matched)
			}
		}
	}
	plannerBalanced(t, "explain", snap)
	if sum.Planned != snap.FootprintPlanned || sum.Unplanned != snap.FootprintUnplanned {
		t.Errorf("explain planned %d / unplanned %d, planner counters %d / %d",
			sum.Planned, sum.Unplanned, snap.FootprintPlanned, snap.FootprintUnplanned)
	}
	fires := snap.Txn["consensus"].Commits
	for _, c := range []struct {
		rung          string
		sites, global uint64
	}{
		{"key latch", sum.Rungs[metrics.RungKey], snap.KeyCommits},
		{"shard fallback (+ consensus fires)", sum.Rungs[metrics.RungShard] + fires, snap.ShardFallbacks},
		{"coarse", sum.Rungs[metrics.RungCoarse], snap.CoarseCommits},
		{"epoch read (- torn)", sum.Rungs[metrics.RungEpoch], snap.EpochReads - snap.EpochFallbacks},
		{"shared read", sum.Rungs[metrics.RungShared] + sum.Rungs[metrics.RungEpoch], snap.SharedReads},
	} {
		if c.sites != c.global {
			t.Errorf("%s: %d over sites, %d counted", c.rung, c.sites, c.global)
		}
		if c.global == 0 {
			t.Errorf("%s: the program took no such commit", c.rung)
		}
	}
}
