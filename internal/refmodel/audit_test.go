package refmodel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/trace"
	"github.com/sdl-lang/sdl/internal/txn"
)

// Serializability audit: N goroutines hammer the sharded store with random
// transactions while a CommitLog records every commit's version and
// effects. Because each commit holds its shard write locks while the hook
// runs and takes its version from one global atomic, replaying the
// committed effects through the reference model in version order is an
// equivalent serial execution — it must visit only instances that exist at
// that point of the serial history and must land on exactly the store's
// final content multiset. A lost update, dirty read, or write-skew in the
// sharded 2PL would surface as a replay referencing a missing/duplicate
// instance or as a final-state mismatch.
func TestSerializabilityAudit(t *testing.T) {
	const workers = 8
	const opsPerWorker = 250
	for _, shards := range []int{1, 4, 16} {
		// Two runs per shard count on distinct random streams. Their IDs
		// are those of the two concurrency-control modes the engine once
		// had, kept so the suite's test IDs stay stable.
		for run, name := range []string{"coarse", "optimistic"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				store := dataspace.New(dataspace.WithShards(shards))
				clog := trace.NewCommitLog()
				clog.Attach(store)
				engine := txn.New(store)

				var wg sync.WaitGroup
				errCh := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w)*7919 + int64(shards) + int64(run)*104729))
						for i := 0; i < opsPerWorker; i++ {
							o := genOp(rng)
							if _, err := engine.Immediate(o.req); err != nil {
								errCh <- fmt.Errorf("worker %d op %d (%s): %w", w, i, o.descr, err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errCh)
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}

				recs := clog.Commits()
				// Every mutating commit produced exactly one record, and the
				// version sequence is gap-free: versions come from one atomic
				// allocated under the commit's locks, so a gap or duplicate
				// means a commit escaped the hook (or fired twice).
				if got := store.Metrics().Commits(); got != uint64(len(recs)) {
					t.Fatalf("store counts %d commits, log has %d records", got, len(recs))
				}
				if v := store.Version(); v != uint64(len(recs)) {
					t.Fatalf("store version %d, log has %d records", v, len(recs))
				}
				for i, rec := range recs {
					if rec.Version != uint64(i)+1 {
						t.Fatalf("record %d: version %d, want %d", i, rec.Version, i+1)
					}
				}

				// Replay the committed effects serially.
				model := &Model{}
				for i, rec := range recs {
					if err := model.ApplyEffects(rec.Deleted, rec.Inserted); err != nil {
						t.Fatalf("replaying record %d (v%d): %v", i, rec.Version, err)
					}
				}
				if !SameContent(model, store) {
					t.Fatalf("serial replay diverges from final dataspace\nreplay: %v\nstore:  %v",
						model.All(), dump(store))
				}

				// Metrics cross-check against the same ground truth: the
				// engine saw every commit it reported, and attempted at least
				// as many executions.
				snap := store.Metrics().Snapshot()
				if snap.TotalCommits() != uint64(len(recs)) {
					// Read-only successful transactions commit without
					// mutating; those add to txn commits but not to records,
					// so the txn total may only exceed the record count.
					if snap.TotalCommits() < uint64(len(recs)) {
						t.Fatalf("txn commits %d < %d committed records", snap.TotalCommits(), len(recs))
					}
				}
				if snap.TotalAttempts() < snap.TotalCommits() {
					t.Fatalf("attempts %d < commits %d", snap.TotalAttempts(), snap.TotalCommits())
				}
				if got := snap.Txn[metrics.TxnImmediate.String()].Attempts; got != workers*opsPerWorker {
					t.Fatalf("immediate attempts %d, want %d", got, workers*opsPerWorker)
				}
			})
		}
	}
}

// The audit must also hold when the gated instruments are live: observation
// may not perturb commit ordering or the hook protocol.
func TestSerializabilityAuditObserved(t *testing.T) {
	store := dataspace.New(dataspace.WithShards(4))
	store.Metrics().SetObserved(true)
	clog := trace.NewCommitLog()
	clog.Attach(store)
	engine := txn.New(store)

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				o := genOp(rng)
				if _, err := engine.Immediate(o.req); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	model := &Model{}
	for i, rec := range clog.Commits() {
		if err := model.ApplyEffects(rec.Deleted, rec.Inserted); err != nil {
			t.Fatalf("replaying record %d: %v", i, err)
		}
	}
	if !SameContent(model, store) {
		t.Fatal("serial replay diverges from final dataspace under observation")
	}
	// The observed run populated the gated histograms consistently: one
	// latency observation per attempt, one footprint observation per update
	// (mutating commits are the subset of updates that changed something).
	snap := store.Metrics().Snapshot()
	imm := snap.Txn[metrics.TxnImmediate.String()]
	if lat := snap.TxnLatency[metrics.TxnImmediate.String()]; lat.Count != imm.Attempts {
		t.Errorf("latency observations %d, attempts %d", lat.Count, imm.Attempts)
	}
	if snap.Footprint.Count < snap.StoreCommits {
		t.Errorf("footprint observations %d < store commits %d", snap.Footprint.Count, snap.StoreCommits)
	}
}
