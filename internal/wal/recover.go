package wal

import (
	"fmt"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/refmodel"
)

// RecoveryStats summarizes what Recover reconstructed.
type RecoveryStats struct {
	// CheckpointVersion is the base the replay started from (0 = empty).
	CheckpointVersion uint64
	// Replayed is the number of log records applied after the checkpoint.
	Replayed int
	// Version is the store version after recovery.
	Version uint64
	// TornSegments/TornBytes/Gaps mirror the State fields: evidence of a
	// crash cut (torn frames) and of in-flight commits whose append was
	// never fsynced (all unacknowledged).
	TornSegments int
	TornBytes    int64
	Gaps         int
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
	// The phases of Elapsed, in order: Decode reads the directory
	// (ReadState: the checkpoint and the segments), Restore installs the
	// checkpoint, Replay applies the record suffix, Verify replays the same
	// evidence on the reference model and compares contents, and Reanchor
	// writes the fresh checkpoint and prunes the old history. Their sum
	// never exceeds Elapsed.
	Decode, Restore, Replay, Verify, Reanchor time.Duration
}

// Recover rebuilds a store from the log directory and re-anchors the log:
//
//  1. Read the newest valid checkpoint and the gap-free record suffix
//     after it (ReadState).
//  2. Install the checkpoint ReadState already decoded into the store
//     (Store.Restore, shard-count independent) and replay the suffix
//     record-by-record through Store.ApplyRecovered.
//  3. Verify: refmodel.ReplayFrom re-executes checkpoint+suffix on the
//     naive reference model, and its content multiset must equal the
//     recovered store's (refmodel.SameContent: equal sorted hash lists).
//     Recovery refuses to hand back a store it cannot prove equal to the
//     durable history.
//  4. Write a fresh checkpoint of the recovered state and prune every
//     older segment and checkpoint. This clean slate keeps version
//     history unambiguous: new commits may reuse serialization positions
//     that crashed in-flight commits had claimed but never made durable
//     (torn frames, version gaps), so no old segment holding partial
//     evidence of them may survive into the next crash.
//
// The store must be empty and unshared, and the log must not yet be
// attached via SetDurable; attach it after Recover returns. Recover must
// be called at most once, before any Append.
func (l *Log) Recover(s *dataspace.Store) (*RecoveryStats, error) {
	start := time.Now()
	if n := l.appended.Load(); n != 0 {
		return nil, fmt.Errorf("wal: recover after %d appends", n)
	}
	stats := &RecoveryStats{}
	lap := start
	phase := func(d *time.Duration) {
		now := time.Now()
		*d, lap = now.Sub(lap), now
	}
	st, err := ReadState(l.dir)
	if err != nil {
		return nil, err
	}
	phase(&stats.Decode)
	if st.CheckpointSeq != 0 {
		if err := s.Restore(st.Base, st.CheckpointVersion); err != nil {
			return nil, fmt.Errorf("wal: recover checkpoint: %w", err)
		}
		phase(&stats.Restore)
		// The store read a checkpoint, as ReadCheckpoint would have:
		// decoded by ReadState and installed by Restore.
		s.Metrics().ObserveCheckpointRead(stats.Decode + stats.Restore)
	}
	for _, rec := range st.Records {
		if err := s.ApplyRecovered(rec); err != nil {
			return nil, fmt.Errorf("wal: recover replay: %w", err)
		}
	}
	phase(&stats.Replay)

	// Prove the recovered store equals the durable history's final
	// configuration by replaying the same evidence on the reference model.
	model, err := refmodel.ReplayFrom(st.Base, st.CheckpointVersion, st.Records)
	if err != nil {
		return nil, fmt.Errorf("wal: recover verify: %w", err)
	}
	if !refmodel.SameContent(model, s) {
		return nil, fmt.Errorf("wal: recover verify: store content diverges from reference replay of %d records",
			len(st.Records))
	}
	phase(&stats.Verify)

	// Re-anchor: checkpoint the recovered state and drop the old history,
	// including any discarded tail.
	if err := l.Checkpoint(s); err != nil {
		return nil, err
	}
	phase(&stats.Reanchor)

	stats.CheckpointVersion = st.CheckpointVersion
	stats.Replayed = len(st.Records)
	stats.Version = s.Version()
	stats.TornSegments = st.TornSegments
	stats.TornBytes = st.TornBytes
	stats.Gaps = st.Gaps
	stats.Elapsed = time.Since(start)
	l.opts.Metrics.ObserveWalRecovery(uint64(stats.Replayed), uint64(stats.Gaps), stats.Elapsed)
	return stats, nil
}
