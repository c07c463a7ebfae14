package wal

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/sdl-lang/sdl/internal/dataspace"
)

// State is everything a log directory durably recorded, as a pure reading:
// the newest valid checkpoint plus the gap-free record suffix after it.
// ReadState never mutates the directory, so a crash investigator (or the
// kill-test harness) can capture the evidence before Recover rewrites it.
type State struct {
	// CheckpointSeq and CheckpointVersion identify the base configuration;
	// both are zero when no valid checkpoint exists (empty base).
	CheckpointSeq     uint64
	CheckpointVersion uint64
	// Base is the checkpoint's configuration.
	Base []dataspace.Instance
	// Records is the replayable suffix: every decodable record with
	// version > CheckpointVersion, sorted by version. Versions are
	// strictly increasing but may have GAPS: commuting commits append in
	// flight-order, not version order, so a crash can make version v+1
	// durable while v is not. A missing version was never fsynced — and
	// because conflicting commits DO append in version order, it commutes
	// with every durable record above it, so the durable records replayed
	// in version order remain a legal serial history (see
	// refmodel.ReplayFrom). Discarding at the first gap would instead
	// lose acknowledged commits.
	Records []dataspace.CommitRecord
	// Segments is the number of segment files scanned.
	Segments int
	// TornSegments counts segments whose scan stopped before end-of-file
	// (a torn or corrupt frame); TornBytes is the total discarded tail.
	TornSegments int
	TornBytes    int64
	// Subsumed counts decoded records the checkpoint already covers
	// (version ≤ CheckpointVersion) — stale segments, not data loss.
	Subsumed int
	// Gaps counts versions missing inside the Records span: in-flight
	// commits whose append was never fsynced. They were never
	// acknowledged (WaitDurable had not returned), so a gap is bounded
	// data loss of unacknowledged work only.
	Gaps int
}

// ReadState reads a log directory without modifying it. Checkpoints are
// tried newest-first; an undecodable checkpoint falls back to the next
// older one (checkpoint writes are tmp+rename, so this arises only from
// external damage). Segment scans stop at the first torn frame per segment.
func ReadState(dir string) (*State, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read state: %w", err)
	}
	var ckpts, segs []uint64
	for _, e := range entries {
		var seq uint64
		switch {
		case parseSeq(e.Name(), "wal-", ".seg", &seq):
			segs = append(segs, seq)
		case parseSeq(e.Name(), "ckpt-", ".ckpt", &seq):
			ckpts = append(ckpts, seq)
		}
	}
	slices.SortFunc(ckpts, func(a, b uint64) int { return cmp.Compare(b, a) }) // newest first
	slices.Sort(segs)

	st := &State{}
	for _, seq := range ckpts {
		base, version, err := readCheckpointFile(filepath.Join(dir, checkpointName(seq)))
		if err != nil {
			continue
		}
		st.CheckpointSeq = seq
		st.CheckpointVersion = version
		st.Base = base
		break
	}

	var recs []dataspace.CommitRecord
	for _, seq := range segs {
		st.Segments++
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %d: %w", seq, err)
		}
		if len(data) < segmentHeaderLen ||
			[4]byte(data[:4]) != segmentMagic || data[4] != segmentFormat {
			// A header that never reached the disk in full: the whole
			// segment is a torn tail.
			st.TornSegments++
			st.TornBytes += int64(len(data))
			continue
		}
		segRecs, tail := scanFrames(data[segmentHeaderLen:])
		if tail > 0 {
			st.TornSegments++
			st.TornBytes += int64(tail)
		}
		recs = append(recs, segRecs...)
	}

	// Keep everything past the checkpoint, in version order.
	kept := recs[:0]
	for _, rec := range recs {
		if rec.Version <= st.CheckpointVersion {
			st.Subsumed++
			continue
		}
		kept = append(kept, rec)
	}
	slices.SortFunc(kept, func(a, b dataspace.CommitRecord) int { return cmp.Compare(a.Version, b.Version) })
	prev := st.CheckpointVersion
	for i, rec := range kept {
		if rec.Version == prev {
			// The engine appends each version exactly once; a duplicate
			// cannot come from a crash, only from external damage.
			return nil, fmt.Errorf("wal: duplicate version %d in record %d", rec.Version, i)
		}
		st.Gaps += int(rec.Version - prev - 1)
		prev = rec.Version
	}
	st.Records = kept
	return st, nil
}

// readCheckpointFile decodes a checkpoint with the store's own decoder, so
// the format has exactly one reader; nothing is indexed until Recover
// installs the result.
func readCheckpointFile(path string) ([]dataspace.Instance, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return dataspace.DecodeCheckpoint(f)
}

// SegmentFiles returns the directory's segment paths in ascending sequence
// order. The crash-injection harness uses it to pick a truncation target.
func SegmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if parseSeq(e.Name(), "wal-", ".seg", &seq) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	out := make([]string, len(seqs))
	for i, seq := range seqs {
		out[i] = filepath.Join(dir, segmentName(seq))
	}
	return out, nil
}
