package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/dataspace"
)

// CommitLog records whole commit events — version, committing process, and
// the retracted/asserted instances — rather than the Recorder's flattened
// per-tuple events. External observers (and the serializability audit in
// internal/refmodel) use it to reconstruct the committed history: because
// every commit holds its shard write locks while the hook runs and takes
// its version from one global atomic, replaying the records in version
// order is an equivalent serial execution of the concurrent history.
type CommitLog struct {
	// detached flips when no consumer will read further records; the
	// observe hook cannot be unsubscribed from the store, so it gates
	// itself instead. Checked without the mutex: the hook runs inside
	// commit critical sections, and a detached log must cost them nothing.
	detached atomic.Bool

	mu   sync.Mutex
	recs []dataspace.CommitRecord
}

// NewCommitLog returns an empty log.
func NewCommitLog() *CommitLog { return &CommitLog{} }

// Attach subscribes the log to the store's commits. Call before the store
// is shared between goroutines.
func (l *CommitLog) Attach(s *dataspace.Store) {
	s.OnCommit(l.observe)
}

// Detach stops recording. Commit hooks cannot be removed from a store, so
// this is how a consumer that is done reading (an audit that has run, a
// bench harness past its measured phase) stops paying the per-commit copy
// of the effect slices. Records gathered so far stay readable. A commit
// racing with Detach may or may not be recorded — callers detach only
// once they no longer care.
func (l *CommitLog) Detach() { l.detached.Store(true) }

func (l *CommitLog) observe(rec dataspace.CommitRecord) {
	if l.detached.Load() {
		return
	}
	// Copy the effect slices: they are lent from the commit's pooled journal
	// for the hook call only. Len-gated so effect-free sides of a
	// commit don't allocate.
	cp := dataspace.CommitRecord{Version: rec.Version, Owner: rec.Owner}
	if len(rec.Inserted) > 0 {
		cp.Inserted = append([]dataspace.Instance(nil), rec.Inserted...)
	}
	if len(rec.Deleted) > 0 {
		cp.Deleted = append([]dataspace.Instance(nil), rec.Deleted...)
	}
	l.mu.Lock()
	l.recs = append(l.recs, cp)
	l.mu.Unlock()
}

// Len returns the number of recorded commits.
func (l *CommitLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Commits returns a copy of the log sorted by commit version. Commits on
// disjoint shard sets append concurrently, so the internal order is not
// version-sorted; the version sort recovers the serialization order.
func (l *CommitLog) Commits() []dataspace.CommitRecord {
	l.mu.Lock()
	out := make([]dataspace.CommitRecord, len(l.recs))
	copy(out, l.recs)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}
