// Package wal is the durability layer of the SDL engine: a segmented,
// CRC-framed write-ahead log of dataspace.CommitRecord values plus
// checkpoint files, with crash recovery that replays the newest valid
// checkpoint and the gap-free log suffix after it.
//
// The log implements dataspace.DurableSink. The store calls Append inside
// the commit critical section — after the commit's version is allocated and
// while every conflicting commit is still excluded by the commit locks — so
// the append order of the log extends the engine's conflict order: if two
// commits conflict, the one with the smaller version appears earlier in the
// log. WaitDurable is called after the locks are released but before the
// commit becomes visible (waiter notification, caller return), which gives
// durable-before-visible without stretching lock hold times by an fsync.
//
// Two sync modes trade latency for throughput:
//
//   - SyncBatch (the default): a commit first checks whether a concurrent
//     fsync already covered its record; if not, it elects itself leader,
//     fsyncs once, and publishes the covered LSN. Concurrent committers
//     behind the same leader are all released by that single fsync — group
//     fsync emerges from the coverage check, one sync per batch, and a lone
//     committer pays exactly one fsync per commit. No commit becomes visible
//     before an fsync that covers its record.
//   - SyncInterval: WaitDurable returns immediately; a background ticker
//     fsyncs every Interval. Bounded data loss, no commit-path stall.
//
// Because commits that are BOTH in flight at once necessarily commute
// (conflicting commits serialize on the engine's locks around Append),
// any suffix of the append order that fsync has not yet covered consists
// of reorderable records only — prefix durability of the file is exactly
// prefix durability of some legal serialization.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/metrics"
)

// SyncMode selects when appended records are forced to disk.
type SyncMode int

const (
	// SyncBatch fsyncs once per group of concurrent commits, before any of
	// them becomes visible.
	SyncBatch SyncMode = iota
	// SyncInterval fsyncs on a timer; WaitDurable does not block.
	SyncInterval
)

func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// ParseSyncMode parses the -wal-sync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "interval":
		return SyncInterval, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync mode %q (want batch or interval)", s)
	}
}

// Options configures a Log.
type Options struct {
	// Sync selects the fsync policy. Default SyncBatch.
	Sync SyncMode
	// SegmentSize rotates to a new segment file once the current one
	// exceeds this many bytes. Default 8 MiB.
	SegmentSize int64
	// Interval is the SyncInterval ticker period. Default 5ms.
	Interval time.Duration
	// Metrics receives append/sync/segment/recovery instruments. May be nil.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	return o
}

// Log is an open write-ahead log rooted at a directory. It is safe for
// concurrent use by any number of committers.
//
// Lock order: mu (file writes, rotation) is leaf-most; syncMu serializes
// fsyncs and may acquire mu briefly to read the coverage point. Checkpoint
// holds ckptMu across rotate + snapshot + prune.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards f, segSeq, segBytes, buf, closed
	f        *os.File
	segSeq   uint64
	segBytes int64
	buf      []byte // frame scratch
	closed   bool

	appended atomic.Uint64 // LSN of the last fully written record
	synced   atomic.Uint64 // LSN through which fsync has covered

	syncMu   sync.Mutex // elects the fsync leader
	syncCond *sync.Cond // SyncBatch: broadcast when a leader's fsync lands
	syncing  bool       // SyncBatch: a leader's fsync is in flight
	ckptMu   sync.Mutex // serializes checkpoints

	ckptSeq uint64 // newest checkpoint sequence on disk

	stopInterval chan struct{}
	intervalDone chan struct{}
}

var _ dataspace.DurableSink = (*Log)(nil)

func segmentName(seq uint64) string    { return fmt.Sprintf("wal-%010d.seg", seq) }
func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%010d.ckpt", seq) }

// Open opens (creating if needed) a log directory and starts a fresh append
// segment after any existing state. Opening NEVER deletes or rewrites
// existing segments or checkpoints — a crashed log's evidence stays intact
// until Recover has verified and re-checkpointed it. Callers reopening a
// non-empty directory must call Recover before attaching the log to a
// store; Append panics on a version that does not extend the recovered
// history's (the store enforces gap-free versions, not the log).
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	maxSeg, maxCkpt, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		segSeq:  maxSeg,
		ckptSeq: maxCkpt,
	}
	l.syncCond = sync.NewCond(&l.syncMu)
	if err := l.openSegmentLocked(maxSeg + 1); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stopInterval = make(chan struct{})
		l.intervalDone = make(chan struct{})
		go l.intervalLoop()
	}
	return l, nil
}

// scanDir finds the highest segment and checkpoint sequence numbers.
func scanDir(dir string) (maxSeg, maxCkpt uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: scan: %w", err)
	}
	for _, e := range entries {
		var seq uint64
		switch {
		case parseSeq(e.Name(), "wal-", ".seg", &seq):
			if seq > maxSeg {
				maxSeg = seq
			}
		case parseSeq(e.Name(), "ckpt-", ".ckpt", &seq):
			if seq > maxCkpt {
				maxCkpt = seq
			}
		}
	}
	return maxSeg, maxCkpt, nil
}

func parseSeq(name, prefix, suffix string, seq *uint64) bool {
	if len(name) != len(prefix)+10+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	*seq = v
	return true
}

// openSegmentLocked creates segment seq, writes its header, fsyncs the
// directory entry, and makes it the append target. Callers hold mu or have
// exclusive access.
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := append(append([]byte{}, segmentMagic[:]...), segmentFormat)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	// The header must be durable before any frame in this segment is: a
	// recovery that can read frames but not the header would discard them.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header sync: %w", err)
	}
	if err := syncDirEntry(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSeq = seq
	l.segBytes = segmentHeaderLen
	l.opts.Metrics.IncWalSegment()
	return nil
}

func syncDirEntry(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append encodes rec's frame straight into the log's scratch buffer (see
// appendRecordFrame), writes it to the current segment with a bare
// write(2) (no user-space buffering: data handed to the kernel survives a
// SIGKILL of this process; only power loss needs the fsync that WaitDurable
// arranges), and returns the record's LSN. The store calls this inside the
// commit critical section, so append order extends the conflict order.
//
// A write failure panics: the engine has already applied the commit under
// its locks, and a log that cannot persist it can keep neither the
// durable-before-visible contract nor a consistent suffix for recovery.
func (l *Log) Append(rec dataspace.CommitRecord) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		panic("wal: Append after Close")
	}
	l.buf = appendRecordFrame(l.buf[:0], rec)
	if _, err := l.f.Write(l.buf); err != nil {
		panic(fmt.Sprintf("wal: append write failed: %v", err))
	}
	l.segBytes += int64(len(l.buf))
	l.opts.Metrics.IncWalAppend(len(l.buf))
	lsn := l.appended.Add(1)
	if l.segBytes >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			panic(fmt.Sprintf("wal: rotate failed: %v", err))
		}
	}
	return lsn
}

// rotateLocked seals the current segment and opens the next one. The old
// segment is fsynced before the switch, so every record in a non-current
// segment is durable — fsyncing only the current file then suffices to make
// everything appended so far durable.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	// Everything written so far now lives in sealed, synced segments.
	l.advanceSynced(l.appended.Load())
	return l.openSegmentLocked(l.segSeq + 1)
}

func (l *Log) advanceSynced(to uint64) {
	for {
		cur := l.synced.Load()
		if cur >= to || l.synced.CompareAndSwap(cur, to) {
			return
		}
	}
}

// WaitDurable blocks until the record with the given LSN is on disk, per
// the configured sync mode. The store calls it after releasing the commit
// locks and before making the commit visible.
func (l *Log) WaitDurable(lsn uint64) {
	switch l.opts.Sync {
	case SyncInterval:
		return
	default: // SyncBatch
		if l.synced.Load() >= lsn {
			return
		}
		// Group commit with explicit leader election. A plain
		// mutex-queue here destroys batching: waiters from the previous
		// round wake one release at a time while freshly committed
		// goroutines barge in and run near-empty fsyncs. Instead exactly
		// one uncovered waiter becomes the leader and fsyncs outside the
		// lock; everyone its sync covered is released by a single
		// broadcast, so the whole group pipelines its next commits while
		// the next leader's fsync is in flight.
		l.syncMu.Lock()
		for l.synced.Load() < lsn {
			if l.syncing {
				l.syncCond.Wait()
				continue
			}
			l.syncing = true
			l.syncMu.Unlock()
			l.syncNow()
			l.syncMu.Lock()
			l.syncing = false
			l.syncCond.Broadcast()
		}
		l.syncMu.Unlock()
	}
}

// Blocking reports whether WaitDurable can block: under SyncBatch it waits
// for an fsync, under SyncInterval it returns at once.
func (l *Log) Blocking() bool { return l.opts.Sync != SyncInterval }

// syncNow fsyncs the current segment, covering every record appended
// before the call — in particular the caller's own, which it observed as
// appended (rotation seals and syncs older segments, so only the current
// file can hold unsynced frames). At most one syncNow runs at a time:
// interval callers hold syncMu, batch leaders hold the syncing flag.
func (l *Log) syncNow() {
	l.mu.Lock()
	f := l.f
	cover := l.appended.Load()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return // Close already issued the final sync.
	}
	if err := f.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return // Close raced in and issued the final sync.
		}
		panic(fmt.Sprintf("wal: fsync failed: %v", err))
	}
	prev := l.synced.Load()
	l.advanceSynced(cover)
	if cover > prev {
		l.opts.Metrics.ObserveWalSync(cover - prev)
	} else {
		l.opts.Metrics.ObserveWalSync(0)
	}
}

func (l *Log) intervalLoop() {
	defer close(l.intervalDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopInterval:
			return
		case <-t.C:
			if l.appended.Load() > l.synced.Load() {
				l.syncMu.Lock()
				l.syncNow()
				l.syncMu.Unlock()
			}
		}
	}
}

// Durable returns the LSN through which the log is known durable.
func (l *Log) Durable() uint64 { return l.synced.Load() }

// Appended returns the LSN of the last appended record.
func (l *Log) Appended() uint64 { return l.appended.Load() }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the current segment. The log must be idle: the
// engine is shut down before its durability layer.
func (l *Log) Close() error {
	if l.stopInterval != nil {
		close(l.stopInterval)
		<-l.intervalDone
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: close sync: %w", err)
	}
	l.advanceSynced(l.appended.Load())
	// Release any batch waiters parked on the leader's broadcast; their
	// records are covered by the final sync above.
	l.syncCond.Broadcast()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Checkpoint writes a new checkpoint of the store and prunes the log
// history it subsumes. Safety: the current segment is rotated FIRST, then
// the snapshot is taken. The snapshot's version read happens under all
// shard locks, which excludes every commit critical section, and records
// are appended inside those critical sections — so every record that
// landed in a pre-rotation segment has version ≤ the checkpoint's version
// and is subsumed by it. Records racing into the new segment may or may not
// be subsumed; recovery filters by version, so keeping them is harmless.
// Old segments and checkpoints are deleted only after the new checkpoint's
// rename (and the directory entry) are durable.
func (l *Log) Checkpoint(s *dataspace.Store) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint after close")
	}
	err := l.rotateLocked()
	keepSeg := l.segSeq
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: checkpoint rotate: %w", err)
	}

	seq := l.ckptSeq + 1
	tmp := filepath.Join(l.dir, checkpointName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	if err := s.WriteCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName(seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDirEntry(l.dir); err != nil {
		return err
	}
	l.ckptSeq = seq

	// Prune history the checkpoint subsumes. Failures here leave stale
	// files that recovery filters out by version; report but don't fail.
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		var n uint64
		switch {
		case parseSeq(e.Name(), "wal-", ".seg", &n) && n < keepSeg:
			os.Remove(filepath.Join(l.dir, e.Name()))
		case parseSeq(e.Name(), "ckpt-", ".ckpt", &n) && n < seq:
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	return nil
}
