package wal

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/tuple"
)

func tup(vals ...int64) tuple.Tuple {
	fields := make([]tuple.Value, len(vals))
	for i, v := range vals {
		fields[i] = tuple.Int(v)
	}
	return tuple.New(fields...)
}

// attach opens a log in dir, recovers the store from it, and wires it in.
func attach(t *testing.T, dir string, s *dataspace.Store, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Recover(s); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s.SetDurable(l)
	return l
}

// workload drives a mixed assert/delete sequence through the store.
func workload(t *testing.T, s *dataspace.Store, n int) {
	t.Helper()
	var ids []tuple.ID
	for i := 0; i < n; i++ {
		got := s.Assert(tuple.ProcessID(i%3+1), tup(int64(i), int64(i)*10))
		ids = append(ids, got...)
		if i%4 == 3 {
			victim := ids[len(ids)-2]
			err := s.Update(tuple.ProcessID(1), func(w dataspace.Writer) error {
				return w.Delete(victim)
			})
			if err != nil {
				t.Fatalf("delete #%d: %v", victim, err)
			}
		}
	}
}

func TestRoundTripRecover(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(4))
	l := attach(t, dir, s, Options{Sync: SyncBatch})
	workload(t, s, 40)
	wantMS := refmodel.ContentOf(s)
	wantVersion := s.Version()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recover at a different shard count: checkpoints and records are
	// shard-count independent.
	for _, shards := range []int{1, 16} {
		s2 := dataspace.New(dataspace.WithShards(shards))
		l2, err := Open(dir, Options{Sync: SyncBatch})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		stats, err := l2.Recover(s2)
		if err != nil {
			t.Fatalf("Recover at %d shards: %v", shards, err)
		}
		if !slices.Equal(wantMS, refmodel.ContentOf(s2)) {
			t.Fatalf("recovered multiset at %d shards diverges", shards)
		}
		if s2.Version() != wantVersion {
			t.Fatalf("recovered version %d, want %d", s2.Version(), wantVersion)
		}
		if stats.TornSegments != 0 || stats.Gaps != 0 {
			t.Fatalf("clean close reported loss: %+v", stats)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestRecoverAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(2))
	// Tiny segments force rotation on nearly every commit.
	l := attach(t, dir, s, Options{Sync: SyncBatch, SegmentSize: 64})
	workload(t, s, 30)
	want := refmodel.ContentOf(s)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatalf("SegmentFiles: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected many segments at 64-byte rotation, got %d", len(segs))
	}

	s2 := dataspace.New(dataspace.WithShards(8))
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.Recover(s2); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !slices.Equal(want, refmodel.ContentOf(s2)) {
		t.Fatal("recovered multiset diverges after multi-segment recovery")
	}
	l2.Close()
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(1))
	l := attach(t, dir, s, Options{Sync: SyncBatch})
	for i := 0; i < 10; i++ {
		s.Assert(1, tup(int64(i)))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := SegmentFiles(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("SegmentFiles: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Tear the final frame: drop its last 3 bytes.
	if err := os.WriteFile(last, data[:len(data)-3], 0o666); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	st, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if st.TornSegments != 1 || st.TornBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", st)
	}
	// Recover: 9 surviving records on top of the recovery checkpoint.
	s2 := dataspace.New(dataspace.WithShards(1))
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := l2.Recover(s2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.TornSegments != 1 {
		t.Fatalf("recovery missed the torn tail: %+v", stats)
	}
	if got := s2.Len(); got != 9 {
		t.Fatalf("recovered %d instances, want 9 (last commit torn off)", got)
	}
	l2.Close()
}

func TestCorruptFrameCutsSuffix(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(1))
	l := attach(t, dir, s, Options{Sync: SyncBatch})
	for i := 0; i < 10; i++ {
		s.Assert(1, tup(int64(i)))
	}
	l.Close()
	segs, _ := SegmentFiles(dir)
	last := segs[len(segs)-1]
	data, _ := os.ReadFile(last)
	// Flip a byte in the middle of the record stream: everything at and
	// after the damaged frame must be dropped, even though later frames
	// are intact.
	mid := segmentHeaderLen + (len(data)-segmentHeaderLen)/2
	data[mid] ^= 0xff
	if err := os.WriteFile(last, data, 0o666); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	st, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if len(st.Records) >= 10 {
		t.Fatalf("corrupt frame did not cut the suffix: %d records", len(st.Records))
	}
	if st.TornSegments != 1 {
		t.Fatalf("corruption not reported: %+v", st)
	}
	// The surviving records are a version prefix.
	for i, rec := range st.Records {
		if rec.Version != uint64(i+1) {
			t.Fatalf("record %d has version %d", i, rec.Version)
		}
	}
}

func TestVersionGapKeepsDurableRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Hand-append records with a version gap (3 missing) — the shape a
	// crash leaves when a commuting commit allocated version 3 but its
	// append never got fsynced while 4 and 5 (appended earlier in file
	// order) did. Commits 4 and 5 were acknowledged; recovery must keep
	// ALL durable records and account the gap, not discard the suffix.
	for _, v := range []uint64{1, 2, 4, 5} {
		rec := dataspace.CommitRecord{
			Version:  v,
			Owner:    1,
			Inserted: []dataspace.Instance{{ID: tuple.ID(v), Owner: 1, Tuple: tup(int64(v))}},
		}
		l.WaitDurable(l.Append(rec))
	}
	l.Close()

	st, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if len(st.Records) != 4 || st.Gaps != 1 {
		t.Fatalf("gap handling wrong: kept %d records, %d gaps", len(st.Records), st.Gaps)
	}
	s := dataspace.New(dataspace.WithShards(1))
	l2, _ := Open(dir, Options{})
	stats, err := l2.Recover(s)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Replayed != 4 || stats.Gaps != 1 || s.Len() != 4 {
		t.Fatalf("recovered wrong state: %+v len=%d", stats, s.Len())
	}
	// New commits continue above the last durable version: position 3 is
	// gone for good, never resurrected.
	if s.Version() != 5 {
		t.Fatalf("recovered version %d, want 5", s.Version())
	}
	l2.Close()
}

func TestDuplicateVersionRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, v := range []uint64{1, 2, 2} {
		rec := dataspace.CommitRecord{
			Version:  v,
			Owner:    1,
			Inserted: []dataspace.Instance{{ID: tuple.ID(v), Owner: 1, Tuple: tup(int64(v))}},
		}
		l.WaitDurable(l.Append(rec))
	}
	l.Close()
	if _, err := ReadState(dir); err == nil {
		t.Fatal("ReadState accepted a duplicated serialization position")
	}
}

func TestCheckpointPrunesHistory(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(2))
	l := attach(t, dir, s, Options{Sync: SyncBatch, SegmentSize: 64})
	workload(t, s, 20)
	if err := l.Checkpoint(s); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatalf("SegmentFiles: %v", err)
	}
	if len(segs) != 1 {
		t.Fatalf("checkpoint left %d segments, want 1 (current)", len(segs))
	}
	// Commits after the checkpoint land in the fresh segment and recover
	// on top of it.
	workload(t, s, 10)
	want := refmodel.ContentOf(s)
	l.Close()

	s2 := dataspace.New(dataspace.WithShards(4))
	l2, _ := Open(dir, Options{})
	stats, err := l2.Recover(s2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.CheckpointVersion == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
	if !slices.Equal(want, refmodel.ContentOf(s2)) {
		t.Fatal("checkpoint+suffix recovery diverges")
	}
	l2.Close()
}

func TestGroupFsyncCoversBatch(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(4))
	reg := s.Metrics()
	l := attach(t, dir, s, Options{Sync: SyncBatch, Metrics: reg})

	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Assert(tuple.ProcessID(w+1), tup(int64(w), int64(i)))
			}
		}(w)
	}
	wg.Wait()

	// Durable-before-visible: every Assert has returned, so every record
	// is covered by some fsync.
	if l.Durable() != l.Appended() {
		t.Fatalf("durable %d < appended %d after all commits returned", l.Durable(), l.Appended())
	}
	snap := reg.Snapshot()
	if snap.WalAppends != uint64(workers*per) {
		t.Fatalf("appends %d, want %d", snap.WalAppends, workers*per)
	}
	// Group commit: at most one fsync per append (usually far fewer with
	// concurrency; exactly equal only if the scheduler fully serialized).
	if snap.WalSyncs > snap.WalAppends {
		t.Fatalf("syncs %d > appends %d in batch mode", snap.WalSyncs, snap.WalAppends)
	}
	l.Close()
}

func TestIntervalSyncCatchesUp(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(1))
	l := attach(t, dir, s, Options{Sync: SyncInterval, Interval: time.Millisecond})
	for i := 0; i < 10; i++ {
		s.Assert(1, tup(int64(i)))
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Durable() < l.Appended() {
		if time.Now().After(deadline) {
			t.Fatalf("interval sync never covered: durable %d, appended %d", l.Durable(), l.Appended())
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

func TestAppendsMatchCommits(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(4))
	reg := s.Metrics()
	l := attach(t, dir, s, Options{Sync: SyncBatch, Metrics: reg})
	workload(t, s, 30)
	// Also push commits through the commuting (key-latch) path.
	key := dataspace.InterestKey{Arity: 2, Lead: tuple.Int(999), LeadKnown: true}
	for i := 0; i < 10; i++ {
		err := s.UpdateCommuting(1, []dataspace.InterestKey{key}, func(w dataspace.Writer) error {
			w.Insert(tup(999, int64(i)), 1)
			return nil
		})
		if err != nil {
			t.Fatalf("UpdateCommuting: %v", err)
		}
	}
	snap := reg.Snapshot()
	if snap.WalAppends != reg.Commits() {
		t.Fatalf("WAL invariant violated: %d appends, %d engine commits", snap.WalAppends, reg.Commits())
	}
	if snap.WalAppends == 0 {
		t.Fatal("no appends recorded")
	}
	l.Close()
}

func TestRecoverRejectsTamperedHistory(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(1))
	l := attach(t, dir, s, Options{Sync: SyncBatch})
	s.Assert(1, tup(1))
	id := s.Assert(1, tup(2))[0]
	if err := s.Update(1, func(w dataspace.Writer) error { return w.Delete(id) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
	l.Close()

	// Rewrite the log so a delete references an instance that never
	// existed: the frame is CRC-valid but the history is inconsistent, and
	// recovery must refuse rather than guess.
	st, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	segs, _ := SegmentFiles(dir)
	for _, p := range segs {
		os.Remove(p)
	}
	l2, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, rec := range st.Records {
		for i := range rec.Deleted {
			rec.Deleted[i].ID += 100 // dangling reference
		}
		l2.Append(rec)
	}
	l2.Close()

	s2 := dataspace.New(dataspace.WithShards(1))
	l3, _ := Open(dir, Options{})
	if _, err := l3.Recover(s2); err == nil {
		t.Fatal("Recover accepted a tampered history")
	}
	l3.Close()
}

func TestReadStateIsPure(t *testing.T) {
	dir := t.TempDir()
	s := dataspace.New(dataspace.WithShards(1))
	l := attach(t, dir, s, Options{Sync: SyncBatch})
	for i := 0; i < 5; i++ {
		s.Assert(1, tup(int64(i)))
	}
	l.Close()

	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := func(es []os.DirEntry) []string {
		var out []string
		for _, e := range es {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, e.Name()+fi.ModTime().String())
		}
		return out
	}
	want := names(before)
	if _, err := ReadState(dir); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := names(after)
	if len(got) != len(want) {
		t.Fatalf("ReadState changed the directory: %v -> %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReadState changed %v -> %v", want[i], got[i])
		}
	}
	// And sizes are untouched.
	for _, e := range after {
		fi, _ := e.Info()
		if fi.Size() == 0 && filepath.Ext(e.Name()) == ".seg" {
			t.Fatalf("segment %s emptied", e.Name())
		}
	}
}

// TestAppendAllocatesNothing pins the appender at zero allocations in the
// steady state: a one-insert/one-delete record is encoded straight into the
// log's frame buffer behind a reserved header and written with one write(2).
func TestAppendAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	l, err := Open(t.TempDir(), Options{Sync: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := dataspace.CommitRecord{Version: 1, Owner: 3,
		Inserted: []dataspace.Instance{{ID: 2, Owner: 3, Tuple: tup(7, 1)}},
		Deleted:  []dataspace.Instance{{ID: 1, Owner: 3, Tuple: tup(7, 0)}}}
	if n := testing.AllocsPerRun(200, func() {
		l.Append(rec)
		rec.Version++
	}); n != 0 {
		t.Errorf("Append: %.1f allocations per record, want 0", n)
	}
}

// BenchmarkRecover restarts from a checkpoint of 2^18 two-field counters,
// the upsert-durable workload's restart: decode, restore, verify against
// the reference model, re-anchor. Each iteration recovers into a fresh
// store; the re-anchor leaves the directory holding the same state.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	s := dataspace.New()
	l, err := Open(dir, Options{Sync: SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := l.Recover(s); err != nil {
		b.Fatal(err)
	}
	s.SetDurable(l)
	batch := make([]tuple.Tuple, 0, 4096)
	for k := 0; k < 1<<18; k++ {
		batch = append(batch, tup(int64(k), 0))
		if len(batch) == cap(batch) {
			s.Assert(tuple.Environment, batch...)
			batch = batch[:0]
		}
	}
	if err := l.Checkpoint(s); err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, Options{Sync: SyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		st, err := l.Recover(dataspace.New())
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		if st.Replayed != 0 || st.CheckpointVersion == 0 {
			b.Fatalf("recovered checkpoint v%d + %d records, want a checkpoint alone", st.CheckpointVersion, st.Replayed)
		}
		b.ReportMetric(float64(st.Restore.Microseconds())/1e3, "restore-ms")
		b.ReportMetric(float64(st.Verify.Microseconds())/1e3, "verify-ms")
		b.ReportMetric(float64(st.Reanchor.Microseconds())/1e3, "reanchor-ms")
	}
}
