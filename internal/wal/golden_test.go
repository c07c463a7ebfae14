package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
)

// TestRecoverGoldenDirectory recovers a log directory written by commit
// 049c2d8 — a checkpoint plus one segment after it (a key-latched
// read-modify-write, a -0.0 float, deletes of checkpointed instances, the
// empty tuple) — and requires the configuration that commit dumped on its
// way out. The one difference is deliberate: it printed the float as -0,
// and the change canonicalizes the sign away on decode.
func TestRecoverGoldenDirectory(t *testing.T) {
	golden := filepath.Join("testdata", "golden-049c2d8")
	want, err := os.ReadFile(filepath.Join(golden, "final.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 16} {
		dir := t.TempDir()
		for _, name := range []string{"ckpt-0000000002.ckpt", "wal-0000000003.seg"} {
			data, err := os.ReadFile(filepath.Join(golden, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{Sync: SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		s := dataspace.New(dataspace.WithShards(shards))
		stats, err := l.Recover(s)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if stats.CheckpointVersion != 23 || stats.Replayed != 4 || stats.TornBytes != 0 || stats.Gaps != 0 {
			t.Errorf("%d shards: recovery stats %+v, want checkpoint 23 + 4 records, nothing torn or missing", shards, stats)
		}
		insts := s.All()
		sort.Slice(insts, func(i, j int) bool { return insts[i].ID < insts[j].ID })
		var got strings.Builder
		fmt.Fprintf(&got, "version %d\n", s.Version())
		for _, inst := range insts {
			fmt.Fprintf(&got, "%d %d %s\n", inst.ID, inst.Owner, inst.Tuple)
		}
		if got.String() != string(want) {
			t.Errorf("%d shards: recovered configuration differs from the golden dump\ngot:\n%swant:\n%s", shards, got.String(), want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenBytesReencode pins the byte formats, not just their decoding:
// each frame of the golden segment, decoded and re-encoded by the current
// appender, and the golden checkpoint, recovered and rewritten, reproduce
// the bytes commit 049c2d8 wrote. The one exception is the frame holding
// the -0.0 float: decoding canonicalizes its sign away (see
// TestRecoverGoldenDirectory), so it re-encodes as +0.0.
func TestGoldenBytesReencode(t *testing.T) {
	golden := filepath.Join("testdata", "golden-049c2d8")
	seg, err := os.ReadFile(filepath.Join(golden, "wal-0000000003.seg"))
	if err != nil {
		t.Fatal(err)
	}
	body, frames, signed := seg[segmentHeaderLen:], 0, 0
	for len(body) > 0 {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(body))
		recs, tail := scanFrames(body[:n])
		if len(recs) != 1 || tail != 0 {
			t.Fatalf("golden frame %d does not decode", frames)
		}
		if got := appendRecordFrame(nil, recs[0]); !bytes.Equal(got, body[:n]) {
			if !holdsZeroFloat(recs[0]) {
				t.Errorf("frame %d re-encodes differently\ngot  %x\nwant %x", frames, got, body[:n])
			}
			signed++
		}
		body, frames = body[n:], frames+1
	}
	if frames != 4 || signed != 1 {
		t.Errorf("golden segment: %d frames, %d re-encoded differently; want 4 and the one -0.0 frame", frames, signed)
	}

	ckpt, err := os.ReadFile(filepath.Join(golden, "ckpt-0000000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-0000000002.ckpt"), ckpt, 0o666); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := dataspace.New(dataspace.WithShards(4))
	if _, err := l.Recover(s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ckpt) {
		t.Errorf("rewritten checkpoint differs from the golden bytes\ngot  %x\nwant %x", buf.Bytes(), ckpt)
	}
}

func holdsZeroFloat(rec dataspace.CommitRecord) bool {
	for _, inst := range append(rec.Inserted, rec.Deleted...) {
		for i := 0; i < inst.Tuple.Arity(); i++ {
			if f, ok := inst.Tuple.Field(i).AsFloat(); ok && f == 0 {
				return true
			}
		}
	}
	return false
}
