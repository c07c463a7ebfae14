package dataspace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/sdl-lang/sdl/internal/tuple"
)

func TestCheckpointRoundTrip(t *testing.T) {
	s := New()
	ids := s.Assert(3, year(85), year(90))
	s.Assert(7, tuple.New(tuple.Atom("x"), tuple.Float(1.5), tuple.String("s"), tuple.Bool(true)))
	_ = s.Update(3, func(w Writer) error { return w.Delete(ids[0]) })

	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	if err := s2.ReadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() || s2.Version() != s.Version() {
		t.Errorf("len/version = %d/%d, want %d/%d", s2.Len(), s2.Version(), s.Len(), s.Version())
	}
	// Same instances, same IDs, same owners.
	orig := map[tuple.ID]Instance{}
	for _, inst := range s.All() {
		orig[inst.ID] = inst
	}
	for _, inst := range s2.All() {
		want, ok := orig[inst.ID]
		if !ok || !want.Tuple.Equal(inst.Tuple) || want.Owner != inst.Owner {
			t.Errorf("instance %d mismatch: %+v vs %+v", inst.ID, inst, want)
		}
	}
	// New inserts must not reuse restored IDs.
	newIDs := s2.Assert(1, year(99))
	if _, dup := orig[newIDs[0]]; dup {
		t.Errorf("restored store reused instance ID %d", newIDs[0])
	}
	// Restored indexes must serve scans.
	s2.Snapshot(func(r Reader) {
		if got := collect(r, 2, tuple.Atom("year"), true); len(got) != 2 {
			t.Errorf("scan after restore = %d", len(got))
		}
	})
}

func TestCheckpointDeterministic(t *testing.T) {
	s := New()
	s.Assert(1, year(1), year(2), year(3))
	var a, b bytes.Buffer
	if err := s.WriteCheckpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("checkpoints of the same configuration differ")
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	s := New()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Errorf("len = %d", s2.Len())
	}
}

func TestCheckpointErrors(t *testing.T) {
	// Not empty.
	full := New()
	full.Assert(1, year(1))
	var good bytes.Buffer
	if err := New().WriteCheckpoint(&good); err != nil {
		t.Fatal(err)
	}
	if err := full.ReadCheckpoint(&good); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("non-empty restore: %v", err)
	}
	// Bad magic / truncation / trailing garbage.
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SDLD"),
		append([]byte("SDLD"), 99), // unsupported format version
	}
	for i, data := range cases {
		if err := New().ReadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
	// Trailing bytes.
	s := New()
	s.Assert(1, year(1))
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if err := New().ReadCheckpoint(&buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("trailing: %v", err)
	}
}

// Property: checkpoint round trip preserves the multiset exactly.
func TestQuickCheckpointRoundTrip(t *testing.T) {
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(testSeed(21))), MaxCount: 25}
	f := func(raw []uint8) bool {
		s := New()
		for _, r := range raw {
			s.Assert(tuple.ProcessID(r%5), tuple.New(tuple.Int(int64(r%7)), tuple.Int(int64(r))))
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf); err != nil {
			return false
		}
		s2 := New()
		if err := s2.ReadCheckpoint(&buf); err != nil {
			return false
		}
		if s2.Len() != s.Len() {
			return false
		}
		want := map[tuple.ID]Instance{}
		for _, inst := range s.All() {
			want[inst.ID] = inst
		}
		for _, inst := range s2.All() {
			w, ok := want[inst.ID]
			if !ok || !w.Tuple.Equal(inst.Tuple) || w.Owner != inst.Owner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCheckpointGoldenBytes restores a checkpoint written by the encoder of
// commit 049c2d8 (before tuple.Value's payloads shared a word and before
// the index layout changed) and requires the change to write the same
// bytes back: the format is what the file says, not what the structs are.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint-049c2d8.golden"))
	if err != nil {
		t.Fatal(err)
	}
	insts, version, err := DecodeCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 26 || version != 23 {
		t.Fatalf("decoded %d instances at version %d, want 26 at 23", len(insts), version)
	}
	for _, shards := range []int{1, 16} {
		s := New(WithShards(shards))
		if err := s.ReadCheckpoint(bytes.NewReader(golden)); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		s.Snapshot(func(r Reader) {
			if got := collect(r, 3, tuple.Int(2), true); len(got) != 2 {
				t.Errorf("%d shards: <2, rec, *> serves %d tuples, want 2 (an int and a float lead)", shards, len(got))
			}
			if got := collect(r, 0, tuple.Value{}, false); len(got) != 1 {
				t.Errorf("%d shards: the empty tuple was not restored", shards)
			}
		})
		var out bytes.Buffer
		if err := s.WriteCheckpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Errorf("%d shards: re-written checkpoint differs from the golden bytes", shards)
		}
	}
}

// checkpointOfIDs is a checkpoint file at store version 9 holding one
// year tuple per ID, in the given order.
func checkpointOfIDs(ids ...uint64) []byte {
	buf := append([]byte(nil), checkpointMagic[:]...)
	buf = binary.AppendUvarint(buf, checkpointVersion)
	buf = binary.AppendUvarint(buf, 9)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
		buf = binary.AppendUvarint(buf, 1)
		buf = tuple.AppendTuple(buf, year(int64(id)))
	}
	return buf
}

// bit63 is the top bit of an instance ID, the first the ID limit excludes.
const bit63 tuple.ID = 1 << 63

// TestCheckpointRejectsBadIDs: a duplicate instance ID — adjacent or not,
// in a file that is otherwise ascending or not — the null ID and an ID
// above maxInstanceID (bit 63 among them) are ErrBadCheckpoint, from the
// decoder and from a direct Restore.
func TestCheckpointRejectsBadIDs(t *testing.T) {
	if err := New().ReadCheckpoint(bytes.NewReader(checkpointOfIDs(3, 1, 2))); err != nil {
		t.Errorf("unsorted but duplicate-free: %v", err)
	}
	tag := uint64(bit63)
	for _, ids := range [][]uint64{{1, 1}, {1, 2, 1}, {2, 1, 2}, {0}, {1, 0},
		{tag}, {1, 2, tag | 3}, {tag - 1}, {uint64(maxInstanceID) + 1}, {1<<64 - 1}} {
		if _, _, err := DecodeCheckpoint(bytes.NewReader(checkpointOfIDs(ids...))); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("ids %v: err = %v", ids, err)
		}
	}
	for _, insts := range [][]Instance{
		{{ID: 4, Tuple: year(1)}, {ID: 4, Tuple: year(2)}},
		{{ID: tuple.NoID, Tuple: year(1)}},
		{{ID: 1, Tuple: year(1)}, {ID: 2, Tuple: year(2)}, {ID: bit63 | 3, Tuple: year(3)}},
		{{ID: maxInstanceID + 1, Tuple: year(1)}},
	} {
		if err := New().Restore(insts, 1); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("Restore(%v): err = %v", insts, err)
		}
	}
}

// TestLargestInstanceID: a checkpoint, and a recovered record, may carry
// IDs up to maxInstanceID, and the store then mints IDs above them, in
// spilled index sets too; a recovered insert above the limit is an error,
// not a panic in the index.
func TestLargestInstanceID(t *testing.T) {
	top := uint64(maxInstanceID)
	s := New()
	if err := s.ReadCheckpoint(bytes.NewReader(checkpointOfIDs(top-1, top))); err != nil {
		t.Fatalf("restoring IDs up to the limit: %v", err)
	}
	ids := s.Assert(1, year(1), year(1), year(1))
	if ids[0] != maxInstanceID+1 || s.Len() != 5 {
		t.Fatalf("minted %v after restoring ID %d; store holds %d", ids, top, s.Len())
	}
	s = New()
	ins := func(id tuple.ID) CommitRecord {
		return CommitRecord{Version: uint64(id), Inserted: []Instance{{ID: id, Tuple: year(1), Owner: 1}}}
	}
	for _, id := range []tuple.ID{1, 2, maxInstanceID} {
		if err := s.ApplyRecovered(ins(id)); err != nil {
			t.Fatalf("recovering #%d: %v", id, err)
		}
	}
	for _, id := range []tuple.ID{maxInstanceID + 1, bit63, bit63 | 4} {
		if err := s.ApplyRecovered(ins(id)); err == nil {
			t.Errorf("recovered an insert of #%d, above the limit", id)
		}
	}
	if s.Len() != 3 {
		t.Errorf("store holds %d instances after the rejected inserts, want 3", s.Len())
	}
}
