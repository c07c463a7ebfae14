package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// fuzzRecords is a fixed record stream used to seed the corpus and to
// check the round-trip property.
func fuzzRecords() []dataspace.CommitRecord {
	return []dataspace.CommitRecord{
		{Version: 1, Owner: 7, Inserted: []dataspace.Instance{
			{ID: 1, Owner: 7, Tuple: tuple.New(tuple.Int(1), tuple.Int(2))},
		}},
		{Version: 2, Owner: 3, Inserted: []dataspace.Instance{
			{ID: 2, Owner: 3, Tuple: tuple.New(tuple.Int(-9))},
		}, Deleted: []dataspace.Instance{
			{ID: 1, Owner: 7, Tuple: tuple.New(tuple.Int(1), tuple.Int(2))},
		}},
		{Version: 3, Owner: 1},
	}
}

func encodeFrames(recs []dataspace.CommitRecord) []byte {
	var body []byte
	for _, rec := range recs {
		body = appendRecordFrame(body, rec)
	}
	return body
}

func sameRecord(a, b dataspace.CommitRecord) bool {
	if a.Version != b.Version || a.Owner != b.Owner ||
		len(a.Inserted) != len(b.Inserted) || len(a.Deleted) != len(b.Deleted) {
		return false
	}
	for i := range a.Inserted {
		x, y := a.Inserted[i], b.Inserted[i]
		if x.ID != y.ID || x.Owner != y.Owner || !x.Tuple.Equal(y.Tuple) {
			return false
		}
	}
	for i := range a.Deleted {
		x, y := a.Deleted[i], b.Deleted[i]
		if x.ID != y.ID || x.Owner != y.Owner || !x.Tuple.Equal(y.Tuple) {
			return false
		}
	}
	return true
}

// FuzzWALDecode feeds arbitrary bytes to the segment-body scanner. The
// scanner must never panic, and — the prefix property — every record it
// returns must be framed entirely inside the input before the first
// damaged frame: when the input is a valid frame stream with a suffix
// chopped or a byte flipped, the output is exactly the unbroken prefix.
func FuzzWALDecode(f *testing.F) {
	valid := encodeFrames(fuzzRecords())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                       // torn tail
	f.Add([]byte{})                                   // empty body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	mut := bytes.Clone(valid)
	mut[2] ^= 0x40
	f.Add(mut) // corrupt first frame

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, tail := scanFrames(data)
		if tail < 0 || tail > len(data) {
			t.Fatalf("tail %d out of range for %d bytes", tail, len(data))
		}
		// Every returned record must re-encode into a frame found intact,
		// in order, inside the consumed prefix — records cannot come from
		// beyond the cut.
		consumed := data[:len(data)-tail]
		off := 0
		for i, rec := range recs {
			if off+frameHeaderLen > len(consumed) {
				t.Fatalf("record %d claims bytes past the cut", i)
			}
			n := int(binary.LittleEndian.Uint32(consumed[off:]))
			payload := consumed[off+frameHeaderLen : off+frameHeaderLen+n]
			got, err := decodeRecordPayload(payload)
			if err != nil {
				t.Fatalf("record %d frame does not re-decode: %v", i, err)
			}
			if !sameRecord(got, rec) {
				t.Fatalf("record %d diverges from its frame", i)
			}
			off += frameHeaderLen + n
		}
		if off != len(consumed) {
			t.Fatalf("scan consumed %d bytes but frames account for %d", len(consumed), off)
		}
	})
}

// FuzzWALRoundTrip drives the encoder with fuzzer-chosen record contents
// and requires exact decode.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(42), uint64(3), []byte("seed"))
	f.Fuzz(func(t *testing.T, version uint64, val int64, owner uint64, tag []byte) {
		if len(tag) > 64 {
			tag = tag[:64]
		}
		rec := dataspace.CommitRecord{
			Version: version,
			Owner:   tuple.ProcessID(owner),
			Inserted: []dataspace.Instance{
				{ID: 1, Owner: tuple.ProcessID(owner), Tuple: tuple.New(tuple.Int(val), tuple.String(string(tag)))},
			},
		}
		body := encodeFrames([]dataspace.CommitRecord{rec})
		recs, tail := scanFrames(body)
		if tail != 0 || len(recs) != 1 || !sameRecord(recs[0], rec) {
			t.Fatalf("round-trip failed: tail=%d n=%d", tail, len(recs))
		}
	})
}
