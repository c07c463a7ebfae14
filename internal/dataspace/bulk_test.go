package dataspace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// parallelBulk lets the bulk paths run several workers even on a host with
// one CPU, for the length of the test.
func parallelBulk(t testing.TB) {
	prev := runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// bulkConfiguration builds one configuration in s: multi-shard batches of
// several arities and lead kinds, a single-shard batch, and a retraction of
// every seventh instance.
func bulkConfiguration(t testing.TB, s *Store) {
	var batch []tuple.Tuple
	for i := int64(0); i < 300; i++ {
		switch i % 4 {
		case 0:
			batch = append(batch, tuple.New(tuple.Int(i), tuple.Int(i*i)))
		case 1:
			batch = append(batch, tuple.New(tuple.Atom(fmt.Sprintf("a%d", i%13)), tuple.Float(float64(i)/2), tuple.Bool(i%3 == 0)))
		case 2:
			batch = append(batch, tuple.New(tuple.String(fmt.Sprintf("s%d", i%29))))
		default:
			batch = append(batch, tuple.New())
		}
	}
	ids := s.Assert(tuple.ProcessID(3), batch...)
	s.Assert(tuple.ProcessID(4), year(1), year(2), year(2), year(3))
	if err := s.Update(5, func(w Writer) error {
		for i := 0; i < len(ids); i += 7 {
			if err := w.Delete(ids[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func checkpointBytes(t testing.TB, s *Store) []byte {
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// One configuration asserted into 1-, 2-, 4- and 16-shard stores writes one
// checkpoint, byte for byte, and so does every restore of it into any of
// those shard counts.
func TestCheckpointBytesAcrossShardCounts(t *testing.T) {
	parallelBulk(t)
	counts := []int{1, 2, 4, 16}
	var want []byte
	for _, n := range counts {
		s := New(WithShards(n))
		bulkConfiguration(t, s)
		got := checkpointBytes(t, s)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-shard store writes a different checkpoint than the 1-shard store", n)
		}
	}
	for _, n := range counts {
		s := New(WithShards(n))
		if err := s.ReadCheckpoint(bytes.NewReader(want)); err != nil {
			t.Fatalf("restore into %d shards: %v", n, err)
		}
		if got := checkpointBytes(t, s); !bytes.Equal(got, want) {
			t.Errorf("restored into %d shards, the checkpoint re-encodes differently", n)
		}
	}
}

// A multi-shard Assert returns one contiguous run of IDs in input order,
// commits them as one record in that order, and every Get finds its tuple —
// while Updates on other keys commit beside it (run it under -race).
func TestBulkAssertContiguousIDs(t *testing.T) {
	parallelBulk(t)
	s := New(WithShards(16))
	var mu sync.Mutex
	var records [][]Instance
	s.OnCommit(func(rec CommitRecord) {
		if rec.Owner == 7 {
			mu.Lock()
			records = append(records, append([]Instance(nil), rec.Inserted...))
			mu.Unlock()
		}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lead := tuple.Atom(fmt.Sprintf("other%d", w))
			keys := []InterestKey{{Arity: 2, Lead: lead, LeadKnown: true}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.UpdateKeys(tuple.ProcessID(w+1), keys, func(wr Writer) error {
					id := wr.Insert(tuple.New(lead, tuple.Int(int64(i))), tuple.ProcessID(w+1))
					if i%2 == 1 {
						return wr.Delete(id)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	const rounds, size = 20, 500
	for r := 0; r < rounds; r++ {
		batch := make([]tuple.Tuple, size)
		for i := range batch {
			batch[i] = tuple.New(tuple.Int(int64(r*size+i)), tuple.Int(int64(r)))
		}
		ids := s.Assert(7, batch...)
		for i, id := range ids {
			if id != ids[0]+tuple.ID(i) {
				t.Fatalf("round %d: ID %d at position %d, want %d (a contiguous run)", r, id, i, ids[0]+tuple.ID(i))
			}
		}
		s.Snapshot(func(rd Reader) {
			for i, id := range ids {
				if inst, ok := rd.Get(id); !ok || !inst.Tuple.Equal(batch[i]) || inst.Owner != 7 {
					t.Fatalf("round %d: Get(%d) = %v, %v; want %v", r, id, inst, ok, batch[i])
				}
			}
		})
		mu.Lock()
		rec := records[len(records)-1]
		mu.Unlock()
		for i, inst := range rec {
			if inst.ID != ids[i] || !inst.Tuple.Equal(batch[i]) {
				t.Fatalf("round %d: commit record position %d is %v, want #%d %v", r, i, inst, ids[i], batch[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	if len(records) != rounds {
		t.Errorf("%d commit records for %d Asserts", len(records), rounds)
	}
}

// FuzzCheckpoint: no input makes DecodeCheckpoint panic, and a decodable
// input restores without error or panic into 1 and into 4 shards, each
// restore passes checkSlab, both re-encode to the same bytes, and those
// decode to the same configuration.
func FuzzCheckpoint(f *testing.F) {
	s := New(WithShards(4))
	bulkConfiguration(f, s)
	f.Add(checkpointBytes(f, s))
	f.Add(checkpointBytes(f, New()))
	if golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint-049c2d8.golden")); err == nil {
		f.Add(golden)
	}
	// IDs at and around bit 63, alone and in a bucket that spills: the
	// decoder must reject every one above the limit.
	f.Add(checkpointOfIDs(uint64(bit63)))
	f.Add(checkpointOfIDs(1, 2, uint64(bit63)|3))
	f.Add(checkpointOfIDs(uint64(bit63) - 1))
	f.Add(checkpointOfIDs(1, 2, uint64(maxInstanceID)))
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, version, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc [2][]byte
		for i, n := range []int{1, 4} {
			s := New(WithShards(n))
			if err := s.Restore(insts, version); err != nil {
				t.Fatalf("restoring a decoded checkpoint into %d shards: %v", n, err)
			}
			checkSlab(t, s)
			enc[i] = checkpointBytes(t, s)
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Fatal("the 1- and 4-shard restores re-encode differently")
		}
		again, v2, err := DecodeCheckpoint(bytes.NewReader(enc[0]))
		if err != nil || v2 != version || len(again) != len(insts) {
			t.Fatalf("re-encoding decodes to %d instances at v%d (%v), want %d at v%d", len(again), v2, err, len(insts), version)
		}
	})
}

// BenchmarkCheckpoint writes the checkpoint of 2^18 two-field counters, the
// upsert-durable workload's store.
func BenchmarkCheckpoint(b *testing.B) {
	s := New()
	batch := make([]tuple.Tuple, 0, 4096)
	for k := 0; k < 1<<18; k++ {
		batch = append(batch, tuple.New(tuple.Int(int64(k)), tuple.Int(0)))
		if len(batch) == cap(batch) {
			s.Assert(tuple.Environment, batch...)
			batch = batch[:0]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteCheckpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
