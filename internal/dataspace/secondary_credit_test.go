package dataspace

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/race"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// countScan counts what ScanFields delivers for sels.
func countScan(fs pattern.FieldSource, arity int, sels []pattern.FieldSel) int {
	n := 0
	fs.ScanFields(arity, sels, func(tuple.ID, tuple.Tuple) bool { n++; return true })
	return n
}

// joinStore is join-read's store in small: groups*perGroup records
// <i, rec, i mod groups> and one <p, link, g> per group.
func joinStore(shards, groups, perGroup int) *Store {
	s := New(WithShards(shards))
	batch := make([]tuple.Tuple, 0, groups*(perGroup+1))
	for i := 0; i < groups*perGroup; i++ {
		batch = append(batch, tuple.New(tuple.Int(int64(i)), tuple.Atom("rec"), tuple.Int(int64(i%groups))))
	}
	for p := 0; p < groups; p++ {
		batch = append(batch, tuple.New(tuple.Int(int64(p)), tuple.Atom("link"), tuple.Int(int64(p*7%groups))))
	}
	s.Assert(tuple.Environment, batch...)
	return s
}

// TestUnservedShapeDemotionSticks: join-read's group fetch <?x, rec, G>
// carries the tag (pos 1) and the group (pos 2). Both shapes are promoted by
// the first arity walks, but only the group's bucket ever serves: the tag's,
// every record of the shard, loses every comparison. After demoteMinWrites
// such passes the tag's shape is demoted on the read path and its index
// dropped, in every shard, and it stays cold: each later scan is served a
// group bucket no wider than the tag's, which cannot use it — a narrow one
// at 10 records a group, and at 40 (E17's groups at n = 400k) one wider than
// wideLeadBucket in the shards that hold more than 16 of a group.
func TestUnservedShapeDemotionSticks(t *testing.T) {
	const groups = 400
	for _, tc := range []struct{ shards, perGroup int }{{1, 10}, {2, 10}, {16, 10}, {1, 40}, {2, 40}} {
		shards, perGroup := tc.shards, tc.perGroup
		t.Run(fmt.Sprintf("shards=%d/per-group=%d", shards, perGroup), func(t *testing.T) {
			s := joinStore(shards, groups, perGroup)
			rec := tuple.Atom("rec")
			fetch := func(n int) {
				s.Snapshot(func(r Reader) {
					fs := r.(pattern.FieldSource)
					for i := 0; i < n; i++ {
						sels := []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: tuple.Int(int64(i % groups))}}
						if got := countScan(fs, 3, sels); i >= promoteScanBar && got != perGroup+1 {
							t.Fatalf("fetch %d delivered %d tuples, want the group bucket's %d", i, got, perGroup+1)
						}
					}
				})
			}
			fetch(promoteScanBar + demoteMinWrites)
			check := func(when string) {
				t.Helper()
				for si, sh := range s.shards {
					tag, group := &sh.sec.shapes[3][1], &sh.sec.shapes[3][2]
					if tag.state.Load() != shapeCold || tag.idx.Load() != nil {
						t.Errorf("%s: shard %d's tag shape is %d with index %v, want cold without one", when, si, tag.state.Load(), tag.idx.Load() != nil)
					}
					if group.state.Load() != shapeHot {
						t.Errorf("%s: shard %d's group shape is not hot", when, si)
					}
				}
				m := s.Metrics().Snapshot()
				if m.SecondaryPromotions != uint64(2*shards) || m.SecondaryDemotions != uint64(shards) {
					t.Errorf("%s: %d promotions and %d demotions, want %d and %d", when, m.SecondaryPromotions, m.SecondaryDemotions, 2*shards, shards)
				}
			}
			check("after the consults")
			fetch(10_000)
			check("after 10^4 more fetches")
		})
	}
}

// TestNarrowScanChargesNothing: once group-only fetches <?x, *, G> have
// promoted the group's shape, its narrow buckets serve the tag-and-group
// fetches too, so those charge nothing and the tag's shape, which could
// never beat them, is never built.
func TestNarrowScanChargesNothing(t *testing.T) {
	const groups, perGroup = 400, 10
	s := joinStore(2, groups, perGroup)
	rec := tuple.Atom("rec")
	s.Snapshot(func(r Reader) {
		fs := r.(pattern.FieldSource)
		for i := 0; i < promoteScanBar; i++ {
			countScan(fs, 3, []pattern.FieldSel{{Pos: 2, Val: tuple.Int(int64(i))}})
		}
		for i := 0; i < 1000; i++ {
			countScan(fs, 3, []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: tuple.Int(int64(i % groups))}})
		}
	})
	for si, sh := range s.shards {
		if st := &sh.sec.shapes[3][1]; st.state.Load() != shapeCold || st.idx.Load() != nil {
			t.Errorf("shard %d: the tag's shape was promoted by scans a narrow bucket served", si)
		}
	}
	if m := s.Metrics().Snapshot(); m.SecondaryPromotions != uint64(len(s.shards)) {
		t.Errorf("%d promotions, want the group's shape in each of %d shards", m.SecondaryPromotions, len(s.shards))
	}
}

// TestMixedTagQueriesDoNotFlap: tag-only fetches <?x, rec, *> are served
// the tag's bucket, and tag-plus-group fetches the group's. Mixed 1:1 or
// 1:20, each shape serves some of them, so after the warm-up neither is
// demoted, and neither is promoted twice.
func TestMixedTagQueriesDoNotFlap(t *testing.T) {
	const groups, perGroup = 40, 10
	rec := tuple.Atom("rec")
	for _, shards := range []int{1, 4} {
		for _, every := range []int{2, 21} { // one tag-only fetch in every 2, in every 21
			t.Run(fmt.Sprintf("shards=%d/1:%d", shards, every-1), func(t *testing.T) {
				s := joinStore(shards, groups, perGroup)
				s.Snapshot(func(r Reader) {
					fs := r.(pattern.FieldSource)
					for i := 0; i < 4*demoteMinWrites; i++ {
						sels := []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: tuple.Int(int64(i % groups))}}
						if i%every == 0 {
							sels = sels[:1]
						}
						countScan(fs, 3, sels)
					}
				})
				m := s.Metrics().Snapshot()
				if m.SecondaryPromotions != uint64(2*shards) || m.SecondaryDemotions != 0 {
					t.Errorf("%d promotions and %d demotions, want each shape promoted once (%d) and none demoted",
						m.SecondaryPromotions, m.SecondaryDemotions, 2*shards)
				}
			})
		}
	}
}

// TestFieldScanCreditSameOnEveryReadPath: the live reader, the keyWriter
// overlay and the epoch reader book a field scan alike. Lead-known scans of
// a wide <job, i, i mod 2> bucket carry pos 1 (selective) and pos 2 (half
// the bucket); once both are promoted, every scan is served the pos-1
// bucket, so pos 1 is credited each time, and pos 2, which serves nothing,
// is demoted after demoteMinWrites scans and stays cold — on the epoch path
// too, whose snapshot still holds its buckets.
func TestFieldScanCreditSameOnEveryReadPath(t *testing.T) {
	job := tuple.Atom("job")
	sels := []pattern.FieldSel{{Pos: 0, Val: job}, {Pos: 1, Val: tuple.Int(7)}, {Pos: 2, Val: tuple.Int(1)}}
	keys := []InterestKey{InterestOf(3, job, true)}
	paths := []struct {
		name string
		read func(s *Store, fn func(pattern.FieldSource)) bool
	}{
		{"reader", func(s *Store, fn func(pattern.FieldSource)) bool {
			s.SnapshotKeys(keys, func(r Reader) { fn(r.(pattern.FieldSource)) })
			return true
		}},
		{"keyWriter", func(s *Store, fn func(pattern.FieldSource)) bool {
			ok := false
			s.UpdateCommuting(tuple.Environment, keys, func(w Writer) error {
				_, ok = w.(keyWriter)
				fn(w.(pattern.FieldSource))
				return nil
			})
			return ok
		}},
		{"epoch", func(s *Store, fn func(pattern.FieldSource)) bool {
			return s.SnapshotKeysEpoch(keys, func(r Reader) { fn(r.(pattern.FieldSource)) })
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			s := New(WithShards(4))
			for i := 0; i < 100; i++ {
				s.Assert(tuple.Environment, tuple.New(job, tuple.Int(int64(i)), tuple.Int(int64(i%2))))
			}
			s.Snapshot(func(r Reader) {
				for i := 0; i < promoteScanBar; i++ {
					countScan(r.(pattern.FieldSource), 3, sels)
				}
			})
			sh := s.shards[s.shardIndex(indexKey{arity: 3, lead: canonLead(job)})]
			sel, half := &sh.sec.shapes[3][1], &sh.sec.shapes[3][2]
			if sel.state.Load() != shapeHot || half.state.Load() != shapeHot {
				t.Fatal("the lead-known scans did not promote both shapes")
			}
			if path.name == "epoch" {
				for i := 0; !s.SnapshotKeysEpoch(keys, func(Reader) {}); i++ {
					if i > 1000 {
						t.Fatal("the epoch snapshot was never rebuilt")
					}
				}
			}
			scan := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if !path.read(s, func(fs pattern.FieldSource) {
						if got := countScan(fs, 3, sels); got != 1 {
							t.Fatalf("scan %d delivered %d tuples, want the (1, 7) bucket's one", i, got)
						}
					}) {
						t.Fatalf("scan %d did not run on the %s path", i, path.name)
					}
				}
			}
			scan(1)
			if got := sel.scans.Load(); got != 1 {
				t.Fatalf("the serving shape is credited with %d scans after one, want 1", got)
			}
			scan(demoteMinWrites - 1)
			if got := sel.scans.Load(); got != demoteMinWrites || sel.state.Load() != shapeHot {
				t.Errorf("the serving shape: %d scans credited, state %d; want %d, hot", got, sel.state.Load(), demoteMinWrites)
			}
			if half.state.Load() != shapeCold || half.idx.Load() != nil {
				t.Errorf("the shape that never served is %d with index %v after %d scans, want cold without one",
					half.state.Load(), half.idx.Load() != nil, demoteMinWrites)
			}
			scan(4 * demoteMinWrites)
			m := s.Metrics().Snapshot()
			if half.state.Load() != shapeCold || m.SecondaryPromotions != 2 || m.SecondaryDemotions != 1 {
				t.Errorf("after more scans: state %d, %d promotions, %d demotions; want cold, 2, 1",
					half.state.Load(), m.SecondaryPromotions, m.SecondaryDemotions)
			}
		})
	}
}

// TestFieldShapeBookingAllocates: a field scan that credits the shape that
// served it, one that charges a cold shape, and one that demotes a shape on
// the read path allocate nothing: booking is counter updates and a CAS.
func TestFieldShapeBookingAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are not exact")
	}
	s := joinStore(1, 40, 10)
	rec := tuple.Atom("rec")
	s.Assert(tuple.Environment, tuple.New(tuple.Int(0), rec), tuple.New(tuple.Int(1), rec))
	seen := 0
	count := func(tuple.ID, tuple.Tuple) bool { seen++; return true }
	fetch := []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: tuple.Int(3)}}
	pair := []pattern.FieldSel{{Pos: 1, Val: rec}} // <i, rec>: no hot shape at arity 2
	scanFetch := func(r Reader) { r.(pattern.FieldSource).ScanFields(3, fetch, count) }
	scanPair := func(r Reader) { r.(pattern.FieldSource).ScanFields(2, pair, count) }
	for i := 0; i < promoteScanBar+1; i++ {
		s.Snapshot(scanFetch) // promote both shapes and build their indexes
	}
	sh := s.shards[0]
	tag, group, cold := &sh.sec.shapes[3][1], &sh.sec.shapes[3][2], &sh.sec.shapes[2][1]
	built := tag.idx.Load()
	if built == nil || group.state.Load() != shapeHot {
		t.Fatal("the fetches did not promote both shapes")
	}

	credit := func() { s.Snapshot(scanFetch) }
	charge := func() {
		cold.scans.Store(0) // stay below the promotion bar
		s.Snapshot(scanPair)
		if cold.scans.Load() != 1 {
			t.Fatal("the arity walk did not charge the cold shape")
		}
	}
	demote := func() {
		tag.passes.Store(demoteMinWrites - 1)
		tag.idx.Store(built)
		if tag.state.CompareAndSwap(shapeCold, shapeHot) {
			sh.sec.hot.Add(1)
		}
		s.Snapshot(scanFetch)
		if tag.state.Load() != shapeCold {
			t.Fatal("the tag's shape was not demoted")
		}
	}
	before := group.scans.Load()
	for _, c := range []struct {
		name string
		fn   func()
	}{{"credit", credit}, {"charge", charge}, {"read-path demotion", demote}} {
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s: %.1f allocations per scan, want 0", c.name, got)
		}
	}
	if group.scans.Load() <= before {
		t.Error("the served group shape was not credited")
	}
}

// TestConcurrentShapeLifecycle: readers on the locked and the epoch paths
// credit, pass, promote, demote and promote again shapes while a writer
// moves records between groups. Once they are done the books balance in every shard:
// the hot count matches the hot shapes, no cold shape holds an index, and
// no shape was demoted more often than promoted.
func TestConcurrentShapeLifecycle(t *testing.T) {
	const groups, perGroup, rounds = 40, 10, 600
	s := joinStore(4, groups, perGroup)
	rec, hub := tuple.Atom("rec"), tuple.Atom("hub")
	for k := 0; k < 2*wideLeadBucket; k++ {
		s.Assert(tuple.Environment, tuple.New(hub, rec, tuple.Int(int64(k%groups))))
	}
	keys := []InterestKey{InterestOf(3, hub, true)}
	var readers sync.WaitGroup
	for c := 0; c < 3; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			for i := 0; i < rounds; i++ {
				g := tuple.Int(int64((i + c) % groups))
				fetch := []pattern.FieldSel{{Pos: 1, Val: rec}, {Pos: 2, Val: g}}
				if c == 2 && i > rounds/2 && i%8 == 0 { // tag-only, once the tag's shape is demoted
					fetch = fetch[:1]
				}
				s.Snapshot(func(r Reader) { countScan(r.(pattern.FieldSource), 3, fetch) })
				inHub := []pattern.FieldSel{{Pos: 0, Val: hub}, {Pos: 1, Val: rec}, {Pos: 2, Val: g}}
				s.SnapshotKeysEpoch(keys, func(r Reader) { countScan(r.(pattern.FieldSource), 3, inHub) })
			}
		}(c)
	}
	stop, written := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(written)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := tuple.Int(int64(i % (groups * perGroup)))
			err := s.Update(tuple.Environment, func(w Writer) error {
				var victim tuple.ID
				w.Scan(3, id, true, func(tid tuple.ID, t tuple.Tuple) bool {
					victim = tid
					return !t.Field(1).Equal(rec)
				})
				if err := w.Delete(victim); err != nil {
					return err
				}
				w.Insert(tuple.New(id, rec, tuple.Int(int64(i%groups))), tuple.Environment)
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	readers.Wait()
	close(stop)
	<-written
	for si, sh := range s.shards {
		hot := 0
		for a := range sh.sec.shapes {
			for pos := range sh.sec.shapes[a] {
				st := &sh.sec.shapes[a][pos]
				if st.state.Load() == shapeHot {
					hot++
				} else if st.idx.Load() != nil {
					t.Errorf("shard %d: cold shape (%d, %d) holds an index", si, a, pos)
				}
			}
		}
		if got := sh.sec.hot.Load(); int(got) != hot {
			t.Errorf("shard %d: hot count %d, %d shapes hot", si, got, hot)
		}
	}
	if m := s.Metrics().Snapshot(); m.SecondaryDemotions > m.SecondaryPromotions || m.SecondaryDemotions == 0 {
		t.Errorf("%d promotions, %d demotions; want some demoted, none more often than promoted", m.SecondaryPromotions, m.SecondaryDemotions)
	}
}
