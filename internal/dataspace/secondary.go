package dataspace

import (
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Adaptive secondary field indexes. The lead index (shard.byArity) only
// serves patterns whose leading field is known; every other constrained
// pattern — e.g. a constant in position 2 — degenerated to a full arity
// scan. This file adds, per shard, field-value indexes
//
//	(arity, field-pos, canonical value) → slab-slot set
//
// built adaptively: each (arity, field-pos) scan shape carries an atomic
// fallback-scan counter, and a shape whose counter crosses the promotion
// threshold flips to hot. A hot shape's buckets are populated lazily — the
// first scan that needs them builds them under the shard lock already held
// for the read — then maintained incrementally by every assert/retract
// (writer, rollback, and the keyWriter's batched apply all funnel through
// indexAdd/indexRemove into secEdit) and validated by the same change
// sequence the epoch snapshots use. Shapes whose write traffic dwarfs their
// scan usage are demoted back to cold, dropping their buckets.
//
// Concurrency discipline (checked by cmd/sdllint): a published index's
// buckets are edited only through idIndex.add/remove while the shard's
// exclusive mu is held (a fresh index is filled in a local before it is
// published); readers touch them only under at least mu.RLock, where a
// published fieldIndex whose seq matches the shard's is immutable (writers
// need the exclusive mu to change either). Shape state, scan, and write
// counters are atomics so the read path stays lock-free-ish under mu.RLock;
// the cold→hot transition is a CAS that concurrent scanners race benignly.

const (
	// maxFieldArity bounds the shapes tracked per shard; tuples with more
	// fields fall back to arity scans (none of the paper's examples come
	// close).
	maxFieldArity = 8
	// promoteScanBar is the number of scans carrying a cold shape's selector
	// it takes to promote the shape.
	promoteScanBar = 2
	// demoteMinWrites is the write count (since promotion) below which a
	// hot shape is never demoted; past it, a shape whose writes outnumber
	// its indexed scans 8:1 drops its buckets.
	demoteMinWrites = 256
	// demoteCheckMask rate-limits the demotion check to every 256th write.
	demoteCheckMask = 0xFF
	// wideLeadBucket is the (arity, lead) bucket size above which a
	// lead-known scan consults the field indexes (LeadWide). Swept over
	// 0/4/16/64/never on perf/ (3 runs each): 4 and 16 are indistinguishable
	// on every workload; 0 sends the 1-tuple point lookups of
	// upsert-durable through the selector buffers (+2 allocations per
	// operation, 47 → 49); 64 and never leave the 64-tuple barrier bucket
	// on the lead scan (process.barrier_ms 5.5 → 10.7 and 11.5).
	//
	// It is also the size up to which an idSet keeps its spill as a slice
	// (idset.go): a bucket the planner treats as narrow is one a linear
	// probe of its IDs is cheap on.
	wideLeadBucket = 16
)

// Shape lifecycle states.
const (
	shapeCold uint32 = iota // counting fallback scans
	shapeHot                // promoted: buckets built lazily, maintained incrementally
)

// fieldKey addresses one bucket of a secondary field index (the epoch
// snapshot's materialized form; the live index nests per-shape maps).
type fieldKey struct {
	arity int
	pos   int
	val   leadKey
}

// fieldIndex is one hot shape's buckets, stamped with the shard change
// sequence it is consistent with. A stale stamp (any commit the index was
// not maintained through) makes readers rebuild it from the live lead index.
type fieldIndex struct {
	seq     uint64
	buckets idIndex
}

// shapeStats is the adaptive state of one (arity, field-pos) scan shape.
type shapeStats struct {
	state  atomic.Uint32 // shapeCold | shapeHot
	scans  atomic.Uint64 // cold: fallback scans toward promotion; hot: indexed scans
	writes atomic.Uint64 // hot: writes at this arity since promotion
	idx    atomic.Pointer[fieldIndex]
}

// secondaryState is a shard's field-index layer. The shapes table is
// fixed-size so counting on the read path never allocates or locks.
type secondaryState struct {
	met    *metrics.Registry
	hot    atomic.Int32 // promoted shapes in this shard (fast skip for writers)
	shapes [maxFieldArity + 1][maxFieldArity]shapeStats
}

// secShape returns the stats slot for (arity, pos), or nil when the shape
// is outside the tracked range (pos 0 is the lead index's job).
func (sh *shard) secShape(arity, pos int) *shapeStats {
	if arity < 2 || arity > maxFieldArity || pos < 1 || pos >= arity {
		return nil
	}
	return &sh.sec.shapes[arity][pos]
}

// shapeIndex returns the shape's buckets, rebuilding them when the shard
// has changed since they were built: sized for one bucket a tuple, filled,
// then cut down to its buckets. The caller holds sh.mu (read or write), so
// the slab, the lead index and seq are stable; concurrent readers may race
// to rebuild and the last published wins — the epoch snapshot cache idiom
// (epoch.go).
//
// lint:holds rmu
func (sh *shard) shapeIndex(st *shapeStats, arity, pos int) *fieldIndex {
	seq := sh.seq.Load()
	if idx := st.idx.Load(); idx != nil && idx.seq == seq {
		return idx
	}
	fresh := idIndex{sets: newTable[idSet](sh.arityLen(arity)), arity: arity, pos: pos}
	sh.eachOfArity(arity, func(slot uint32) bool {
		fresh.add(sh.slab, slot)
		return true
	})
	fresh.fit(sh.slab)
	idx := &fieldIndex{seq: seq, buckets: fresh}
	st.idx.Store(idx)
	return idx
}

// fieldBucket picks the most selective promoted bucket among sels: the
// smallest (arity, pos, value) ID set over every hot selector shape.
// ok=true with an empty bucket means an index proved there are no matches.
// The caller holds sh.mu (read or write).
func (s *Store) fieldBucket(sh *shard, arity int, sels []pattern.FieldSel) (idView, bool) {
	if sh.sec.hot.Load() == 0 {
		return idView{}, false
	}
	var (
		best idView
		ok   bool
	)
	for _, sel := range sels {
		st := sh.secShape(arity, sel.Pos)
		if st == nil || st.state.Load() != shapeHot {
			continue
		}
		st.scans.Add(1)
		b := sh.shapeIndex(st, arity, sel.Pos).buckets.get(sh.slab, canonLead(sel.Val))
		if !ok || b.len() < best.len() {
			best, ok = b, true
		}
	}
	return best, ok
}

// countFieldShapes charges one scan to every selector's cold shape,
// promoting shapes that cross the threshold (unless the scheduler defers the
// promotion — the exploration harness perturbs build timing through this
// decision point). Every field scan charges, also one a hot shape served: a
// shape promoted by queries that carry it alone (a type tag next to a known
// lead, say) would otherwise serve its unselective bucket to every later
// query that also carries a selective field, whose shape would then never
// see the fallback scans that promote it. Runs under sh.mu or lock-free
// from the epoch path; the transition is a CAS.
func (s *Store) countFieldShapes(sh *shard, arity int, sels []pattern.FieldSel) {
	for _, sel := range sels {
		st := sh.secShape(arity, sel.Pos)
		if st == nil || st.state.Load() != shapeCold {
			continue
		}
		if st.scans.Add(1) < promoteScanBar {
			continue
		}
		if s.sc.DeferPromote() {
			continue
		}
		if st.state.CompareAndSwap(shapeCold, shapeHot) {
			st.scans.Store(0)
			st.writes.Store(0)
			sh.sec.hot.Add(1)
			s.metrics.IncIndexPromotion()
		}
	}
}

// secEdit applies one insert's or delete's edit — idIndex.add or
// idIndex.remove — to the bucket the tuple falls in under every hot shape.
// Shapes whose index is stale (a commit slipped by unmaintained) are left
// for the next reader to rebuild; shapes that turned write-heavy are
// demoted here.
//
// lint:holds mu
func (sh *shard) secEdit(slot uint32, t tuple.Tuple, edit func(*idIndex, []Instance, uint32) bool) {
	if sh.sec.hot.Load() == 0 {
		return
	}
	a := t.Arity()
	if a < 2 || a > maxFieldArity {
		return
	}
	for pos := 1; pos < a; pos++ {
		st := &sh.sec.shapes[a][pos]
		if st.state.Load() != shapeHot || sh.secWrite(st) {
			continue
		}
		if idx := st.idx.Load(); idx != nil && idx.seq == sh.seq.Load() {
			edit(&idx.buckets, sh.slab, slot)
		}
	}
}

// secWrite charges one write to a hot shape and demotes it when its write
// rate since promotion dwarfs its indexed-scan usage; reports whether the
// shape was demoted.
//
// lint:holds mu
func (sh *shard) secWrite(st *shapeStats) bool {
	w := st.writes.Add(1)
	if w&demoteCheckMask != 0 || w < demoteMinWrites {
		return false
	}
	if w <= 8*(st.scans.Load()+1) {
		return false
	}
	st.state.Store(shapeCold)
	st.idx.Store(nil)
	st.scans.Store(0)
	st.writes.Store(0)
	sh.sec.hot.Add(-1)
	sh.sec.met.IncIndexDemotion()
	return true
}

// bumpSeq advances the shard's change sequence for one commit, restarts
// the count of reads that must find the epoch snapshot stale before it is
// rebuilt, and re-stamps every hot shape index that was maintained through
// the commit, so incremental maintenance survives the sequence check
// instead of forcing a rebuild. An index whose stamp already lagged stays
// stale.
//
// lint:holds mu
func (sh *shard) bumpSeq() {
	seq := sh.seq.Add(1)
	sh.staleReads.Store(0)
	if sh.sec.hot.Load() == 0 {
		return
	}
	for a := 2; a <= maxFieldArity; a++ {
		for pos := 1; pos < a; pos++ {
			st := &sh.sec.shapes[a][pos]
			if st.state.Load() != shapeHot {
				continue
			}
			if idx := st.idx.Load(); idx != nil && idx.seq == seq-1 {
				idx.seq = seq
			}
		}
	}
}

// ScanFields implements pattern.FieldSource over the live index. Without a
// lead selector it serves, per footprint shard, the most selective promoted
// bucket among sels, falling back to the arity scan when none is hot. With
// one, the lead's bucket in its one shard is the candidate to beat: a
// smaller promoted (pos, value) bucket is served instead, otherwise the
// lead bucket is walked as Scan would. Either way every selector's cold
// shape is charged toward promotion. Delivery is a superset of
// the tuples matching sels — the matcher re-verifies — and never includes
// tuples outside the reader's locked shards.
func (r reader) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	var indexed, fallback, visited uint64
	var sh *shard
	visit := func(slot uint32) bool {
		visited++
		inst := &sh.slab[slot]
		return fn(inst.ID, inst.Tuple)
	}
	if lead, known := pattern.LeadSel(sels); known {
		k := indexKey{arity: arity, lead: canonLead(lead)}
		if si := r.s.shardIndex(k); r.ss.has(si) {
			sh = r.s.shards[si]
			if byLead := sh.leadSet(arity, k.lead); byLead.len() > 0 {
				bucket, ok := r.s.fieldBucket(sh, arity, sels[1:])
				r.s.countFieldShapes(sh, arity, sels[1:])
				if ok && bucket.len() < byLead.len() {
					indexed++
					bucket.each(visit)
				} else {
					fallback++
					byLead.each(visit)
				}
			}
		}
		r.s.metrics.AddFieldScans(indexed, fallback, visited)
		return
	}
	r.ss.forEach(func(si uint32) bool {
		sh = r.s.shards[si]
		if sh.arityLen(arity) == 0 {
			return true
		}
		bucket, ok := r.s.fieldBucket(sh, arity, sels)
		r.s.countFieldShapes(sh, arity, sels)
		if ok {
			indexed++
			return bucket.each(visit)
		}
		fallback++
		return sh.eachOfArity(arity, visit)
	})
	r.s.metrics.AddFieldScans(indexed, fallback, visited)
}

// LeadWide implements pattern.FieldSource: the bucket is in the reader's
// footprint and holds more than wideLeadBucket tuples.
func (r reader) LeadWide(arity int, lead tuple.Value) bool {
	k := indexKey{arity: arity, lead: canonLead(lead)}
	si := r.s.shardIndex(k)
	return r.ss.has(si) && r.s.shards[si].leadSet(arity, k.lead).len() > wideLeadBucket
}

// --- join-cost estimation (pattern.Estimator) ---

// estimator exposes the live index's cardinalities to the join planner: a
// view of the reader it is reached from, so handing it out allocates
// nothing. Methods run under the same locks as Scan.
type estimator reader

// JoinEstimator implements pattern.EstimatorProvider.
func (r *reader) JoinEstimator() pattern.Estimator {
	return (*estimator)(r)
}

func (e *estimator) ArityEstimate(arity int) float64 {
	n := 0
	e.ss.forEach(func(si uint32) bool {
		n += e.s.shards[si].arityLen(arity)
		return true
	})
	return float64(n)
}

func (e *estimator) LeadEstimate(arity int) float64 {
	n, buckets := 0, 0
	e.ss.forEach(func(si uint32) bool {
		if ai := e.s.shards[si].byArity[arity]; ai != nil {
			n += ai.n
			buckets += ai.leads.len()
		}
		return true
	})
	if buckets == 0 {
		return 0
	}
	return float64(n) / float64(buckets)
}

func (e *estimator) LeadValueEstimate(arity int, lead tuple.Value) float64 {
	k := indexKey{arity: arity, lead: canonLead(lead)}
	si := e.s.shardIndex(k)
	if !e.ss.has(si) {
		return 0
	}
	return float64(e.s.shards[si].leadSet(arity, k.lead).len())
}

func (e *estimator) FieldEstimate(arity, pos int) float64 {
	return e.fieldEstimate(arity, pos, func(sh *shard, st *shapeStats, n int) float64 {
		if idx := st.idx.Load(); idx != nil && idx.buckets.len() > 0 {
			return float64(n) / float64(idx.buckets.len())
		}
		return float64(n) // unbuilt: honest full-scan cost
	})
}

func (e *estimator) FieldValueEstimate(arity, pos int, val tuple.Value) float64 {
	return e.fieldEstimate(arity, pos, func(sh *shard, st *shapeStats, _ int) float64 {
		return float64(sh.shapeIndex(st, arity, pos).buckets.get(sh.slab, canonLead(val)).len())
	})
}

// fieldEstimate sums a scan-cost estimate over the footprint shards: hot's
// answer where the (arity, pos) shape is promoted, the honest full-scan
// cost — every tuple of the arity — where it is not.
func (e *estimator) fieldEstimate(arity, pos int, hot func(sh *shard, st *shapeStats, n int) float64) float64 {
	total := 0.0
	e.ss.forEach(func(si uint32) bool {
		sh := e.s.shards[si]
		n := sh.arityLen(arity)
		if st := sh.secShape(arity, pos); n > 0 && st != nil && st.state.Load() == shapeHot {
			total += hot(sh, st, n)
		} else {
			total += float64(n)
		}
		return true
	})
	return total
}

// --- keyWriter overlay ---

// ScanFields mirrors the keyWriter's Scan overlay for the field access
// path: live results minus this transaction's buffered deletes, plus its
// buffered inserts of the arity (a superset of the sels match — the
// matcher re-verifies).
func (kw keyWriter) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	stopped := false
	kw.reader.ScanFields(arity, sels, func(id tuple.ID, t tuple.Tuple) bool {
		if kw.isDeleted(id) {
			return true
		}
		if !fn(id, t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, ins := range kw.inserted {
		if ins.Tuple.Arity() != arity {
			continue
		}
		if !fn(ins.ID, ins.Tuple) {
			return
		}
	}
}

// LeadWide implements pattern.FieldSource; the few buffered mutations do
// not change which access path pays.
func (kw keyWriter) LeadWide(arity int, lead tuple.Value) bool {
	return kw.reader.LeadWide(arity, lead)
}

// JoinEstimator implements pattern.EstimatorProvider; buffered mutations
// are few, so the live estimates stand in for the overlay.
func (kw keyWriter) JoinEstimator() pattern.Estimator {
	return kw.reader.JoinEstimator()
}

// --- epoch read path ---

// ScanFields implements pattern.FieldSource over epoch snapshots. A shape
// materialized in the snapshot (it was hot at build time) serves its
// bucket — including proving emptiness — and scans against unmaterialized
// shapes count toward promotion exactly like locked reads, so a read-only
// workload on the epoch path still promotes. A lead selector makes the
// snapshot's lead bucket the candidate to beat, as in reader.ScanFields.
func (r epochReader) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	var indexed, fallback, visited uint64
	serve := func(insts []Instance) bool {
		for _, inst := range insts {
			visited++
			if !fn(inst.ID, inst.Tuple) {
				return false
			}
		}
		return true
	}
	// best is the smallest materialized (pos, value) bucket among sels.
	best := func(snap *shardSnap, sels []pattern.FieldSel) (b []Instance, ok bool) {
		if arity < 2 || arity > maxFieldArity {
			return nil, false
		}
		for _, sel := range sels {
			if sel.Pos < 1 || sel.Pos >= arity || snap.fieldShapes[arity]&(1<<sel.Pos) == 0 {
				continue
			}
			c := snap.byField[fieldKey{arity: arity, pos: sel.Pos, val: canonLead(sel.Val)}]
			if !ok || len(c) < len(b) {
				b, ok = c, true
			}
		}
		return b, ok
	}
	if lead, known := pattern.LeadSel(sels); known {
		k := indexKey{arity: arity, lead: canonLead(lead)}
		if si := r.s.shardIndex(k); r.ss.has(si) {
			if byLead := r.snaps[si].byLead[k]; len(byLead) > 0 {
				b, ok := best(r.snaps[si], sels[1:])
				r.s.countFieldShapes(r.s.shards[si], arity, sels[1:])
				if ok && len(b) < len(byLead) {
					indexed++
					serve(b)
				} else {
					fallback++
					serve(byLead)
				}
			}
		}
		r.s.metrics.AddFieldScans(indexed, fallback, visited)
		return
	}
	r.ss.forEach(func(si uint32) bool {
		snap := r.snaps[si]
		if len(snap.byArity[arity]) == 0 {
			return true
		}
		b, ok := best(snap, sels)
		r.s.countFieldShapes(r.s.shards[si], arity, sels)
		if ok {
			indexed++
			return serve(b)
		}
		fallback++
		return serve(snap.byArity[arity])
	})
	r.s.metrics.AddFieldScans(indexed, fallback, visited)
}

// LeadWide implements pattern.FieldSource over the snapshot's lead bucket.
func (r epochReader) LeadWide(arity int, lead tuple.Value) bool {
	k := indexKey{arity: arity, lead: canonLead(lead)}
	si := r.s.shardIndex(k)
	return r.ss.has(si) && len(r.snaps[si].byLead[k]) > wideLeadBucket
}

// Interface conformance for every reader flavor (writer embeds reader).
var (
	_ pattern.FieldSource       = reader{}
	_ pattern.FieldSource       = keyWriter{}
	_ pattern.FieldSource       = epochReader{}
	_ pattern.EstimatorProvider = (*reader)(nil)
	_ pattern.EstimatorProvider = keyWriter{}
)
