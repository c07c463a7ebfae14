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
// built adaptively and kept only while they earn their keep. Each
// (arity, field-pos) scan shape carries one atomic ledger. A cold shape is
// charged by every field scan carrying its selector that no narrow bucket
// (at most wideLeadBucket tuples) served — such a scan has no use for
// another index — and flips to hot at the promotion threshold. A hot
// shape's buckets are populated lazily — the first scan that needs them
// builds them under the shard lock already held for the read — then
// maintained incrementally by every assert/retract (a commit's apply, a bulk
// Assert and recovery all funnel through indexAdd/indexRemove into secEdit)
// and validated by the same change sequence the epoch snapshots use. A hot
// shape's ledger is credited servedCredit by each scan its bucket served and
// debited one by each write at its arity and each scan that compared its
// bucket and was served another set; debit demotes it, on either path, once
// the ledger reaches -demoteFloor, and its buckets are dropped: a shape
// that has served S scans since promotion is demoted once its debits,
// from either path, exceed servedCredit*S by demoteFloor. A demoted shape
// remembers the last bucket it lost a comparison with and is charged again
// only by scans served a wider set, so a shape that can never win is not
// rebuilt. The live reader, the keyWriter overlay and the epoch reader all
// book their scans through settleFieldShapes, so the rule is the same on
// every read path.
//
// Concurrency discipline (checked by cmd/sdllint): a published index's
// buckets are edited only through idIndex.add/remove while the shard's
// exclusive mu is held (a fresh index is filled in a local before it is
// published); readers touch them only under at least mu.RLock, where a
// published fieldIndex whose seq matches the shard's is immutable (writers
// need the exclusive mu to change either). Shape state and ledger are
// atomics so the read path stays lock-free-ish under mu.RLock; both
// transitions are CASes that concurrent scanners and writers race benignly.

const (
	// maxFieldArity bounds the shapes tracked per shard; tuples with more
	// fields fall back to arity scans (none of the paper's examples come
	// close).
	maxFieldArity = 8
	// promoteScanBar is the number of scans carrying a cold shape's selector
	// it takes to promote the shape.
	promoteScanBar = 2
	// servedCredit is what one served scan credits a hot shape's ledger,
	// and demoteFloor the debit (one a write at its arity or a lost
	// comparison) past its credit at which the shape is demoted. A shape
	// must serve one scan in every servedCredit writes or lost comparisons
	// to stay hot: enough for a tag shape that serves one fetch in 21 and
	// loses the other 20.
	servedCredit = 32
	demoteFloor  = 256
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
	shapeCold uint32 = iota // counting the scans that could use it
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
	lost   atomic.Uint32 // the bucket it last lost a comparison with since promotion (0: none)
	ledger atomic.Int64  // cold: scans charged toward promotion; hot: credit less debit
	idx    atomic.Pointer[fieldIndex]
}

// compared is what a field scan learned in one shard from the promoted
// buckets it compared: bit pos of mask for each hot shape, and the size of
// its bucket.
type compared struct {
	mask uint8
	size [maxFieldArity]uint32
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
// (epoch.go). A build that a read-path demotion overtook is unpublished
// again, so a cold shape holds no index.
//
// lint:holds rmu
func (sh *shard) shapeIndex(st *shapeStats, arity, pos int) *fieldIndex {
	seq := sh.seq.Load()
	if idx := st.idx.Load(); idx != nil && idx.seq == seq {
		return idx
	}
	fresh := idIndex{sets: newTable[idSet](sh.arityLen(arity)), arity: arity, pos: pos}
	sh.eachOfArity(arity, func(slot uint32) bool {
		fresh.add(&sh.slab, slot)
		return true
	})
	fresh.fit(&sh.slab)
	idx := &fieldIndex{seq: seq, buckets: fresh}
	st.idx.Store(idx)
	if st.state.Load() != shapeHot {
		st.idx.CompareAndSwap(idx, nil)
	}
	return idx
}

// fieldBucket picks the most selective promoted bucket among sels: the
// smallest (arity, pos, value) ID set over every hot selector shape, and its
// position (-1 when no shape is hot). It records each bucket it compared in
// c; an empty bucket means an index proved there are no matches. Whether
// the bucket serves is the caller's to say, in settleFieldShapes. The
// caller holds sh.mu (read or write).
func (sh *shard) fieldBucket(arity int, sels []pattern.FieldSel, c *compared) (best idView, pos int) {
	pos = -1
	if sh.sec.hot.Load() == 0 {
		return best, pos
	}
	for _, sel := range sels {
		st := sh.secShape(arity, sel.Pos)
		if st == nil || st.state.Load() != shapeHot {
			continue
		}
		b := sh.shapeIndex(st, arity, sel.Pos).buckets.get(&sh.slab, canonLead(sel.Val))
		if pos < 0 || b.len() < best.len() {
			best, pos = b, sel.Pos
		}
		c.mask |= 1 << sel.Pos
		c.size[sel.Pos] = uint32(b.len())
	}
	return best, pos
}

// settleFieldShapes books one field scan against its selectors' shapes once
// the scan knows what served it: the promoted bucket at position won (-1:
// the lead bucket or the arity walk did), holding served tuples (-1: the
// arity walk), after comparing the buckets c records.
//
//   - A compared hot shape is credited if its bucket served, and debited
//     otherwise; it keeps the size of the bucket it last lost with in
//     lost, which a demotion leaves in place.
//   - A cold shape is charged toward promotion by an arity walk, and by a
//     scan served a set wider than wideLeadBucket and than the bucket it
//     lost with. A scan a narrow bucket served needs no other index, and
//     one served a set no wider than the shape's own bucket cannot gain by
//     it, so a shape that can never win is not rebuilt. A wide set still
//     charges: a shape promoted by queries that carry it alone (a type tag
//     next to a known lead, say) serves its unselective bucket to every
//     later query that also carries a selective field, whose shape must
//     still be promoted.
//
// Promotion defers when the scheduler says so (the exploration harness
// perturbs build timing through this decision point). Runs under sh.mu or
// lock-free from the epoch path; both transitions are CASes.
func (s *Store) settleFieldShapes(sh *shard, arity int, sels []pattern.FieldSel, c *compared, won, served int) {
	for _, sel := range sels {
		st := sh.secShape(arity, sel.Pos)
		if st == nil {
			continue
		}
		asked := c.mask&(1<<sel.Pos) != 0
		switch hot := st.state.Load() == shapeHot; {
		case asked && hot:
			if sel.Pos == won {
				st.ledger.Add(servedCredit)
			} else {
				st.lost.Store(c.size[sel.Pos])
				sh.debit(st)
			}
		case hot || asked || served >= 0 && uint32(served) <= max(wideLeadBucket, st.lost.Load()):
			// Hot but not materialized in an epoch snapshot, demoted since
			// the scan compared it, or a scan it cannot improve on.
		case st.ledger.Add(1) < promoteScanBar || s.sc.DeferPromote():
		case st.state.CompareAndSwap(shapeCold, shapeHot):
			st.ledger.Store(0)
			st.lost.Store(0)
			sh.sec.hot.Add(1)
			s.metrics.IncIndexPromotion()
		}
	}
}

// secEdit applies one insert's or delete's edit — idIndex.add or
// idIndex.remove — to the bucket the tuple falls in under every hot shape.
// Shapes whose index is stale (a commit slipped by unmaintained) are left
// for the next reader to rebuild; each hot shape is debited the write, and
// one that debit demotes is left alone.
//
// lint:holds mu
func (sh *shard) secEdit(slot uint32, t tuple.Tuple, edit func(*idIndex, *slab, uint32) bool) {
	if sh.sec.hot.Load() == 0 {
		return
	}
	a := t.Arity()
	if a < 2 || a > maxFieldArity {
		return
	}
	for pos := 1; pos < a; pos++ {
		st := &sh.sec.shapes[a][pos]
		if st.state.Load() != shapeHot || sh.debit(st) {
			continue
		}
		if idx := st.idx.Load(); idx != nil && idx.seq == sh.seq.Load() {
			edit(&idx.buckets, &sh.slab, slot)
		}
	}
}

// debit charges a hot shape one write or one lost comparison and, once its
// ledger reaches -demoteFloor, demotes it: drops its buckets. Reports
// whether it demoted; the CAS makes concurrent demotions of one shape count
// once.
func (sh *shard) debit(st *shapeStats) bool {
	if st.ledger.Add(-1) > -demoteFloor || !st.state.CompareAndSwap(shapeHot, shapeCold) {
		return false
	}
	st.idx.Store(nil)
	st.ledger.Store(0)
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
// lead bucket is walked as Scan would. Either way the scan is booked with
// settleFieldShapes. Delivery is a superset of the tuples matching sels —
// the matcher re-verifies — and never includes tuples outside the reader's
// locked shards.
func (r reader) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	var indexed, fallback, visited uint64
	var sh *shard
	visit := func(slot uint32) bool {
		visited++
		inst := sh.slab.instAt(slot)
		return fn(inst.ID, inst.Tuple)
	}
	if lead, known := pattern.LeadSel(sels); known {
		k := indexKey{arity: arity, lead: canonLead(lead)}
		if si := r.s.shardIndex(k); r.ss.has(si) {
			sh = r.s.shards[si]
			if byLead := sh.leadSet(arity, k.lead); byLead.len() > 0 {
				var c compared
				bucket, pos := sh.fieldBucket(arity, sels[1:], &c)
				if pos >= 0 && bucket.len() < byLead.len() {
					indexed++
				} else {
					bucket, pos = byLead, -1
					fallback++
				}
				r.s.settleFieldShapes(sh, arity, sels[1:], &c, pos, bucket.len())
				bucket.each(visit)
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
		var c compared
		bucket, pos := sh.fieldBucket(arity, sels, &c)
		if pos < 0 {
			fallback++
			r.s.settleFieldShapes(sh, arity, sels, &c, -1, -1)
			return sh.eachOfArity(arity, visit)
		}
		indexed++
		r.s.settleFieldShapes(sh, arity, sels, &c, pos, bucket.len())
		return bucket.each(visit)
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
		return float64(sh.shapeIndex(st, arity, pos).buckets.get(&sh.slab, canonLead(val)).len())
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
// buffered inserts of the arity it has not deleted again (a superset of the
// sels match — the matcher re-verifies).
func (kw keyWriter) ScanFields(arity int, sels []pattern.FieldSel, fn func(tuple.ID, tuple.Tuple) bool) {
	own, stopped := kw.inserted, false
	kw.reader.ScanFields(arity, sels, kw.hidingDeleted(fn, &stopped))
	if !stopped {
		kw.eachOwn(own, arity, tuple.Value{}, false, fn)
	}
}

// --- epoch read path ---

// ScanFields implements pattern.FieldSource over epoch snapshots. A shape
// materialized in the snapshot (it was hot at build time) serves its
// bucket — including proving emptiness — and every scan is booked against
// the live shard's shapes with settleFieldShapes exactly like a locked
// read: the materialized shapes it compared are credited or debited, and the
// others may be charged toward promotion, so a read-only workload on the
// epoch path still promotes, and demotes what it never serves. A lead selector
// makes the snapshot's lead bucket the candidate to beat, as in
// reader.ScanFields.
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
	// best is the smallest materialized (pos, value) bucket among sels and
	// its position, recording the buckets it compared, as fieldBucket does.
	best := func(snap *shardSnap, sels []pattern.FieldSel, c *compared) (b []Instance, pos int) {
		pos = -1
		if arity < 2 || arity > maxFieldArity {
			return nil, pos
		}
		for _, sel := range sels {
			if sel.Pos < 1 || sel.Pos >= arity || snap.fieldShapes[arity]&(1<<sel.Pos) == 0 {
				continue
			}
			in := snap.byField[fieldKey{arity: arity, pos: sel.Pos, val: canonLead(sel.Val)}]
			if pos < 0 || len(in) < len(b) {
				b, pos = in, sel.Pos
			}
			c.mask |= 1 << sel.Pos
			c.size[sel.Pos] = uint32(len(in))
		}
		return b, pos
	}
	if lead, known := pattern.LeadSel(sels); known {
		k := indexKey{arity: arity, lead: canonLead(lead)}
		if si := r.s.shardIndex(k); r.ss.has(si) {
			if byLead := r.snaps[si].byLead[k]; len(byLead) > 0 {
				var c compared
				b, pos := best(r.snaps[si], sels[1:], &c)
				if pos >= 0 && len(b) < len(byLead) {
					indexed++
				} else {
					b, pos = byLead, -1
					fallback++
				}
				r.s.settleFieldShapes(r.s.shards[si], arity, sels[1:], &c, pos, len(b))
				serve(b)
			}
		}
		r.s.metrics.AddFieldScans(indexed, fallback, visited)
		return
	}
	r.ss.forEach(func(si uint32) bool {
		snap := r.snaps[si]
		of := snap.byArity[arity]
		if len(of) == 0 {
			return true
		}
		var c compared
		b, pos := best(snap, sels, &c)
		if pos < 0 {
			fallback++
			r.s.settleFieldShapes(r.s.shards[si], arity, sels, &c, -1, -1)
			return serve(of)
		}
		indexed++
		r.s.settleFieldShapes(r.s.shards[si], arity, sels, &c, pos, len(b))
		return serve(b)
	})
	r.s.metrics.AddFieldScans(indexed, fallback, visited)
}

// LeadWide implements pattern.FieldSource over the snapshot's lead bucket.
func (r epochReader) LeadWide(arity int, lead tuple.Value) bool {
	k := indexKey{arity: arity, lead: canonLead(lead)}
	si := r.s.shardIndex(k)
	return r.ss.has(si) && len(r.snaps[si].byLead[k]) > wideLeadBucket
}

// Interface conformance for every reader flavor.
var (
	_ pattern.FieldSource       = reader{}
	_ pattern.FieldSource       = keyWriter{}
	_ pattern.FieldSource       = epochReader{}
	_ pattern.EstimatorProvider = (*reader)(nil)
	_ pattern.EstimatorProvider = keyWriter{}
)
