package dataspace

import (
	"slices"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// Epoch-based read path. Read-only planned transactions — no asserts, no
// retracts, concrete footprint — do not need locks at all: they evaluate
// against immutable per-shard snapshots and validate afterwards that no
// footprint shard changed while they ran. Validation compares each shard's
// change sequence (shard.seq, bumped under mu for every commit that touches
// the shard, before any of the commit's locks are released) against the
// sequence its snapshot was built at. If every sequence is unchanged, the
// snapshots form a consistent cut: a multi-shard commit bumps all of its
// shards' sequences before releasing any mu, so a commit visible in one
// snapshot but missing from another always leaves a sequence mismatch
// behind. On mismatch the caller falls back to the locked read path.
//
// Snapshots are cached per shard (shard.snap) and rebuilt lazily, so a
// read-hot bucket amortizes one rebuild over arbitrarily many lock-free
// reads. A rebuild copies the whole shard, so it has to be earned: a read
// that finds the cache stale is declined (the caller takes the shared-lock
// path, which costs two lock operations) until as many reads have found it
// stale since the shard's last commit as the shard holds tuples — each of
// them has then paid, amortized, for copying one tuple. A shard that is
// written more often than that never rebuilds, so a point read of a large,
// churning shard stays O(1) instead of O(shard).

// shardSnap is an immutable snapshot of one shard's contents, stamped with
// the change sequence it was built at. byField materializes the buckets of
// every shape that was hot in the shard's secondary index at build time;
// fieldShapes records which (arity, pos) shapes were materialized (bit pos
// of fieldShapes[arity]) so an absent bucket of a materialized shape
// proves emptiness instead of forcing an arity scan.
type shardSnap struct {
	seq         uint64
	insts       []Instance
	byLead      map[indexKey][]Instance
	byArity     map[int][]Instance
	byField     map[fieldKey][]Instance
	fieldShapes [maxFieldArity + 1]uint8
}

// buildSnap materializes a snapshot of sh by walking the lead index, so one
// backing array serves all three views: insts is the whole of it, an
// arity's slice is a run of insts, and a lead bucket is a run of its
// arity's. The caller holds sh.mu (read or write), so the maps and seq are
// mutually consistent.
func buildSnap(sh *shard, seq uint64) *shardSnap {
	leads := 0
	for _, ai := range sh.byArity {
		leads += ai.leads.len()
	}
	snap := &shardSnap{
		seq:     seq,
		insts:   make([]Instance, 0, sh.ids.len()),
		byLead:  make(map[indexKey][]Instance, leads),
		byArity: make(map[int][]Instance, len(sh.byArity)),
	}
	if sh.sec.hot.Load() != 0 {
		for a := 2; a <= maxFieldArity; a++ {
			for pos := 1; pos < a; pos++ {
				if sh.sec.shapes[a][pos].state.Load() == shapeHot {
					snap.fieldShapes[a] |= 1 << pos
				}
			}
		}
	}
	for a, ai := range sh.byArity {
		arityStart := len(snap.insts)
		ai.leads.each(func(set idView) bool {
			leadStart := len(snap.insts)
			set.each(func(slot uint32) bool {
				snap.insts = append(snap.insts, sh.slab[slot])
				return true
			})
			if a > 0 {
				lead := leadOf(snap.insts[leadStart].Tuple)
				snap.byLead[indexKey{arity: a, lead: lead}] = snap.insts[leadStart:len(snap.insts):len(snap.insts)]
			}
			return true
		})
		of := snap.insts[arityStart:len(snap.insts):len(snap.insts)]
		snap.byArity[a] = of
		if a < 2 || a > maxFieldArity || snap.fieldShapes[a] == 0 {
			continue
		}
		if snap.byField == nil {
			snap.byField = make(map[fieldKey][]Instance)
		}
		for _, inst := range of {
			for pos := 1; pos < a; pos++ {
				if snap.fieldShapes[a]&(1<<pos) != 0 {
					fk := fieldKey{arity: a, pos: pos, val: canonLead(inst.Tuple.Field(pos))}
					snap.byField[fk] = append(snap.byField[fk], inst)
				}
			}
		}
	}
	return snap
}

// getSnap returns a snapshot of shard si no older than the shard's state at
// some point after this call began, or nil when the cache is stale and a
// rebuild is not yet earned (see above). The fast path is a lock-free cache
// hit; a stale cache is rebuilt under the shard's read lock. A racing
// commit can invalidate the returned snapshot immediately — the caller's
// end-of-read sequence validation catches that.
func (s *Store) getSnap(si uint32) *shardSnap {
	sh := s.shards[si]
	if snap := sh.snap.Load(); snap != nil && snap.seq == sh.seq.Load() {
		return snap
	}
	sh.mu.RLock()
	seq := sh.seq.Load()
	if snap := sh.snap.Load(); snap != nil && snap.seq == seq {
		sh.mu.RUnlock()
		return snap
	}
	if int(sh.staleReads.Add(1)) < sh.ids.len() {
		sh.mu.RUnlock()
		return nil
	}
	snap := buildSnap(sh, seq)
	sh.mu.RUnlock()
	sh.snap.Store(snap)
	s.metrics.IncEpochRebuild()
	return snap
}

// epochReader implements Reader over a set of shard snapshots. Like the
// locked SnapshotKeys reader it exposes ONLY tuples in the footprint
// shards. It lives in a pooled readView.
type epochReader struct {
	s       *Store
	ss      *shardSet
	snaps   []*shardSnap // indexed by shard; nil outside the footprint
	version uint64
}

var _ Reader = epochReader{}

func (r epochReader) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	if leadKnown {
		k := indexKey{arity: arity, lead: canonLead(lead)}
		si := r.s.shardIndex(k)
		if !r.ss.has(si) {
			return
		}
		for _, inst := range r.snaps[si].byLead[k] {
			if !fn(inst.ID, inst.Tuple) {
				return
			}
		}
		return
	}
	r.ss.forEach(func(si uint32) bool {
		for _, inst := range r.snaps[si].byArity[arity] {
			if !fn(inst.ID, inst.Tuple) {
				return false
			}
		}
		return true
	})
}

func (r epochReader) Get(id tuple.ID) (Instance, bool) {
	var (
		found Instance
		ok    bool
	)
	r.ss.forEach(func(si uint32) bool {
		for _, inst := range r.snaps[si].insts {
			if inst.ID == id {
				found, ok = inst, true
				return false
			}
		}
		return true
	})
	return found, ok
}

func (r epochReader) Each(fn func(Instance) bool) {
	r.ss.forEach(func(si uint32) bool {
		for _, inst := range r.snaps[si].insts {
			if !fn(inst) {
				return false
			}
		}
		return true
	})
}

func (r epochReader) Arities() []int {
	var out []int
	r.ss.forEach(func(si uint32) bool {
		for a := range r.snaps[si].byArity {
			out = addArity(out, a)
		}
		return true
	})
	return out
}

func (r epochReader) Version() uint64 { return r.version }

func (r epochReader) Len() int {
	n := 0
	r.ss.forEach(func(si uint32) bool {
		n += len(r.snaps[si].insts)
		return true
	})
	return n
}

// SnapshotKeysEpoch runs fn against epoch snapshots of the shards covering
// keys, without taking any locks, and reports whether the read was
// consistent: true means no footprint shard changed while fn ran and its
// observations stand; false means the read may be torn and the caller must
// retry on the locked path (SnapshotKeys). Wildcard keys and footprints with
// a stale shard snapshot that is not yet worth rebuilding return false
// without running fn.
func (s *Store) SnapshotKeysEpoch(keys []InterestKey, fn func(r Reader)) bool {
	ss, bounded := s.planShards(keys)
	if !bounded {
		return false // locked path only
	}
	v := s.readView(ss)
	defer v.release()
	r := &v.epoch
	r.snaps = slices.Grow(r.snaps[:0], len(s.shards))[:len(s.shards)]
	current := true
	ss.forEach(func(si uint32) bool {
		r.snaps[si] = s.getSnap(si)
		current = r.snaps[si] != nil
		return current
	})
	if !current {
		return false
	}
	s.metrics.IncEpochRead()
	r.version = s.version.Load()
	fn(r)
	valid := true
	ss.forEach(func(si uint32) bool {
		if s.shards[si].seq.Load() != r.snaps[si].seq {
			valid = false
			return false
		}
		return true
	})
	if !valid {
		s.metrics.IncEpochFallback()
	}
	return valid
}
