package dataspace

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// The whole-dataspace bulk paths — a multi-shard Assert, WriteCheckpoint and
// Restore — touch shards that hold disjoint tuples, so, like commits on
// disjoint footprints, their per-shard work commutes (Malta & Martinez) and
// runs on several cores. The rule that keeps this inside the lock
// discipline: the caller takes the shard locks as the serial path would,
// forShards runs one worker per shard at a time only inside that hold, and
// every worker is joined before the caller unlocks. A worker is a named
// function carrying the lock contract of its caller (`lint:holds mu`, or
// `rmu` on the read path), so sdllint checks it like any other.

// forShards runs work once for every shard of ss on min(GOMAXPROCS, |ss|)
// workers, the caller being one of them, and returns when every run has
// finished. A set of one shard runs on the caller alone.
func forShards(ss *shardSet, work func(si uint32)) {
	n := ss.count()
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		ss.forEach(func(si uint32) bool { work(si); return true })
		return
	}
	list := make([]uint32, 0, n)
	ss.forEach(func(si uint32) bool { list = append(list, si); return true })
	var next atomic.Int32
	drain := func() {
		for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
			work(list[k])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// byShard groups positions 0..n-1 of a batch by home shard, keeping input
// order within a shard: shard si's positions are order[start[si]:start[si+1]].
type byShard struct {
	order []int32
	start []int32
}

func groupByShard(home []uint32, shards int) byShard {
	g := byShard{order: make([]int32, len(home)), start: make([]int32, shards+1)}
	for _, si := range home {
		g.start[si+1]++
	}
	for si := 1; si <= shards; si++ {
		g.start[si] += g.start[si-1]
	}
	fill := slices.Clone(g.start[:shards])
	for i, si := range home {
		g.order[fill[si]] = int32(i)
		fill[si]++
	}
	return g
}

// of returns the positions homed on shard si.
func (g byShard) of(si uint32) []int32 { return g.order[g.start[si]:g.start[si+1]] }

// bulkInsert is one batch being filed into the shards it is homed on: a
// multi-shard Assert's journaled inserts or a Restore's instances.
type bulkInsert struct {
	s     *Store
	insts []Instance
	homes byShard
}

// file installs the batch's instances homed on shard si: one worker's share
// of the batch. Its callers hold every batch shard's exclusive mu.
//
// lint:holds mu
func (b *bulkInsert) file(si uint32) {
	sh := b.s.shards[si]
	for _, i := range b.homes.of(si) {
		sh.place(b.insts[i])
	}
}

// restore is file for a Restore, whose shards start empty: each arity's
// lead index is made with a table sized once for the arity's share — one
// bucket a tuple, a keyed store's shape — and cut down to its buckets once
// filled, should the share's tuples repeat leads.
//
// lint:holds mu
func (b *bulkInsert) restore(si uint32) {
	sh := b.s.shards[si]
	share := make(map[int]int)
	for _, i := range b.homes.of(si) {
		share[b.insts[i].Tuple.Arity()]++
	}
	for a, n := range share {
		sh.byArity[a] = &arityIndex{leads: idIndex{sets: newTable[idSet](n), arity: a}}
	}
	b.file(si)
	for _, ai := range sh.byArity {
		ai.leads.fit(&sh.slab)
	}
}

// insertAll files a whole batch straight into the live shards, the bulk
// Assert path, under the exclusive locks its caller takes with lockSet. It
// reserves the batch's IDs with one add and journals the inserts in input
// order, so the returned IDs, the commit record and the log bytes are those
// of one Insert per tuple; each touched shard's slab and indexes are then
// filled by its own worker. A batch homed on one shard stays on the caller.
//
// lint:holds intent mu
func (j *journal) insertAll(ts []tuple.Tuple, owner tuple.ProcessID, ids []tuple.ID) {
	n := uint64(len(ts))
	first := tuple.ID(j.s.nextID.Add(n) - n + 1)
	j.inserted = slices.Grow(j.inserted, len(ts))
	j.insShard = slices.Grow(j.insShard, len(ts))
	for i, t := range ts {
		id := first + tuple.ID(i)
		ids[i] = id
		j.inserted = append(j.inserted, Instance{ID: id, Tuple: t, Owner: owner})
		j.insShard = append(j.insShard, j.s.shardIndex(indexKeyOf(t)))
	}
	if j.ss.count() == 1 {
		sh := j.s.shards[j.insShard[0]]
		for _, ins := range j.inserted {
			sh.place(ins)
		}
		return
	}
	b := bulkInsert{s: j.s, insts: j.inserted, homes: groupByShard(j.insShard, len(j.s.shards))}
	forShards(j.ss, b.file)
}

// checkpointRuns is a checkpoint's copy of the configuration: shard si's
// instances sit in insts[start[si]:start[si+1]], sorted by ID.
type checkpointRuns struct {
	s     *Store
	insts []Instance
	start []int
}

// collect copies shard si's live slots into its run and sorts the run: one
// worker's share of WriteCheckpoint, under the read locks of every shard.
//
// lint:holds rmu
func (c *checkpointRuns) collect(si uint32) {
	run := c.insts[c.start[si]:c.start[si]]
	sl := &c.s.shards[si].slab
	for slot, e := range sl.slots {
		if e.id != tuple.NoID {
			run = append(run, sl.instAt(uint32(slot)))
		}
	}
	slices.SortFunc(run, func(a, b Instance) int { return cmp.Compare(a.ID, b.ID) })
}

// merge visits every instance of the runs in ascending ID order: a k-way
// merge over a binary min-heap of the non-empty runs' heads.
func (c *checkpointRuns) merge(fn func(Instance)) {
	type head struct{ next, end int }
	heap := make([]head, 0, len(c.start)-1)
	for si := 0; si+1 < len(c.start); si++ {
		if c.start[si] < c.start[si+1] {
			heap = append(heap, head{c.start[si], c.start[si+1]})
		}
	}
	less := func(a, b int) bool { return c.insts[heap[a].next].ID < c.insts[heap[b].next].ID }
	down := func(i int) {
		for {
			m, l, r := i, 2*i+1, 2*i+2
			if l < len(heap) && less(l, m) {
				m = l
			}
			if r < len(heap) && less(r, m) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		fn(c.insts[heap[0].next])
		if heap[0].next++; heap[0].next == heap[0].end {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
}
