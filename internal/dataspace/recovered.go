package dataspace

import (
	"fmt"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// ApplyRecovered replays one committed record's effects verbatim during
// crash recovery: deletes are applied first (each target must be present
// with the same tuple), then inserts are added under their original
// instance IDs (each new, and neither NoID nor above maxInstanceID). Versions must arrive strictly increasing; gaps are legal
// (a version missing from a durable suffix was never fsynced, and it
// provably commuted with every durable record above it — see
// refmodel.ReplayFrom). The store ends at the last replayed version, so
// new commits never reuse a durable record's serialization position.
//
// Recovery is pre-visibility: no commit hooks run, nothing is appended to
// a durability sink, and no waiters are notified. Call it only before the
// store is shared (a recovery loop is single-goroutine by construction)
// and before SetDurable attaches the log whose records are being replayed.
func (s *Store) ApplyRecovered(rec CommitRecord) error {
	if cur := s.version.Load(); rec.Version <= cur {
		return fmt.Errorf("dataspace: recovered record has version %d, store already at %d (log suffix not strictly increasing)",
			rec.Version, cur)
	}
	s.lockSet(&s.all)
	defer s.unlockSet(&s.all)
	var touched shardSet
	var touchedDel []uint32
	defer func() {
		for i, si := range touchedDel {
			s.shards[si].dropEmptyArity(rec.Deleted[i].Tuple.Arity())
		}
	}()
	for _, del := range rec.Deleted {
		si := s.shardIndex(indexKeyOf(del.Tuple))
		sh := s.shards[si]
		slot, ok := sh.ids.find(&sh.slab, del.ID)
		if !ok {
			return fmt.Errorf("dataspace: recovered delete of absent instance #%d %s (version %d)",
				del.ID, del.Tuple, rec.Version)
		}
		if have := sh.slab.instAt(slot).Tuple; !have.Equal(del.Tuple) {
			return fmt.Errorf("dataspace: recovered delete of #%d sees %s, store has %s (version %d)",
				del.ID, del.Tuple, have, rec.Version)
		}
		sh.vacate(slot)
		touchedDel = append(touchedDel, si)
		touched.add(si)
	}
	for _, ins := range rec.Inserted {
		si := s.shardIndex(indexKeyOf(ins.Tuple))
		sh := s.shards[si]
		if _, dup := sh.ids.find(&sh.slab, ins.ID); dup || ins.ID == tuple.NoID {
			return fmt.Errorf("dataspace: recovered insert of duplicate or null instance #%d %s (version %d)",
				ins.ID, ins.Tuple, rec.Version)
		}
		if ins.ID > maxInstanceID {
			return fmt.Errorf("dataspace: recovered insert of #%d %s above the instance ID limit %d (version %d)",
				ins.ID, ins.Tuple, maxInstanceID, rec.Version)
		}
		sh.place(ins)
		touched.add(si)
		s.reserveIDs(ins.ID)
	}
	s.bumpSeqs(&touched)
	s.version.Store(rec.Version)
	return nil
}
