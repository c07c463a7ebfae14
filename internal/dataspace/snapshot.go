package dataspace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// Checkpoint format: a small header followed by one record per tuple
// instance. The format is deterministic (records sorted by instance ID) so
// identical configurations produce identical bytes, regardless of the
// shard count on either side — tuples are (re)routed to shards by content,
// so a checkpoint written by a 16-shard store restores into a 1-shard
// store and vice versa.
//
//	header := magic "SDLD" version(uvarint) storeVersion(uvarint) count(uvarint)
//	record := id(uvarint) owner(uvarint) tuple
var (
	checkpointMagic = [4]byte{'S', 'D', 'L', 'D'}

	// ErrBadCheckpoint reports a malformed or unsupported checkpoint.
	ErrBadCheckpoint = errors.New("dataspace: bad checkpoint")
)

const checkpointVersion = 1

// WriteCheckpoint serializes the current configuration. The checkpoint
// captures tuple contents, instance IDs, owners, and the store version —
// enough to resume a stopped computation or to diff two configurations.
// Under the read locks of every shard, each shard's instances are copied
// and sorted by ID on its own worker (checkpointRuns.collect); the sorted
// runs are then merged by ID straight into the encoder.
func (s *Store) WriteCheckpoint(w io.Writer) error {
	start := time.Now()
	defer func() { s.metrics.ObserveCheckpointWrite(time.Since(start)) }()
	runs := checkpointRuns{s: s, start: make([]int, len(s.shards)+1)}
	s.rlockSet(&s.all)
	for si, sh := range s.shards {
		runs.start[si+1] = runs.start[si] + sh.ids.len()
	}
	runs.insts = make([]Instance, runs.start[len(s.shards)])
	forShards(&s.all, runs.collect)
	version := s.version.Load()
	s.runlockSet(&s.all)

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	buf = binary.AppendUvarint(buf, checkpointVersion)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(runs.insts)))
	runs.merge(func(inst Instance) {
		buf = binary.AppendUvarint(buf, uint64(inst.ID))
		buf = binary.AppendUvarint(buf, uint64(inst.Owner))
		buf = tuple.AppendTuple(buf, inst.Tuple)
	})
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCheckpoint restores a configuration written by WriteCheckpoint into
// an empty store. It fails if the store already contains tuples (restoring
// into live state would corrupt instance identity).
func (s *Store) ReadCheckpoint(r io.Reader) error {
	start := time.Now()
	defer func() { s.metrics.ObserveCheckpointRead(time.Since(start)) }()
	insts, version, err := DecodeCheckpoint(r)
	if err != nil {
		return err
	}
	return s.Restore(insts, version)
}

// DecodeCheckpoint is the checkpoint format's only reader: it returns the
// instances in file order and the store version, or ErrBadCheckpoint for a
// malformed file, a duplicate instance ID, NoID, an ID above
// maxInstanceID, or trailing bytes.
func DecodeCheckpoint(r io.Reader) ([]Instance, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < 4 || [4]byte(data[:4]) != checkpointMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	data = data[4:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrBadCheckpoint)
		}
		data = data[n:]
		return v, nil
	}
	fv, err := next()
	if err != nil {
		return nil, 0, err
	}
	if fv != checkpointVersion {
		return nil, 0, fmt.Errorf("%w: unsupported format version %d", ErrBadCheckpoint, fv)
	}
	version, err := next()
	if err != nil {
		return nil, 0, err
	}
	count, err := next()
	if err != nil {
		return nil, 0, err
	}
	// A record is at least three bytes, which bounds what a corrupt count
	// can make us reserve.
	insts := make([]Instance, 0, min(count, uint64(len(data))/3))
	for i := uint64(0); i < count; i++ {
		id, err := next()
		if err != nil {
			return nil, 0, err
		}
		owner, err := next()
		if err != nil {
			return nil, 0, err
		}
		t, n, terr := tuple.DecodeTuple(data)
		if terr != nil {
			return nil, 0, fmt.Errorf("%w: record %d: %v", ErrBadCheckpoint, i, terr)
		}
		data = data[n:]
		insts = append(insts, Instance{ID: tuple.ID(id), Tuple: t, Owner: tuple.ProcessID(owner)})
	}
	if len(data) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(data))
	}
	if err := checkIDs(insts); err != nil {
		return nil, 0, err
	}
	return insts, version, nil
}

// maxInstanceID is the largest instance ID a checkpoint or a recovered
// record may carry: 2⁶² − 1, which leaves the IDs minted after a restore
// 2⁶² values of headroom below bit 63.
const maxInstanceID tuple.ID = 1<<62 - 1

// checkIDs rejects a configuration that carries the null instance ID, an
// ID above maxInstanceID, or the same ID twice. The checkpoint writer sorts
// by ID, and ascending IDs rule duplicates out in one pass; only an
// unsorted input pays for a set.
func checkIDs(insts []Instance) error {
	ascending := true
	for i, inst := range insts {
		if inst.ID == tuple.NoID {
			return fmt.Errorf("%w: instance %d carries the null ID", ErrBadCheckpoint, i)
		}
		if inst.ID > maxInstanceID {
			return fmt.Errorf("%w: instance %d carries ID %d, above the limit %d", ErrBadCheckpoint, i, inst.ID, maxInstanceID)
		}
		if i > 0 && inst.ID <= insts[i-1].ID {
			ascending = false
		}
	}
	if ascending {
		return nil
	}
	seen := make(map[tuple.ID]struct{}, len(insts))
	for _, inst := range insts {
		if _, dup := seen[inst.ID]; dup {
			return fmt.Errorf("%w: duplicate instance %d", ErrBadCheckpoint, inst.ID)
		}
		seen[inst.ID] = struct{}{}
	}
	return nil
}

// Restore bulk-loads a decoded configuration (DecodeCheckpoint's result, or
// a wal.State's Base) into an empty store and sets its version. The
// instances are grouped by home shard, each shard's slab, ID table and
// lead indexes are sized once for its share instead of growing through the
// load, and each shard is filled, in input order, by its own worker
// (bulkInsert.restore).
// Like ReadCheckpoint it refuses a store that already holds tuples, and
// instances with null or duplicate IDs.
func (s *Store) Restore(insts []Instance, version uint64) error {
	if err := checkIDs(insts); err != nil {
		return err
	}
	s.lockSet(&s.all)
	defer s.unlockSet(&s.all)
	for _, sh := range s.shards {
		if sh.ids.len() != 0 {
			return fmt.Errorf("%w: store not empty", ErrBadCheckpoint)
		}
	}
	home := make([]uint32, len(insts))
	var maxID tuple.ID
	for i, inst := range insts {
		home[i] = s.shardIndex(indexKeyOf(inst.Tuple))
		maxID = max(maxID, inst.ID)
	}
	b := bulkInsert{s: s, insts: insts, homes: groupByShard(home, len(s.shards))}
	for si, sh := range s.shards {
		n := len(b.homes.of(uint32(si)))
		sh.slab, sh.vacant = slab{slots: make([]entry, 1, 1+n)}, nil
		sh.ids = idTable{newTable[uint32](n)}
	}
	forShards(&s.all, b.restore)
	s.version.Store(version)
	// Invalidate any epoch snapshots built against the pre-restore state.
	for _, sh := range s.shards {
		sh.seq.Add(1)
	}
	s.reserveIDs(maxID)
	return nil
}

// reserveIDs makes sure no future instance ID is at or below id (restored
// and recovered instances keep theirs).
func (s *Store) reserveIDs(id tuple.ID) {
	for {
		cur := s.nextID.Load()
		if cur >= uint64(id) || s.nextID.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}
