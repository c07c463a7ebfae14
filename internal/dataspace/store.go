// Package dataspace implements the SDL dataspace: a content-addressable
// multiset of tuples examined and altered by atomic transactions. The store
// provides:
//
//   - indexed scans (arity + leading-field value) implementing
//     pattern.Source;
//   - snapshot/update execution under per-shard readers-writer locks, so a
//     whole transaction evaluates against one consistent configuration;
//   - a monotonically increasing version, bumped once per mutating commit;
//   - interest-keyed wakeups for delayed transactions: a blocked
//     transaction registers the (arity, lead) keys its binding query can
//     match and is woken only by commits that touch those keys.
//
// Tuple instances carry unique identifiers and record the asserting
// process, per the paper ("each tuple is owned by the process that asserted
// it and the owner may be determined by examining the unique tuple
// identifier").
//
// # Sharding
//
// The store is partitioned into a fixed power-of-two number of shards
// (default GOMAXPROCS-scaled, configurable with WithShards). A tuple lives
// in the shard addressed by hashing its index key — (arity, canonical
// leading value) — so one index bucket never straddles shards. Each shard
// owns its mutex, instance slab, lead/arity indexes, waiter registry, and
// activity counters; the configuration version is a global atomic bumped
// while the commit's shard locks are held.
//
// Transactions whose footprint is statically bounded (every scanned or
// asserted bucket known up front) lock only the shards covering those
// buckets via SnapshotKeys/UpdateKeys; operations on disjoint shards
// commute (Malta & Martinez: tuple operations on disjoint tuples commute)
// and therefore run in parallel. Multi-shard operations acquire shard
// locks in ascending shard order — a global order that makes the locking
// deadlock-free — and hold them to commit (strict two-phase locking), so
// every execution is conflict-serializable. Snapshot/Update lock all
// shards and observe one consistent cross-shard configuration.
package dataspace

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// ErrNoSuchTuple reports a retraction of a tuple instance that is not in
// the dataspace (already retracted by a concurrent transaction).
var ErrNoSuchTuple = errors.New("dataspace: no such tuple instance")

// leadClass canonicalizes a value for index keys so that values that are
// Equal (e.g. Int(2) and Float(2.0)) index identically.
type leadClass uint8

const (
	leadNumber leadClass = iota + 1
	leadAtom
	leadString
	leadBool
	leadOther
)

// leadKey is the comparable canonical form of a leading field value. num
// holds a number's float64 bits (canonical, see tuple.Float — so a NaN lead
// is an ordinary map key) or a bool's 0/1.
type leadKey struct {
	class leadClass
	num   uint64
	str   string
}

func canonLead(v tuple.Value) leadKey {
	if n, ok := v.Numeric(); ok {
		return leadKey{class: leadNumber, num: math.Float64bits(n)}
	}
	if a, ok := v.AsAtom(); ok {
		return leadKey{class: leadAtom, str: a}
	}
	if s, ok := v.AsString(); ok {
		return leadKey{class: leadString, str: s}
	}
	if b, ok := v.AsBool(); ok {
		k := leadKey{class: leadBool}
		if b {
			k.num = 1
		}
		return k
	}
	return leadKey{class: leadOther}
}

// indexKey addresses one bucket of the lead index.
type indexKey struct {
	arity int
	lead  leadKey
}

// indexKeyOf returns the bucket a tuple is indexed (and sharded) under.
// Arity-0 tuples share the single zero-lead bucket.
func indexKeyOf(t tuple.Tuple) indexKey {
	return indexKey{arity: t.Arity(), lead: leadOf(t)}
}

// leadOf returns the canonical lead a tuple is filed under within its
// arity: its first field, or the zero key for the empty tuple.
func leadOf(t tuple.Tuple) leadKey {
	if t.Arity() == 0 {
		return leadKey{}
	}
	return canonLead(t.Field(0))
}

// leadAt returns the canonical value a tuple is filed under at field pos:
// its lead for pos 0.
func leadAt(t tuple.Tuple, pos int) leadKey {
	if pos == 0 {
		return leadOf(t)
	}
	return canonLead(t.Field(pos))
}

// maxShards bounds the shard count so lock sets fit a fixed-size bitset
// (no allocation on the per-transaction lock path).
const maxShards = 256

// shardSet is a fixed-capacity bitset of shard indexes.
type shardSet struct{ bits [maxShards / 64]uint64 }

func (ss *shardSet) add(i uint32)      { ss.bits[i>>6] |= 1 << (i & 63) }
func (ss *shardSet) has(i uint32) bool { return ss.bits[i>>6]&(1<<(i&63)) != 0 }

// count returns the number of shards in the set.
func (ss *shardSet) count() int {
	n := 0
	for _, word := range ss.bits {
		n += bits.OnesCount64(word)
	}
	return n
}

// forEach visits the set's shard indexes in ascending order (the global
// lock order), stopping early when fn returns false.
func (ss *shardSet) forEach(fn func(i uint32) bool) {
	for w, word := range ss.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(uint32(w*64 + b)) {
				return
			}
			word &^= 1 << b
		}
	}
}

// shard is one partition of the dataspace. A shard's slab, tables, counters,
// and subscription registry are guarded by its mu (the registry
// additionally has its own short-lived mutex so Subscribe/Cancel need no
// shard lock).
//
// The shard keeps its instances in one array, slab, and every index names
// an instance by its position there, its slot. A stored tuple is resident
// in four places: its fields block (16 bytes a field), its slab slot (a
// 24-byte entry: ID, fields pointer, owner and arity in one word), its slot
// in the ID table ids (only the by-ID paths — Get, Delete, an apply,
// recovery — consult it), and its slot in one set of the lead index byArity
// — arity, then an idIndex of 4-byte idSets (idset.go) — from which
// lead-known scans, arity scans, Arities and the planner's cardinalities are
// all read, each candidate straight from slab. Hot secondary shapes
// (secondary.go) file the slot once more per shape, in the same index type.
// The ID table and every idIndex are tables (table.go) whose cells hold
// slots or sets and no key: a probe reads the key back from slab, so they
// cost 4 bytes a cell, hold no pointer, and leave no tombstone when a key is
// deleted.
//
// Slot 0 is reserved, so a zero idSet means empty, and so does a zero
// table cell. A vacant slot holds entry{} (no tuple pinned) and is on the
// free list vacant, which place reuses last-freed first, so a
// read-modify-write refills the slot it just freed. The slab never shrinks
// below its peak.
//
// The commit paths (see locktable.go) layer two more lock classes around mu.
// intent separates the two commit disciplines: key-mode commits hold it
// shared for their whole span, shard-mode commits hold it exclusive from
// their evaluation through their apply, so the two never interleave on one
// shard while key-mode commits stack up freely. Both evaluate under
// mu.RLock, so the shard's readers pass while they do. latches are the
// striped per-key lock table; a key-mode commit latches every bucket of its
// footprint before touching intent. The acquisition order is always latches
// (ascending global order), then intent (ascending shard order), then mu — a
// fixed class order that keeps the three-layer ladder deadlock-free.
//
// seq counts committed changes to this shard's contents and snap caches an
// immutable epoch snapshot of them, rebuilt once staleReads has earned it
// (see epoch.go); all three are maintained under mu and read lock-free by
// the epoch read path.
type shard struct {
	mu      sync.RWMutex
	slab    slab
	vacant  []uint32 // the free list
	ids     idTable  // a live instance's slot, by ID
	byArity map[int]*arityIndex

	// sec is the adaptive secondary field-index layer (secondary.go).
	sec secondaryState

	asserts  uint64
	retracts uint64

	intent  sync.RWMutex
	latches [keyStripes]sync.Mutex
	queue   commitQueue

	seq        atomic.Uint64
	snap       atomic.Pointer[shardSnap]
	staleReads atomic.Uint32 // epoch reads that found snap stale since the last commit

	waiters waiterRegistry
}

// entry is a slab slot: one instance in three words, word packing the owner
// (its low ownerBits) and the arity (the rest). An instance whose owner or
// arity does not fit has wideMark there and is kept whole in the wide map.
type entry struct {
	id   tuple.ID
	p    *tuple.Value // the tuple's fields block
	word uint64
}

const ownerBits, wideMark = 48, 1<<16 - 1 // the arity takes the word's top 64-ownerBits

// slab is a shard's instances by slot; slot 0 and the vacant slots hold
// entry{}.
type slab struct {
	slots []entry
	wide  map[uint32]Instance // by slot: the instances whose entry has wideMark
}

// put stores inst in slot.
func (sl *slab) put(slot uint32, inst Instance) {
	a, owner := uint64(inst.Tuple.Arity()), uint64(inst.Owner)
	if a >= wideMark || owner>>ownerBits != 0 {
		if sl.wide == nil {
			sl.wide = make(map[uint32]Instance)
		}
		sl.wide[slot], a, owner = inst, wideMark, 0
	}
	sl.slots[slot] = entry{inst.ID, inst.Tuple.Block(), a<<ownerBits | owner}
}

// instAt returns the instance in slot.
func (sl *slab) instAt(slot uint32) Instance {
	e := &sl.slots[slot]
	if e.word>>ownerBits == wideMark {
		return sl.wide[slot]
	}
	return Instance{ID: e.id, Tuple: tuple.FromBlock(e.p, int(e.word>>ownerBits)), Owner: tuple.ProcessID(e.word & (1<<ownerBits - 1))}
}

// arityIndex is one arity's part of a shard's lead index. An arity is in
// shard.byArity exactly while the shard holds a tuple of it. Inside a
// commit's apply an emptied arity stays (n == 0), so a read-modify-write
// that deletes the shard's last tuple of an arity before it inserts the
// successor allocates nothing; the commit's publication drops it if it is
// still empty, freeing its lead index.
type arityIndex struct {
	n     int     // tuples of this arity in the shard
	leads idIndex // canonical lead → their slots
}

// arityLen returns the number of tuples of the arity in the shard.
func (sh *shard) arityLen(arity int) int {
	if ai := sh.byArity[arity]; ai != nil {
		return ai.n
	}
	return 0
}

// leadSet returns the slots filed under (arity, lead); an empty view if none.
func (sh *shard) leadSet(arity int, lead leadKey) idView {
	if ai := sh.byArity[arity]; ai != nil {
		return ai.leads.get(&sh.slab, lead)
	}
	return idView{}
}

// eachOfArity visits the slots of every tuple of the arity, bucket by
// bucket, until fn returns false; it reports whether it ran to completion.
func (sh *shard) eachOfArity(arity int, fn func(slot uint32) bool) bool {
	if ai := sh.byArity[arity]; ai != nil {
		return ai.leads.each(func(set idView) bool { return set.each(fn) })
	}
	return true
}

// Store is the shared dataspace. The zero value is not usable; construct
// with New.
type Store struct {
	nextID  atomic.Uint64
	version atomic.Uint64

	shards []*shard
	mask   uint32
	all    shardSet // every shard index, for the full-lock paths

	metrics *metrics.Registry
	sc      *sched.Controller // nil unless schedule exploration is on

	onCommit    []CommitHook
	afterCommit []func()    // run by the committer once its locks are released
	durable     DurableSink // nil unless a WAL is attached
	syncWaits   bool        // durable's WaitDurable blocks (see WaitsForSync)
}

// Option configures a Store under construction.
type Option func(*storeConfig)

type storeConfig struct {
	shards int
	sc     *sched.Controller
}

// WithShards sets the shard count. Values are rounded up to a power of two
// and clamped to [1, 256]; zero or negative selects the default
// (GOMAXPROCS-scaled).
func WithShards(n int) Option {
	return func(c *storeConfig) { c.shards = n }
}

// WithScheduler installs a deterministic schedule-exploration controller.
// The store, and every component layered over it (transaction engine,
// consensus manager, process runtime — they discover the controller via
// Sched), then consults the controller at its decision points. A nil
// controller (the default) keeps every hook a no-op.
func WithScheduler(sc *sched.Controller) Option {
	return func(c *storeConfig) { c.sc = sc }
}

func defaultShardCount() int {
	return runtime.GOMAXPROCS(0)
}

func normalizeShardCount(n int) int {
	if n <= 0 {
		n = defaultShardCount()
	}
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so shard selection is a mask.
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	return n
}

// Stats counts dataspace activity; retrieved via Store.Stats.
type Stats struct {
	Asserts  uint64 // tuple instances inserted
	Retracts uint64 // tuple instances deleted
	Commits  uint64 // mutating commits
}

// CommitHook observes committed mutations (used by the trace subsystem).
// Hooks run while the commit's shard write locks are held and must not
// call back into the store. Commits touching disjoint shard sets run — and
// therefore invoke hooks — concurrently, so hooks must be safe to call
// from multiple goroutines. The record is lent to the hook for the
// duration of the call (see CommitRecord): a hook that keeps its effects
// copies them, as trace.CommitLog does.
type CommitHook func(rec CommitRecord)

// CommitRecord describes one committed mutation batch (the merged record
// of every shard the commit touched). Inserted and Deleted are views of
// the commit's pooled journal, valid only during the CommitHook or
// DurableSink.Append call that receives them: the journal is emptied and
// reused by a later commit once this one has notified its waiters.
type CommitRecord struct {
	Version  uint64
	Owner    tuple.ProcessID
	Inserted []Instance
	Deleted  []Instance
}

// Instance pairs a tuple with its instance identifier and owner.
type Instance struct {
	ID    tuple.ID
	Tuple tuple.Tuple
	Owner tuple.ProcessID
}

// New returns an empty dataspace.
func New(opts ...Option) *Store {
	var cfg storeConfig
	for _, o := range opts {
		o(&cfg)
	}
	n := normalizeShardCount(cfg.shards)
	s := &Store{
		shards:  make([]*shard, n),
		mask:    uint32(n - 1),
		metrics: metrics.NewRegistry(n),
		sc:      cfg.sc,
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			slab:    slab{slots: make([]entry, 1)},
			byArity: make(map[int]*arityIndex),
		}
		s.shards[i].sec.met = s.metrics
		s.all.add(uint32(i))
	}
	return s
}

// NumShards returns the store's shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Metrics returns the store's metrics registry. The registry is shared by
// every component layered over the store (transaction engine, consensus
// manager, process runtime), so it aggregates the whole system's activity.
func (s *Store) Metrics() *metrics.Registry { return s.metrics }

// Sched returns the schedule-exploration controller, or nil when none is
// installed. Components layered over the store call it once at construction
// and keep the (possibly nil) controller for their own decision points.
func (s *Store) Sched() *sched.Controller { return s.sc }

// hashKey hashes an index key: FNV-1a accumulation over the key's
// canonical fields, then a full-avalanche finalizer so that differences
// anywhere in the input (e.g. the high mantissa bits that distinguish
// small numeric leads) reach every output bit. The low 32 bits select the
// shard; the high 32 bits select the key-latch stripe, so the two
// partitions are independent.
func hashKey(k indexKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mix(uint64(k.arity))
	mix(uint64(k.lead.class))
	mix(k.lead.num)
	for i := 0; i < len(k.lead.str); i++ {
		h ^= uint64(k.lead.str[i])
		h *= prime64
	}
	// murmur3 fmix64 finalizer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// shardIndex maps an index key onto a shard. Every tuple of one bucket
// maps to the same shard.
func (s *Store) shardIndex(k indexKey) uint32 {
	if s.mask == 0 {
		return 0
	}
	return uint32(hashKey(k)) & s.mask
}

// bucket returns the one index bucket an interest key addresses; ok=false
// for a lead-unknown key of arity > 0, which can match in any bucket of its
// arity. Arity-0 keys address the single zero-lead bucket.
func (k InterestKey) bucket() (ik indexKey, ok bool) {
	switch {
	case k.Arity == 0:
		return indexKey{}, true
	case k.LeadKnown:
		return indexKey{arity: k.Arity, lead: canonLead(k.Lead)}, true
	}
	return indexKey{}, false
}

// planShards maps interest keys onto the shard set their buckets live in.
// A key without a single bucket widens the plan to every shard and makes
// it unbounded.
func (s *Store) planShards(keys []InterestKey) (ss shardSet, bounded bool) {
	for _, k := range keys {
		ik, ok := k.bucket()
		if !ok {
			return s.all, false
		}
		ss.add(s.shardIndex(ik))
	}
	return ss, true
}

func (s *Store) rlockSet(ss *shardSet) {
	ss.forEach(func(i uint32) bool {
		s.sc.Yield(sched.PointLockShard)
		s.shards[i].mu.RLock()
		s.metrics.IncShardRead(i)
		return true
	})
}

func (s *Store) runlockSet(ss *shardSet) {
	ss.forEach(func(i uint32) bool { s.shards[i].mu.RUnlock(); return true })
}

// lockSet takes the bulk paths' (exclusive) locks: each shard's intent lock
// keeps every commit off the shard for the whole critical section, and its
// mu grants exclusive access to the maps. Both are acquired in ascending
// shard order, intent before mu — the global lock-class order shared with
// the commit paths (locktable.go).
func (s *Store) lockSet(ss *shardSet) {
	ss.forEach(func(i uint32) bool {
		s.sc.Yield(sched.PointLockShard)
		s.shards[i].intent.Lock()
		s.shards[i].mu.Lock()
		s.metrics.IncShardWrite(i)
		return true
	})
}

func (s *Store) unlockSet(ss *shardSet) {
	ss.forEach(func(i uint32) bool {
		s.shards[i].mu.Unlock()
		s.shards[i].intent.Unlock()
		return true
	})
}

// spike widens a critical section when the exploration controller draws a
// contention spike, so other commits pile up behind its footprint.
func (s *Store) spike() {
	if s.sc != nil {
		for n := s.sc.LockSpike(); n > 0; n-- {
			runtime.Gosched()
		}
	}
}

// OnCommit registers a hook invoked for every mutating commit. Must be
// called before the store is shared between goroutines.
func (s *Store) OnCommit(h CommitHook) {
	s.onCommit = append(s.onCommit, h)
}

// AfterCommit registers a hook the committer runs after every mutating
// commit, its locks released: unlike a CommitHook it may commit. Must be
// called before the store is shared between goroutines.
func (s *Store) AfterCommit(h func()) {
	s.afterCommit = append(s.afterCommit, h)
}

// runAfterCommit runs the after-commit hooks; its callers hold no store
// lock (sdllint checks).
func (s *Store) runAfterCommit() {
	for _, h := range s.afterCommit {
		h()
	}
}

// DurableSink makes commits durable before they become visible. Append is
// called inside the commit's critical section — the same place hooks run,
// with the same lent record, after the version is allocated and while
// every conflicting commit is still excluded by the commit's locks — so
// conflicting commits append in version order and the sink's append order
// extends the conflict order.
// Append must be fast and non-blocking (buffer and return a wait token);
// WaitDurable blocks until the token's record is on stable storage. It is
// called after the commit's locks are released but before its waiters are
// notified and before the mutating call returns: a commit is observable
// only once durable (durable-before-visible), yet the fsync wait never
// extends lock hold times.
//
// Blocking reports whether WaitDurable can block at all: a sink that syncs
// on its own schedule returns from WaitDurable at once and says false.
type DurableSink interface {
	Append(rec CommitRecord) (token uint64)
	WaitDurable(token uint64)
	Blocking() bool
}

// SetDurable attaches a durability sink (a write-ahead log). Must be called
// before the store is shared between goroutines, and after any recovery
// replay (recovered records are already durable and must not re-append).
func (s *Store) SetDurable(d DurableSink) {
	s.durable = d
	s.syncWaits = d != nil && d.Blocking()
}

// WaitsForSync reports whether a mutating commit waits, before it returns,
// for its record to reach stable storage: a caller that multiplexes work on
// few goroutines (the process runtime's worker pool) must not let that wait
// hold up the rest, which could otherwise share the fsync.
func (s *Store) WaitsForSync() bool { return s.syncWaits }

// waitDurable blocks the committing goroutine until its record is on
// stable storage (no-op without a sink). PointWalSync lets the exploration
// harness perturb which commit reaches the log's sync leader election
// first, permuting fsync batching.
func (s *Store) waitDurable(token uint64) {
	if s.durable == nil {
		return
	}
	s.sc.Yield(sched.PointWalSync)
	s.durable.WaitDurable(token)
}

// Reader provides read access to one consistent dataspace configuration.
// It implements pattern.Source. Readers are only valid inside the callback
// that received them.
type Reader interface {
	// Scan implements pattern.Source over the live index.
	Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool)
	// Get returns the tuple instance with the given ID.
	Get(id tuple.ID) (Instance, bool)
	// Each calls fn for every tuple instance in the configuration, in
	// unspecified order, stopping early when fn returns false.
	Each(fn func(Instance) bool)
	// Arities returns the tuple arities currently present, in unspecified
	// order. Views use it to materialize imports bucket by bucket.
	Arities() []int
	// Version returns the configuration version.
	Version() uint64
	// Len returns the number of tuple instances.
	Len() int
}

// Writer extends Reader with mutation. Mutations are visible to the
// writer's own reads at once and are published as one commit when the
// update callback returns nil. They are buffered until then, so a Scan or
// ScanFields callback may Insert or Delete; an instance the callback
// deletes is not visited after, and one it inserts is not visited by the
// running scan.
type Writer interface {
	Reader
	// Insert adds a tuple instance owned by owner and returns its ID.
	Insert(t tuple.Tuple, owner tuple.ProcessID) tuple.ID
	// Delete removes the tuple instance with the given ID; it returns
	// ErrNoSuchTuple if absent.
	Delete(id tuple.ID) error
}

// reader implements Reader over a locked shard set.
type reader struct {
	s  *Store
	ss *shardSet // the shards this reader holds locked
}

var _ Reader = reader{}

// readView is one read's Reader on either read path: the footprint's shard
// set, the locked reader and the epoch reader over it. A read takes a view
// from the pool, hands fn a pointer into it — so the Reader boxes nothing —
// and pools it again once fn returns, which is why a Reader is valid only
// inside its callback. A pooled view pins no store and no snapshot.
type readView struct {
	ss     shardSet
	locked reader      // ss points at the view's ss
	epoch  epochReader // ss points at the view's ss; snaps is indexed by shard
}

var readViews = sync.Pool{New: func() any {
	v := new(readView)
	v.locked.ss, v.epoch.ss = &v.ss, &v.ss
	return v
}}

// readView takes a view over ss from the pool.
func (s *Store) readView(ss shardSet) *readView {
	v := readViews.Get().(*readView)
	v.ss, v.locked.s, v.epoch.s = ss, s, s
	return v
}

// release returns the view to the pool, dropping its store and snapshots.
func (v *readView) release() {
	clear(v.epoch.snaps)
	v.locked.s, v.epoch.s = nil, nil
	readViews.Put(v)
}

// Snapshot runs fn with read access to a consistent configuration of the
// whole dataspace. Scans within fn are reentrant (the locks are held once,
// here).
func (s *Store) Snapshot(fn func(r Reader)) {
	s.snapshotView(s.readView(s.all), fn)
}

// SnapshotKeys runs fn with read access to a consistent configuration of
// the shards covering keys. The reader sees ONLY tuples in those shards:
// scans and Gets outside the covered buckets return nothing. Callers must
// derive keys from the same (arity, lead) pairs they will scan — the
// transaction engine's footprint planner does.
func (s *Store) SnapshotKeys(keys []InterestKey, fn func(r Reader)) {
	ss, _ := s.planShards(keys)
	s.snapshotView(s.readView(ss), fn)
}

// snapshotView is the locked read path: fn runs under the read locks of the
// view's shards.
func (s *Store) snapshotView(v *readView, fn func(r Reader)) {
	s.rlockSet(&v.ss)
	defer v.release()
	defer s.runlockSet(&v.ss)
	fn(&v.locked)
}

// Update runs fn over the whole dataspace, excluding every other commit. If
// fn returns nil, its mutations are committed: the version is bumped (when
// anything changed), waiters whose interest keys intersect the written
// keys are woken, and commit hooks run. If fn returns an error, its
// mutations are discarded and the error is returned.
func (s *Store) Update(owner tuple.ProcessID, fn func(w Writer) error) error {
	return s.updateSet(s.all, owner, metrics.RungCoarse, fn)
}

// UpdateKeys is Update restricted to the shards covering keys: only those
// shards are locked, so transactions with disjoint footprints commit in
// parallel. The writer panics on an Insert outside the covered shards and
// reports ErrNoSuchTuple for Deletes outside them; callers must plan keys
// covering every bucket they scan, retract from, or assert into.
func (s *Store) UpdateKeys(owner tuple.ProcessID, keys []InterestKey, fn func(w Writer) error) error {
	ss, _ := s.planShards(keys)
	return s.updateSet(ss, owner, metrics.RungShard, fn)
}

// updateSet is the shard-locked commit path: the commit holds the shards'
// intent locks exclusive (see commit). r is the rung the commit is counted
// under: an unplanned commit over the full lock set (or a bulk Assert) is
// coarse, a keys-planned one a shard fallback. Together with the per-key
// path, every mutating store commit lands in exactly one of the three
// counters.
func (s *Store) updateSet(ss shardSet, owner tuple.ProcessID, r metrics.Rung, fn func(w Writer) error) error {
	j := s.journal(owner)
	j.rung, j.lp.ss = r, ss
	return s.commit(j, fn)
}

// bumpSeqs advances the change sequence of every shard of ss, the shards a
// commit wrote, invalidating cached epoch snapshots (and re-stamping
// maintained field indexes — see shard.bumpSeq). Callers hold those
// shards' mu locks.
//
// lint:holds mu
func (s *Store) bumpSeqs(ss *shardSet) {
	for si, sh := range s.shards {
		if ss.has(uint32(si)) {
			sh.bumpSeq()
		}
	}
}

// allocVersion claims the commit's serialization position: a single atomic
// add — correct even though commits with disjoint shard footprints allocate
// concurrently. When the exploration controller's RacyVersionBug fault
// fires, the commit instead reuses the latest allocated version without
// advancing it: a duplicate serialization position, corrupting the witness
// the refmodel replay checks. The duplicate is a pure function of the
// controller's decision, so a failing (seed, limit) pair replays. This is
// the harness's "teeth" bug (ISSUE 4): it exists only to prove exploration
// detects and shrinks real ordering violations. The fault cannot fire
// without an installed controller whose RacyVersionBug probability is
// nonzero.
func (s *Store) allocVersion() uint64 {
	if s.sc != nil && s.sc.RacyVersion() {
		if v := s.version.Load(); v > 0 {
			return v
		}
	}
	return s.version.Add(1)
}

// Version returns the current configuration version.
func (s *Store) Version() uint64 {
	return s.version.Load()
}

// Len returns the current number of tuple instances.
func (s *Store) Len() int {
	n := 0
	s.Snapshot(func(r Reader) { n = r.Len() })
	return n
}

// Stats returns a copy of the activity counters.
func (s *Store) Stats() Stats {
	st := Stats{Commits: s.metrics.Commits()}
	s.rlockSet(&s.all)
	for _, sh := range s.shards {
		st.Asserts += sh.asserts
		st.Retracts += sh.retracts
	}
	s.runlockSet(&s.all)
	return st
}

// Assert inserts tuples outside any transaction (initial dataspace
// contents, tests) as one commit. It returns the new instance IDs: one
// contiguous run, in input order. A batch spread over several shards is
// filed shard-parallel (see insertAll).
func (s *Store) Assert(owner tuple.ProcessID, ts ...tuple.Tuple) []tuple.ID {
	ids := make([]tuple.ID, len(ts))
	if len(ts) == 0 {
		return ids
	}
	j := s.journal(owner)
	j.rung = metrics.RungCoarse
	// Plan the exact shard set so bulk loads of one bucket stay narrow.
	for _, t := range ts {
		j.lp.ss.add(s.shardIndex(indexKeyOf(t)))
	}
	s.lockSet(&j.lp.ss)
	s.spike()
	if s.metrics.Observed() {
		s.metrics.ObserveFootprint(j.lp.ss.count())
	}
	j.insertAll(ts, owner, ids)
	s.bumpSeqs(&j.lp.ss)
	s.publish(j)
	s.unlockSet(&j.lp.ss)
	s.finishCommit(j)
	return ids
}

// All returns every instance currently in the dataspace (test helper and
// trace support); order is unspecified.
func (s *Store) All() []Instance {
	return s.AllInto(nil)
}

// AllInto appends every instance to buf (reusing its capacity) and returns
// the result. Callers that snapshot repeatedly can recycle one buffer.
func (s *Store) AllInto(buf []Instance) []Instance {
	out := buf[:0]
	s.Snapshot(func(r Reader) {
		if n := r.Len(); cap(out) < n {
			out = make([]Instance, 0, n)
		}
		r.Each(func(inst Instance) bool {
			out = append(out, inst)
			return true
		})
	})
	return out
}

// --- reader ---

func (r reader) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	if leadKnown {
		k := indexKey{arity: arity, lead: canonLead(lead)}
		si := r.s.shardIndex(k)
		if !r.ss.has(si) {
			return // bucket outside the reader's locked footprint
		}
		sh := r.s.shards[si]
		sh.leadSet(arity, k.lead).each(func(slot uint32) bool {
			inst := sh.slab.instAt(slot)
			return fn(inst.ID, inst.Tuple)
		})
		return
	}
	// Lead unknown: tuples of this arity may live in any locked shard.
	r.ss.forEach(func(si uint32) bool {
		sh := r.s.shards[si]
		return sh.eachOfArity(arity, func(slot uint32) bool {
			inst := sh.slab.instAt(slot)
			return fn(inst.ID, inst.Tuple)
		})
	})
}

// Get looks an instance up among the reader's locked shards.
func (r reader) Get(id tuple.ID) (inst Instance, ok bool) {
	r.ss.forEach(func(i uint32) bool {
		sh := r.s.shards[i]
		var slot uint32
		if slot, ok = sh.ids.find(&sh.slab, id); ok {
			inst = sh.slab.instAt(slot)
		}
		return !ok
	})
	return inst, ok
}

func (r reader) Each(fn func(Instance) bool) {
	r.ss.forEach(func(si uint32) bool {
		sl := &r.s.shards[si].slab
		for slot, e := range sl.slots {
			if e.id != tuple.NoID && !fn(sl.instAt(uint32(slot))) {
				return false
			}
		}
		return true
	})
}

func (r reader) Arities() []int {
	out := make([]int, 0, 8)
	r.ss.forEach(func(si uint32) bool {
		for a := range r.s.shards[si].byArity {
			out = addArity(out, a)
		}
		return true
	})
	return out
}

// addArity appends a to the arity list unless it is there; the arity
// population is tiny, so the union is a linear probe.
func addArity(out []int, a int) []int {
	for _, have := range out {
		if have == a {
			return out
		}
	}
	return append(out, a)
}

func (r reader) Version() uint64 { return r.s.version.Load() }

func (r reader) Len() int {
	n := 0
	r.ss.forEach(func(si uint32) bool {
		n += r.s.shards[si].ids.len()
		return true
	})
	return n
}

// place stores inst in a vacant slot, the last one freed first, else in a
// new one at the end of the slab, and files it in the indexes; every caller
// holds the shard's exclusive mu. The slab stops short of the slot that
// would carry spillTag, so a slot never reads as an idSet's spill cell.
//
// lint:holds mu
func (sh *shard) place(inst Instance) {
	var slot uint32
	if n := len(sh.vacant); n > 0 {
		slot = sh.vacant[n-1]
		sh.vacant = sh.vacant[:n-1]
	} else {
		if slot = uint32(len(sh.slab.slots)); slot&spillTag != 0 {
			panic("dataspace: a shard's slab is full (2^31 slots)")
		}
		sh.slab.slots = append(sh.slab.slots, entry{})
	}
	sh.slab.put(slot, inst)
	sh.ids.add(&sh.slab, slot)
	sh.indexAdd(slot, inst.Tuple)
}

// vacate is place's inverse: it takes the instance in slot out of the
// indexes and the slab and puts the slot on the free list; every caller
// holds the shard's exclusive mu.
//
// lint:holds mu
func (sh *shard) vacate(slot uint32) {
	sh.indexRemove(slot, sh.slab.instAt(slot).Tuple)
	sh.ids.remove(&sh.slab, slot)
	delete(sh.slab.wide, slot)
	sh.slab.slots[slot] = entry{}
	sh.vacant = append(sh.vacant, slot)
}

// indexAdd files one placed tuple's slot in the lead index and the hot
// secondary shapes; every caller holds the shard's exclusive mu.
//
// lint:holds mu
func (sh *shard) indexAdd(slot uint32, t tuple.Tuple) {
	a := t.Arity()
	ai := sh.byArity[a]
	if ai == nil {
		ai = &arityIndex{leads: idIndex{arity: a}}
		sh.byArity[a] = ai
	}
	if ai.leads.add(&sh.slab, slot) {
		ai.n++
	}
	sh.secEdit(slot, t, (*idIndex).add)
}

// indexRemove is indexAdd's inverse for one delete. An arity it empties
// stays indexed until dropEmptyArity; every caller holds the shard's
// exclusive mu.
//
// lint:holds mu
func (sh *shard) indexRemove(slot uint32, t tuple.Tuple) {
	if ai := sh.byArity[t.Arity()]; ai != nil && ai.leads.remove(&sh.slab, slot) {
		ai.n--
	}
	sh.secEdit(slot, t, (*idIndex).remove)
}

// dropEmptyArity frees the arity's lead index if the shard holds no tuple
// of it; a commit calls it, once its edits are done, for each arity it
// deleted from. Every caller holds the shard's exclusive mu.
//
// lint:holds mu
func (sh *shard) dropEmptyArity(a int) {
	if ai := sh.byArity[a]; ai != nil && ai.n == 0 {
		delete(sh.byArity, a)
	}
}
