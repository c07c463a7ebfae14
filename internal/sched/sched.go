// Package sched is a seedable deterministic scheduling and fault-injection
// controller for the SDL runtime.
//
// The runtime's hot paths (transaction execution, shard-lock acquisition,
// wakeup dispatch, consensus detection and firing, process stepping) carry
// explicit decision points. Each point calls into an optional Controller;
// with no controller installed every call is a nil-check no-op, so the
// production configuration is unchanged. With a controller installed, every
// decision — whether to yield the goroutine, whether to inject a fault,
// how to permute an ordering — is a pure function of (seed, point,
// per-point sequence number):
//
//	value = Decide(seed, point, seq)
//
// The decision stream therefore replays identically from its seed: running
// the same seed again re-derives exactly the same value for every (point,
// seq) pair, which is what makes a failing exploration seed reproducible.
// (The OS scheduler still chooses which goroutine consumes which sequence
// number; the controller makes the perturbation pattern — not the kernel —
// deterministic, and in practice a failing seed re-creates its failing
// interleaving because the same perturbations are re-applied at the same
// points.)
//
// Faults are correctness-preserving perturbations the runtime must tolerate:
// spurious wakeups (a delayed transaction wakes, re-evaluates, re-blocks),
// delayed consensus invalidation signals (delivery is deferred,
// never lost), and shard-lock contention spikes (critical sections are
// artificially widened). The one exception is RacyVersionBug, a test-only
// injected ordering bug that deliberately breaks the commit-version
// serialization witness — it exists so the exploration harness can prove it
// detects real violations (see internal/sched/explore).
//
// A decision budget (SetLimit) supports shrinking: decisions drawn beyond
// the budget return zero, i.e. "no perturbation", so a failing run can be
// minimized to the shortest active-decision prefix that still fails.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Point identifies one instrumented decision point in the runtime.
type Point uint8

// Decision points. Each point owns an independent decision sequence. A
// point's ordinal seeds its stream (Decide), so a retired point keeps its
// slot: renumbering would re-draw every later point's decisions and break
// the replay of every recorded seed.
const (
	PointTxnExec          Point = iota // txn: before a transaction evaluation
	_                                  // retired (was txn-retry); the slot keeps later ordinals fixed
	PointTxnWakeup                     // txn: delayed transaction woken
	PointLockShard                     // dataspace: before each shard-lock acquisition
	PointLockSpike                     // dataspace: contention-spike injection under locks
	PointCommitPublish                 // dataspace: commit version allocation
	PointWakeupSpurious                // dataspace: spurious-wakeup injection
	PointWaiterRegister                // dataspace: delayed-txn interest registration
	PointConsensusEval                 // consensus: a drain's gate step (permutes the ready sets)
	PointConsensusSignal               // consensus: a commit's drain, run at once or deferred
	PointConsensusClaim                // consensus: offer claiming during a fire
	PointConsensusResolve              // consensus: offer resolution ordering
	PointProcStep                      // process: between behavior statements
	PointProcSpawn                     // process: spawn-group start ordering
	PointLockKey                       // dataspace: before each key-latch acquisition
	PointGroupCommit                   // dataspace: group-commit batch apply ordering
	PointWalSync                       // wal: before a commit blocks on its durability wait
	PointWalCrash                      // wal: crash-injection cut selection (exploration only)
	PointReactiveDeliver               // dataspace: subscription delta-delivery ordering
	PointIndexPromote                  // dataspace: secondary-index shape promotion timing
	NumPoints                          // number of points (not a real point)
)

// String names the point (used in decision traces).
func (p Point) String() string {
	switch p {
	case PointTxnExec:
		return "txn-exec"
	case PointTxnWakeup:
		return "txn-wakeup"
	case PointLockShard:
		return "lock-shard"
	case PointLockSpike:
		return "lock-spike"
	case PointCommitPublish:
		return "commit-publish"
	case PointWakeupSpurious:
		return "wakeup-spurious"
	case PointWaiterRegister:
		return "waiter-register"
	case PointConsensusEval:
		return "consensus-eval"
	case PointConsensusSignal:
		return "consensus-signal"
	case PointConsensusClaim:
		return "consensus-claim"
	case PointConsensusResolve:
		return "consensus-resolve"
	case PointProcStep:
		return "proc-step"
	case PointProcSpawn:
		return "proc-spawn"
	case PointLockKey:
		return "lock-key"
	case PointGroupCommit:
		return "group-commit"
	case PointWalSync:
		return "wal-sync"
	case PointWalCrash:
		return "wal-crash"
	case PointReactiveDeliver:
		return "reactive-deliver"
	case PointIndexPromote:
		return "index-promote"
	default:
		return "unknown"
	}
}

// Faults configures the perturbation probabilities, each in 1/256 units
// (0 = never, 255 ≈ always). The zero value disables everything.
type Faults struct {
	// Yield is the probability of a Gosched burst at a decision point.
	Yield uint8
	// Shuffle is the probability of permuting an ordering decision
	// (wakeup dispatch, consensus claim/resolution, spawn start order).
	Shuffle uint8
	// SpuriousWakeup wakes every registered waiter on a commit, not just
	// the interest-matched ones; delayed transactions must re-evaluate and
	// re-block harmlessly.
	SpuriousWakeup uint8
	// DelaySignal defers (never drops) the consensus drain a commit owes.
	DelaySignal uint8
	// LockSpike widens a commit's critical section with extra yields while
	// the shard locks are held, simulating contention spikes.
	LockSpike uint8
	// RacyVersionBug is a TEST-ONLY injected ordering bug: a commit it fires
	// on reuses the latest allocated version instead of advancing it, so
	// two commits claim the same serialization position and break the
	// witness. It exists to prove the exploration harness detects real
	// violations. Keep 0 outside harness self-tests.
	RacyVersionBug uint8
}

// NoFaults disables every perturbation (the controller still draws
// decisions, so traces and budgets remain meaningful).
func NoFaults() Faults { return Faults{} }

// Light is a mild exploration profile: frequent yields, occasional faults.
func Light() Faults {
	return Faults{Yield: 64, Shuffle: 64, SpuriousWakeup: 16, DelaySignal: 16, LockSpike: 8}
}

// Heavy is an adversarial profile for exploration campaigns.
func Heavy() Faults {
	return Faults{Yield: 128, Shuffle: 128, SpuriousWakeup: 48, DelaySignal: 48, LockSpike: 32}
}

// Decide is the pure decision function: the value drawn at (point, seq)
// under seed. Exposed so tests and tools can re-derive a controller's
// decision stream without running it.
func Decide(seed uint64, p Point, seq uint64) uint64 {
	x := seed
	x ^= (uint64(p) + 1) * 0x9E3779B97F4A7C15
	x += mix64(seq ^ 0x632BE59BD9B4E019)
	v := mix64(x)
	if v == 0 {
		v = 1 // zero is reserved for "no decision" (nil / out of budget)
	}
	return v
}

// mix64 is the murmur3 fmix64 finalizer: full avalanche in 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Decision is one recorded decision of a traced controller.
type Decision struct {
	Point Point
	Seq   uint64
	Value uint64
}

// Controller is a seed-deterministic scheduling/fault controller. All
// methods are safe on a nil receiver (no-ops), so runtime components hold a
// possibly-nil *Controller and call it unconditionally.
type Controller struct {
	seed   uint64
	faults Faults

	counters [NumPoints]atomic.Uint64 // per-point sequence numbers
	budget   atomic.Int64             // decisions drawn so far
	limit    atomic.Int64             // active-decision budget; < 0 = unlimited
	fp       atomic.Uint64            // order-independent stream fingerprint

	tracing  atomic.Bool
	traceMu  sync.Mutex
	trace    []Decision
	traceCap int
}

// New returns a controller for the given seed and fault profile.
func New(seed uint64, f Faults) *Controller {
	c := &Controller{seed: seed, faults: f}
	c.limit.Store(-1)
	return c
}

// Seed returns the controller's seed.
func (c *Controller) Seed() uint64 {
	if c == nil {
		return 0
	}
	return c.seed
}

// Faults returns the fault profile.
func (c *Controller) Faults() Faults {
	if c == nil {
		return Faults{}
	}
	return c.faults
}

// SetLimit bounds the number of ACTIVE decisions: draws beyond the limit
// return zero ("no perturbation"). Negative means unlimited. Shrinking a
// failing seed binary-searches this budget.
func (c *Controller) SetLimit(n int64) {
	if c != nil {
		c.limit.Store(n)
	}
}

// Decisions returns the number of decisions drawn so far (including draws
// beyond the budget).
func (c *Controller) Decisions() int64 {
	if c == nil {
		return 0
	}
	return c.budget.Load()
}

// Fingerprint returns an order-independent hash of every active decision
// drawn so far. Two runs of the same seed that consume the same (point,
// seq) pairs produce the same fingerprint regardless of goroutine
// interleaving.
func (c *Controller) Fingerprint() uint64 {
	if c == nil {
		return 0
	}
	return c.fp.Load()
}

// EnableTrace records up to cap decisions (0 = a generous default) for
// diagnosis; retrieve them with Trace.
func (c *Controller) EnableTrace(cap int) {
	if c == nil {
		return
	}
	if cap <= 0 {
		cap = 1 << 16
	}
	c.traceMu.Lock()
	c.traceCap = cap
	c.trace = make([]Decision, 0, min(cap, 1024))
	c.traceMu.Unlock()
	c.tracing.Store(true)
}

// Trace returns a copy of the recorded decisions.
func (c *Controller) Trace() []Decision {
	if c == nil {
		return nil
	}
	c.traceMu.Lock()
	out := make([]Decision, len(c.trace))
	copy(out, c.trace)
	c.traceMu.Unlock()
	return out
}

// draw consumes the next decision at p. It returns 0 when the controller
// is nil or the active-decision budget is exhausted.
func (c *Controller) draw(p Point) uint64 {
	if c == nil {
		return 0
	}
	seq := c.counters[p].Add(1) - 1
	n := c.budget.Add(1)
	if lim := c.limit.Load(); lim >= 0 && n > lim {
		return 0
	}
	v := Decide(c.seed, p, seq)
	// Commutative fold: the fingerprint is independent of consumption order.
	c.fp.Add(mix64(v + uint64(p)))
	if c.tracing.Load() {
		c.traceMu.Lock()
		if len(c.trace) < c.traceCap {
			c.trace = append(c.trace, Decision{Point: p, Seq: seq, Value: v})
		}
		c.traceMu.Unlock()
	}
	return v
}

// Yield is a decision point: it may perform a burst of Gosched calls to
// perturb the goroutine schedule.
func (c *Controller) Yield(p Point) {
	v := c.draw(p)
	if v == 0 {
		return
	}
	if uint8(v) < c.faults.Yield {
		n := 1 + int((v>>8)&3)
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
	}
}

// Perm returns a permutation of [0, n) when the shuffle decision fires,
// nil otherwise (callers keep the natural order on nil).
func (c *Controller) Perm(p Point, n int) []int {
	if n < 2 {
		return nil
	}
	v := c.draw(p)
	if v == 0 || uint8(v>>16) >= c.faults.Shuffle {
		return nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r := v
	for i := n - 1; i > 0; i-- {
		r = mix64(r)
		j := int(r % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// SpuriousWakeup reports whether a commit should additionally wake every
// registered waiter.
func (c *Controller) SpuriousWakeup() bool {
	v := c.draw(PointWakeupSpurious)
	return v != 0 && uint8(v>>16) < c.faults.SpuriousWakeup
}

// DelaySignal reports whether the consensus drain a commit owes should be
// deferred to a separate goroutine (run later, never dropped).
func (c *Controller) DelaySignal() bool {
	v := c.draw(PointConsensusSignal)
	return v != 0 && uint8(v>>16) < c.faults.DelaySignal
}

// DeferPromote reports whether a secondary-index shape that just crossed
// its promotion threshold should stay cold for one more scan, perturbing
// index-build timing relative to concurrent asserts/retracts. Reuses the
// Shuffle probability so existing fault profiles exercise it.
func (c *Controller) DeferPromote() bool {
	v := c.draw(PointIndexPromote)
	return v != 0 && uint8(v>>16) < c.faults.Shuffle
}

// LockSpike returns the number of extra yields to perform while holding a
// commit's shard locks (0 = none).
func (c *Controller) LockSpike() int {
	v := c.draw(PointLockSpike)
	if v == 0 || uint8(v>>16) >= c.faults.LockSpike {
		return 0
	}
	return 2 + int((v>>24)&7)
}

// RacyVersion reports whether this commit should claim a duplicate version
// (test-only; see Faults.RacyVersionBug).
func (c *Controller) RacyVersion() bool {
	v := c.draw(PointCommitPublish)
	return v != 0 && uint8(v>>16) < c.faults.RacyVersionBug
}
