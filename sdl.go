// Package sdl is a Go implementation of SDL — the Shared Dataspace
// Language of Roman, Cunningham & Ehlers ("A Shared Dataspace Language
// Supporting Large-Scale Concurrency", ICDCS 1988 / WUCS-88-09).
//
// SDL programs describe a computation as a content-addressable dataspace
// (a multiset of tuples) transformed by a society of concurrent processes
// issuing atomic transactions. The package re-exports the full runtime:
//
//   - values, tuples, and instance identity (Atom, Int, NewTuple, …)
//   - the indexed dataspace store (NewStore)
//   - patterns and queries (P/R/N fields, Exists/ForAll)
//   - programmer-defined views (import/export clauses, dynamic matchers)
//   - the transaction engine: immediate ('→'), delayed ('⇒') and
//     consensus ('⇑') transactions, each committing under the narrowest
//     lock its footprint allows
//   - the process runtime: definitions, dynamic spawn, sequence,
//     selection, repetition and replication constructs
//   - tracing and replay of the dataspace evolution
//
// The quickest entry point is New, which assembles a complete System:
//
//	sys := sdl.New(sdl.Options{})
//	defer sys.Close()
//	sys.Store.Assert(sdl.Environment, sdl.NewTuple(sdl.Atom("year"), sdl.Int(87)))
//
// See examples/ for complete programs, including the paper's array
// summation, property list, and region labeling examples.
package sdl

import (
	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/trace"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
	"github.com/sdl-lang/sdl/internal/vis"
	"github.com/sdl-lang/sdl/internal/wal"
)

// Values and tuples.
type (
	// Value is a single field of a tuple: an atom, int, float, string, or
	// bool.
	Value = tuple.Value
	// Tuple is an immutable finite sequence of values.
	Tuple = tuple.Tuple
	// TupleID uniquely identifies one tuple instance in a dataspace.
	TupleID = tuple.ID
	// ProcessID identifies a process in the process society.
	ProcessID = tuple.ProcessID
)

// Value constructors.
var (
	// Atom returns a symbolic constant value.
	Atom = tuple.Atom
	// Int returns an integer value.
	Int = tuple.Int
	// Float returns a floating-point value.
	Float = tuple.Float
	// Str returns a string value.
	Str = tuple.String
	// Bool returns a boolean value.
	Bool = tuple.Bool
	// NewTuple builds a tuple from values.
	NewTuple = tuple.New
	// MakeTuple builds a tuple from native Go values.
	MakeTuple = tuple.Make
)

// Environment is the pseudo-process owning initial dataspace contents.
const Environment = tuple.Environment

// Dataspace.
type (
	// Store is the shared dataspace.
	Store = dataspace.Store
	// Instance pairs a tuple with its identifier and owner.
	Instance = dataspace.Instance
	// Reader provides read access to one dataspace configuration.
	Reader = dataspace.Reader
)

// NewStore returns an empty dataspace.
var NewStore = dataspace.New

// StoreOption configures NewStore.
type StoreOption = dataspace.Option

// WithShards sets the store's shard count: rounded up to a power of two
// and clamped to [1, 256]; zero or negative selects a GOMAXPROCS-based
// default. Transactions whose patterns name their lead field lock only
// the shards they touch, so disjoint transactions commit in parallel.
var WithShards = dataspace.WithShards

// Expressions (test queries, computed fields, action arguments).
type (
	// Expr is a side-effect-free expression over variable bindings.
	Expr = expr.Expr
	// Env holds variable bindings as a map.
	Env = expr.Env
	// Scope resolves variable bindings: a process's parameters and
	// let-constants (what a Definition's View reads), or an Env.
	Scope = expr.Scope
)

// Expression constructors.
var (
	// X references a variable.
	X = expr.V
	// Lit wraps a value as a literal expression.
	Lit = expr.Const
	// Arithmetic, comparison, and logical operators.
	Add = expr.Add
	Sub = expr.Sub
	Mul = expr.Mul
	Div = expr.Div
	Mod = expr.Mod
	Eq  = expr.Eq
	Ne  = expr.Ne
	Lt  = expr.Lt
	Le  = expr.Le
	Gt  = expr.Gt
	Ge  = expr.Ge
	And = expr.And
	Or  = expr.Or
	Not = expr.Not
	// Call invokes a built-in function (abs, min, max, pow2, int).
	Call = expr.Fn
)

// Patterns and queries.
type (
	// Field is one position of a tuple pattern.
	Field = pattern.Field
	// Pattern is one tuple pattern in a binding query.
	Pattern = pattern.Pattern
	// Query is a complete SDL query.
	Query = pattern.Query
	// Binding is one query solution.
	Binding = pattern.Binding
)

// Pattern constructors.
var (
	// C is a constant field; W a wildcard ('*'); V a variable; E a field
	// computed from earlier bindings.
	C = pattern.C
	W = pattern.W
	V = pattern.V
	E = pattern.E
	// P builds a read pattern; R a retract-tagged pattern ('↑'); N a
	// negated pattern ('¬').
	P = pattern.P
	R = pattern.R
	N = pattern.N
	// Q builds an existential query; QAll a universal one.
	Q    = pattern.Q
	QAll = pattern.QAll
)

// Views.
type (
	// View pairs import and export clauses.
	View = view.View
	// Clause is one side of a view.
	Clause = view.Clause
	// Matcher decides clause membership.
	Matcher = view.Matcher
)

// View constructors.
var (
	// Universal is the unrestricted view.
	Universal = view.Universal
	// NewView builds a view from import and export clauses.
	NewView = view.New
	// Everything is the universal clause; Union a clause of matchers.
	Everything = view.Everything
	Union      = view.Union
	// Pat admits tuples matching a pattern; PatWhere adds a predicate;
	// Dyn admits via an arbitrary dataspace-dependent function.
	Pat      = view.Pat
	PatWhere = view.PatWhere
	Dyn      = view.Dyn
)

// Transactions.
type (
	// Engine executes transactions against a store.
	Engine = txn.Engine
	// Request describes one transaction.
	Request = txn.Request
	// Result reports a transaction outcome.
	Result = txn.Result
)

// NewEngine returns a transaction engine over a store. A mutating
// transaction commits under the narrowest lock its footprint allows; a
// read-only one never takes an exclusive lock.
var NewEngine = txn.New

// Export policies.
const (
	// ExportDrop silently drops non-exportable assertions (the formal
	// semantics); ExportError fails the transaction instead.
	ExportDrop  = txn.ExportDrop
	ExportError = txn.ExportError
)

// Consensus.
type (
	// ConsensusManager coordinates consensus ('⇑') transactions.
	ConsensusManager = consensus.Manager
	// Offer is one pending consensus transaction.
	Offer = consensus.Offer
)

// NewConsensusManager creates a manager over an engine.
var NewConsensusManager = consensus.NewManager

// Processes.
type (
	// Runtime hosts a process society.
	Runtime = process.Runtime
	// Definition is a parameterized process type.
	Definition = process.Definition
	// Stmt is a behavior statement; Branch a guarded sequence.
	Stmt   = process.Stmt
	Branch = process.Branch
	// Statement forms.
	Transact  = process.Transact
	Select    = process.Select
	Repeat    = process.Repeat
	Replicate = process.Replicate
	// Actions.
	Action = process.Action
	Let    = process.Let
	Spawn  = process.Spawn
	Exit   = process.Exit
	Abort  = process.Abort
	// ViewFunc builds a process view from its parameters.
	ViewFunc = process.ViewFunc
	// ProcessInfo describes one live process; ProcessState its activity.
	ProcessInfo  = process.ProcessInfo
	ProcessState = process.State
	// SpawnReq is one process of a Runtime.SpawnGroup.
	SpawnReq = process.SpawnReq
)

// NewRuntime creates a process runtime over an engine.
var NewRuntime = process.NewRuntime

// Transaction kinds for Transact statements.
const (
	// Immediate ('→') evaluates once and either commits or has no effect.
	Immediate = process.Immediate
	// Delayed ('⇒') blocks until a successful evaluation is possible.
	Delayed = process.Delayed
	// Consensus ('⇑') joins the n-way synchronization of its consensus set.
	Consensus = process.Consensus
)

// Quantifiers.
const (
	// Exists picks an arbitrary single solution (∃).
	Exists = pattern.Exists
	// ForAll applies the composite of every solution (∀).
	ForAll = pattern.ForAll
)

// Tracing and visualization.
type (
	// Recorder logs dataspace evolution for debugging and replay.
	Recorder = trace.Recorder
	// TraceEvent is one assert/retract event.
	TraceEvent = trace.Event
	// CommitLog records whole commit events (version + effects) for
	// committed-history reconstruction and serializability audits.
	CommitLog = trace.CommitLog
	// Watcher is a decoupled visualization process: it samples consistent
	// dataspace snapshots on a cadence and renders them.
	Watcher = vis.Watcher
)

var (
	// NewRecorder creates a trace recorder (0 = unbounded).
	NewRecorder = trace.NewRecorder
	// NewCommitLog creates a commit-event log; Attach it to a store.
	NewCommitLog = trace.NewCommitLog
	// NewWatcher starts a snapshot-sampling observer.
	NewWatcher = vis.NewWatcher
)

// Deterministic schedule exploration.
type (
	// SchedController is a seedable deterministic scheduler and fault
	// injector. Installed via Options.Scheduler (or the WithScheduler
	// store option), it drives yields, wakeup-delivery order, spurious
	// wakeups, contention spikes, and delayed consensus signals
	// from a pure decision stream, so any interleaving it provokes can
	// be replayed from its seed. A nil controller leaves every hook as
	// a no-op.
	SchedController = sched.Controller
	// SchedFaults selects the perturbation probabilities (0-255 each).
	SchedFaults = sched.Faults
)

var (
	// NewScheduler creates a controller for the given seed and faults.
	NewScheduler = sched.New
	// Fault presets: no perturbation beyond deterministic decisions,
	// a light mix, and an aggressive mix for stress campaigns.
	SchedNoFaults = sched.NoFaults
	SchedLight    = sched.Light
	SchedHeavy    = sched.Heavy
	// WithScheduler installs a controller on a store built directly via
	// NewStore (System users set Options.Scheduler instead).
	WithScheduler = dataspace.WithScheduler
)

// Durability. The quickest entry point is Options.WALDir with Open; the
// re-exports below serve programs managing the log directly.
type (
	// WAL is a segmented, CRC-framed write-ahead log. Attached to a store
	// (Store.SetDurable), every commit is appended inside its critical
	// section and the committing transaction blocks until the record is
	// durable — before waiters or consensus signals can observe it.
	WAL = wal.Log
	// WALOptions configures OpenWAL (sync policy, segment size, interval).
	WALOptions = wal.Options
	// WALSyncMode selects when appended records are fsynced.
	WALSyncMode = wal.SyncMode
	// WALRecoveryStats reports what WAL.Recover reconstructed.
	WALRecoveryStats = wal.RecoveryStats
	// WALState is the pure read of a log directory's durable evidence
	// (checkpoint base plus decodable record suffix) used by crash-test
	// harnesses before recovery mutates the directory.
	WALState = wal.State
)

// Fsync policies.
const (
	// WALSyncBatch, the default, fsyncs every commit before it becomes
	// visible, and amortizes: one fsync covers every record appended by the
	// group that was waiting, so concurrent commits share syncs.
	WALSyncBatch = wal.SyncBatch
	// WALSyncInterval fsyncs on a timer; commits do not wait (bounded
	// data loss on power failure, none on process crash).
	WALSyncInterval = wal.SyncInterval
)

var (
	// OpenWAL opens (or creates) a log directory. Recover into a fresh
	// store before attaching it to one that accepts commits.
	OpenWAL = wal.Open
	// ParseWALSyncMode maps "batch" | "interval" to a mode.
	ParseWALSyncMode = wal.ParseSyncMode
	// ReadWALState reads a log directory without modifying it.
	ReadWALState = wal.ReadState
)

// Observability.
type (
	// MetricsRegistry is the runtime's metrics registry: low-overhead
	// counters, gauges, and histograms recorded by the store, engine, and
	// consensus manager. Obtain it with Store.Metrics or System.Metrics.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every instrument.
	MetricsSnapshot = metrics.Snapshot
)
