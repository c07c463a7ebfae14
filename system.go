package sdl

import (
	"context"
)

// Options configures a System.
type Options struct {
	// Trace attaches a Recorder when positive (event cap) or when -1
	// (unbounded).
	Trace int
	// Shards sets the dataspace shard count (see WithShards); 0 selects
	// the GOMAXPROCS-based default.
	Shards int
	// Scheduler installs a deterministic schedule controller (see
	// NewScheduler). Every runtime layer draws its scheduling decisions
	// from it, making adversarial interleavings reproducible from the
	// controller's seed. Nil (the default) leaves all hook points as
	// no-ops.
	Scheduler *SchedController
	// WALDir enables durability: commits are appended to a write-ahead
	// log in this directory and become visible only once durable (per
	// WALSync), and Open recovers any state the directory already holds —
	// newest valid checkpoint plus the log suffix, verified against the
	// reference semantics — before the system accepts work. Empty
	// disables the WAL.
	WALDir string
	// WALSync selects the fsync policy: WALSyncBatch (the default) makes
	// every commit durable before it becomes visible, sharing one fsync
	// among concurrent commits; WALSyncInterval fsyncs on a timer.
	WALSync WALSyncMode
}

// System bundles a complete SDL runtime: store, engine, consensus manager,
// process runtime, and optional trace recorder. It is the recommended
// entry point for applications.
type System struct {
	Store    *Store
	Engine   *Engine
	Cons     *ConsensusManager
	Runtime  *Runtime
	Recorder *Recorder // nil unless Options.Trace was set
	// WAL is the open write-ahead log (nil unless Options.WALDir was set).
	WAL *WAL
	// Recovery reports what the WAL reconstructed at Open (nil without a
	// WAL; zero-valued for a fresh directory).
	Recovery *WALRecoveryStats
}

// New assembles a System. It panics if Options.WALDir is set and the log
// cannot be opened or recovered — durable systems should prefer Open,
// which returns the error (and the recovery report) instead.
func New(opts Options) *System {
	sys, err := Open(opts)
	if err != nil {
		panic("sdl: " + err.Error())
	}
	return sys
}

// Open assembles a System, recovering durable state first when
// Options.WALDir is set: the newest valid checkpoint is restored, the log
// suffix is replayed and verified against the reference semantics, the
// recovered state is re-checkpointed, and only then is the log attached so
// every commit is durable before it becomes visible.
func Open(opts Options) (*System, error) {
	store := NewStore(WithShards(opts.Shards), WithScheduler(opts.Scheduler))
	var (
		wlog     *WAL
		recovery *WALRecoveryStats
	)
	if opts.WALDir != "" {
		var err error
		wlog, err = OpenWAL(opts.WALDir, WALOptions{Sync: opts.WALSync, Metrics: store.Metrics()})
		if err != nil {
			return nil, err
		}
		recovery, err = wlog.Recover(store)
		if err != nil {
			wlog.Close()
			return nil, err
		}
		store.SetDurable(wlog)
	}
	var rec *Recorder
	switch {
	case opts.Trace > 0:
		rec = NewRecorder(opts.Trace)
		rec.Attach(store)
	case opts.Trace < 0:
		rec = NewRecorder(0)
		rec.Attach(store)
	}
	engine := NewEngine(store)
	cons := NewConsensusManager(engine)
	rt := NewRuntime(engine, cons)
	return &System{Store: store, Engine: engine, Cons: cons, Runtime: rt, Recorder: rec,
		WAL: wlog, Recovery: recovery}, nil
}

// Close shuts the system down: processes are cancelled, the consensus
// manager waits for its running drain and fails the offers still pending,
// and — when a WAL is attached — the final state is
// checkpointed and the log is synced and closed, so the next Open restores
// from the checkpoint without replay. The returned error reports
// checkpoint or log-close failures (always nil without a WAL).
func (s *System) Close() error {
	s.Runtime.Shutdown()
	s.Cons.Close()
	if s.WAL == nil {
		return nil
	}
	ckptErr := s.WAL.Checkpoint(s.Store)
	if err := s.WAL.Close(); err != nil {
		return err
	}
	return ckptErr
}

// Metrics returns the system's metrics registry (shared by the store,
// engine, consensus manager, and runtime). Use SetObserved(true) to enable
// the gated instruments (latency/footprint/fan-out histograms) before a
// workload you want to profile.
func (s *System) Metrics() *MetricsRegistry { return s.Store.Metrics() }

// Snapshot returns a point-in-time copy of the system's metrics: per-shard
// lock acquisitions, transaction attempts/commits/retries/blocks by kind,
// live subscriptions and wakeup fan-out, consensus rounds and community sizes,
// and checkpoint timings.
func (s *System) Snapshot() MetricsSnapshot { return s.Store.Metrics().Snapshot() }

// Define registers a process definition.
func (s *System) Define(defs ...*Definition) error {
	for _, d := range defs {
		if err := s.Runtime.Define(d); err != nil {
			return err
		}
	}
	return nil
}

// SpawnVals spawns a process with the given argument values.
func (s *System) SpawnVals(name string, args ...Value) (ProcessID, error) {
	return s.Runtime.Spawn(name, args...)
}

// Run spawns the named process and waits until the whole society
// terminates or ctx is cancelled.
func (s *System) Run(ctx context.Context, name string, args ...Value) error {
	if _, err := s.Runtime.Spawn(name, args...); err != nil {
		return err
	}
	return s.Runtime.WaitCtx(ctx)
}

// Immediate issues a one-shot immediate transaction from the environment.
func (s *System) Immediate(req Request) (Result, error) {
	return s.Engine.Immediate(req)
}

// Delayed issues a one-shot delayed transaction from the environment.
func (s *System) Delayed(ctx context.Context, req Request) (Result, error) {
	return s.Engine.Delayed(ctx, req)
}

// CollectInt scans tuples with the given leading atom and arity 2 and
// returns their integer second fields (a common test/report helper).
func (s *System) CollectInt(lead Value) []int64 {
	var out []int64
	s.Store.Snapshot(func(r Reader) {
		r.Scan(2, lead, true, func(_ TupleID, t Tuple) bool {
			if n, ok := t.Field(1).AsInt(); ok {
				out = append(out, n)
			}
			return true
		})
	})
	return out
}
