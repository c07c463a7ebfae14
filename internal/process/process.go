// Package process implements SDL's process society: parameterized process
// definitions, dynamic process creation, and the four flow-of-control
// constructs — sequence, selection, repetition, and replication — that
// sequence transaction execution within a process.
//
// Each process instance is a record that is its own scope (its parameters,
// with its let-constants layered over it), a programmer-defined view, a
// unique ProcessID that owns the tuples it asserts, and its behavior as an
// explicit continuation.
// The runtime's worker pool runs the records; a blocked process holds no
// goroutine, only its record and its armed subscription or offer (see
// proc). Processes are created by other processes (the Spawn action) or by
// the embedding program (Runtime.Spawn), and terminate when their behavior
// completes or an abort action executes.
package process

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// Errors.
var (
	// ErrUnknownDefinition reports a spawn of an undefined process type.
	ErrUnknownDefinition = errors.New("process: unknown process definition")
	// ErrArity reports a spawn with the wrong number of arguments.
	ErrArity = errors.New("process: wrong number of arguments")
	// ErrRuntimeClosed reports a spawn on a shut-down runtime.
	ErrRuntimeClosed = errors.New("process: runtime closed")
)

// control-flow sentinels used by the interpreter.
var (
	errExit  = errors.New("process: exit")
	errAbort = errors.New("process: abort")
)

// ViewFunc builds a process's view from its parameters, read through s —
// the new process's record — so views can reference parameters (IMPORT
// <node_id,*,*,*> in the Sort process). The view may keep s: a record's
// parameters never change. A nil ViewFunc means the universal view.
type ViewFunc func(s expr.Scope) view.View

// Definition is a parameterized process type.
type Definition struct {
	// Name identifies the type for Spawn actions.
	Name string
	// Params names the formal parameters, bound in the process's record.
	Params []string
	// View builds the process view from the parameters (nil = universal).
	View ViewFunc
	// Body is the behavior: a sequence of statements.
	Body []Stmt
}

// Runtime hosts a process society over one dataspace/engine/consensus
// manager.
//
// The worker pool. A runtime runs its processes on at most GOMAXPROCS
// workers of its own, started as work first arrives and stopped by
// Shutdown. Each worker takes the record at the head of the run queue and
// steps its continuation until it parks, ends, or yields: a process that
// finishes a transaction while others are queued goes to the back of the
// queue (weak fairness without preemption), and only a park point — a
// delayed statement, a consensus statement, a blocking selection, or a
// replication waiting on its copies — takes a process off the workers for
// longer than a step. Three things wake a parked process and put it back on
// the queue: a delivery to its subscription, its offer firing, and the
// runtime's cancellation (Shutdown); a replication's last copy wakes the
// process that replicated.
//
// On a store whose commits wait for an fsync (Store.WaitsForSync), a worker
// running a transaction does not count against GOMAXPROCS: it may block for
// the fsync, and a stand-in worker takes the queued processes meanwhile, so
// their commits join the same group fsync rather than queueing behind it.
// A worker that finds the pool over its bound when its process leaves it
// stops.
type Runtime struct {
	engine *txn.Engine
	cons   *consensus.Manager
	sc     *sched.Controller // the store's exploration controller (usually nil)
	m      *metrics.Registry // the store's registry: it counts the society

	defsMu sync.RWMutex
	defs   map[string]*Definition

	nextPID atomic.Uint64

	liveMu sync.Mutex
	live   map[tuple.ProcessID]*proc

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	// The run queue (a FIFO ring of runnable records) and its workers.
	runMu      sync.Mutex
	runCond    sync.Cond // idle workers wait here
	runq       []*proc
	runHead    int
	runLen     int
	queued     atomic.Int32 // runLen, read without runMu by a yielding process
	workers    int          // started
	idle       int          // waiting on runCond and not yet signalled
	syncing    int          // running a transaction that may wait for an fsync
	maxWorkers int
	stopping   bool
	workerWG   sync.WaitGroup

	// The block records cut their subscriptions from (newSub): the rest of
	// the latest block, and that block's length.
	subMu    sync.Mutex
	subs     []dataspace.Subscription
	subBlock int

	errMu  sync.Mutex
	errs   []error
	maxErr int
}

// Subscription blocks start at minSubBlock and double, up to maxSubBlock, as
// a society's records keep waiting.
const minSubBlock, maxSubBlock = 8, 64

// newSub cuts a record's subscription from the runtime's block — one
// allocation per block, not per record that waits, as a spawn list's
// records are one block. A block lives while any of its records does.
func (rt *Runtime) newSub() *dataspace.Subscription {
	rt.subMu.Lock()
	if len(rt.subs) == 0 {
		rt.subBlock = min(max(2*rt.subBlock, minSubBlock), maxSubBlock)
		rt.subs = make([]dataspace.Subscription, rt.subBlock)
	}
	sub := &rt.subs[0]
	rt.subs = rt.subs[1:]
	rt.subMu.Unlock()
	return sub
}

// NewRuntime creates a runtime over the engine. The consensus manager may
// be shared with other components; pass nil to create a private one.
// Shutdown stops the runtime's workers, which its first processes start.
func NewRuntime(engine *txn.Engine, cons *consensus.Manager) *Runtime {
	if cons == nil {
		cons = consensus.NewManager(engine)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Runtime{
		engine:     engine,
		cons:       cons,
		sc:         engine.Store().Sched(),
		m:          engine.Metrics(),
		defs:       make(map[string]*Definition),
		live:       make(map[tuple.ProcessID]*proc),
		ctx:        ctx,
		cancel:     cancel,
		maxErr:     64,
		maxWorkers: runtime.GOMAXPROCS(0),
	}
	rt.runCond.L = &rt.runMu
	return rt
}

// Engine returns the runtime's transaction engine.
func (rt *Runtime) Engine() *txn.Engine { return rt.engine }

// Metrics returns the metrics registry of the runtime's store, which
// aggregates the whole system's activity (store, engine, consensus,
// processes).
func (rt *Runtime) Metrics() *metrics.Registry { return rt.engine.Metrics() }

// Consensus returns the runtime's consensus manager.
func (rt *Runtime) Consensus() *consensus.Manager { return rt.cons }

// Define registers a process definition. For a given program the set of
// definitions is static; Define is typically called before any Spawn.
func (rt *Runtime) Define(def *Definition) error {
	if def == nil || def.Name == "" {
		return errors.New("process: empty definition")
	}
	rt.defsMu.Lock()
	defer rt.defsMu.Unlock()
	if _, dup := rt.defs[def.Name]; dup {
		return fmt.Errorf("process: duplicate definition %q", def.Name)
	}
	rt.defs[def.Name] = def
	return nil
}

// Spawn creates a process instance of the named definition with the given
// argument values and starts it. It returns the new process's ID. The
// arguments are copied into the process's record, so the caller may reuse
// args.
func (rt *Runtime) Spawn(name string, args ...tuple.Value) (tuple.ProcessID, error) {
	p := new(proc)
	if err := rt.prepare(p, name, args); err != nil {
		return 0, err
	}
	rt.start(p)
	return p.pid, nil
}

// prepare builds one spawn of the named definition into the zero record p
// and registers it; the caller starts it.
func (rt *Runtime) prepare(p *proc, name string, args []tuple.Value) error {
	if rt.closed.Load() {
		return ErrRuntimeClosed
	}
	rt.defsMu.RLock()
	err := rt.newProc(p, name, args)
	rt.defsMu.RUnlock()
	if err != nil {
		return err
	}
	rt.register(p)
	return nil
}

// SpawnReq describes one process instance for SpawnGroup.
type SpawnReq struct {
	Type string
	Args []tuple.Value
}

// SpawnGroup creates several process instances atomically with respect to
// consensus detection: every instance is registered with the consensus
// manager before any of them starts running. Programs whose termination is
// detected by a consensus transaction over the whole community (the
// paper's §3.2 Sort) need this — spawning the members one by one would let
// an early, already-satisfied prefix of the community reach consensus and
// exit before the rest of the community exists to block it.
//
// Either every request spawns or none does: validation errors (unknown
// definition, wrong arity) are returned before any registration.
func (rt *Runtime) SpawnGroup(reqs []SpawnReq) ([]tuple.ProcessID, error) {
	if rt.closed.Load() {
		return nil, ErrRuntimeClosed
	}
	block := make([]proc, len(reqs))
	procs := make([]*proc, len(reqs))
	rt.defsMu.RLock()
	for i, req := range reqs {
		procs[i] = &block[i]
		if err := rt.newProc(procs[i], req.Type, req.Args); err != nil {
			rt.defsMu.RUnlock()
			return nil, err
		}
	}
	rt.defsMu.RUnlock()

	// Register the whole group before starting any member.
	rt.cons.Reserve(len(procs))
	pids := make([]tuple.ProcessID, len(procs))
	for i, p := range procs {
		pids[i] = p.pid
		rt.register(p)
	}
	rt.startGroup(procs)
	return pids, nil
}

// startGroup starts a group of registered processes. Start order within a
// group is unspecified (registering the whole group first is what carries
// the atomicity guarantee), so exploration permutes it.
func (rt *Runtime) startGroup(procs []*proc) {
	if perm := rt.sc.Perm(sched.PointProcSpawn, len(procs)); perm != nil {
		for _, j := range perm {
			rt.start(procs[j])
		}
		return
	}
	for _, p := range procs {
		rt.start(p)
	}
}

// newProc validates one spawn of the named definition and builds its
// process record into the zero record p. The record holds the parameters
// (inline, up to len(argBuf)) and is all a process allocates: one
// allocation for a single spawn, one block of records for a group or an
// action list's spawns. Caller holds defsMu for reading.
func (rt *Runtime) newProc(p *proc, name string, args []tuple.Value) error {
	def := rt.defs[name]
	if def == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDefinition, name)
	}
	if len(args) != len(def.Params) {
		return fmt.Errorf("%w: %s takes %d, got %d",
			ErrArity, name, len(def.Params), len(args))
	}
	p.rt, p.pid, p.def, p.view = rt, tuple.ProcessID(rt.nextPID.Add(1)), def, view.Universal()
	p.args = append(p.argBuf[:0], args...)
	p.scope = p
	if def.View != nil {
		p.view = def.View(p)
	}
	p.init(frame{kind: frameSeq, stmts: def.Body})
	return nil
}

// register enters p into the consensus manager's society, through the
// member record p carries, under p's parameters.
func (rt *Runtime) register(p *proc) {
	rt.cons.RegisterMember(&p.member, p.pid, p.view, p)
}

// start makes a registered p live and queues it to run.
func (rt *Runtime) start(p *proc) {
	rt.m.IncProcessSpawned()
	rt.m.ProcessesLive().Inc()
	rt.wg.Add(1)
	p.state.Store(int32(StateRunning))
	rt.liveMu.Lock()
	rt.live[p.pid] = p
	rt.liveMu.Unlock()
	rt.enqueue(p)
}

// finish retires an ended process from the society, recording the error
// its behavior ended with unless that was control flow.
func (rt *Runtime) finish(p *proc) {
	if p.err != nil && !isControl(p.err) {
		rt.recordError(fmt.Errorf("process %s[%d]: %w", p.def.Name, p.pid, p.err))
	}
	rt.liveMu.Lock()
	delete(rt.live, p.pid)
	rt.liveMu.Unlock()
	// Off the pool's count, as in proc.rearm: the member leaving can
	// complete its set, and Unregister fires it.
	syncing := rt.beginSync()
	rt.cons.Unregister(p.pid)
	if syncing {
		rt.endSync()
	}
	rt.m.ProcessesLive().Dec()
	rt.wg.Done()
}

// enqueue puts a runnable record at the back of the run queue and hands it
// to an idle worker, or to a new one while the pool is below GOMAXPROCS.
func (rt *Runtime) enqueue(p *proc) {
	rt.runMu.Lock()
	if rt.runLen == len(rt.runq) { // full: unroll the ring into one twice its size
		grown := make([]*proc, max(16, 2*len(rt.runq)))
		n := copy(grown, rt.runq[rt.runHead:])
		copy(grown[n:], rt.runq[:rt.runHead])
		rt.runq, rt.runHead = grown, 0
	}
	rt.runq[(rt.runHead+rt.runLen)%len(rt.runq)] = p
	rt.runLen++
	rt.queued.Store(int32(rt.runLen))
	rt.addWorker()
	rt.runMu.Unlock()
}

// addWorker hands the queue to an idle worker, or to a new one while fewer
// than GOMAXPROCS workers are outside an fsync wait. Caller holds runMu.
func (rt *Runtime) addWorker() {
	switch {
	case rt.idle > 0:
		rt.idle--
		rt.runCond.Signal()
	case rt.workers-rt.syncing < rt.maxWorkers:
		rt.workers++
		rt.workerWG.Add(1)
		go rt.work()
	}
}

// beginSync marks the calling worker as running a transaction that may wait
// for an fsync, and hands the queued processes to a stand-in worker; it
// reports whether it did (see Runtime). Pair it with endSync.
func (rt *Runtime) beginSync() bool {
	if !rt.engine.Store().WaitsForSync() {
		return false
	}
	rt.runMu.Lock()
	rt.syncing++
	if rt.runLen > 0 {
		rt.addWorker()
	}
	rt.runMu.Unlock()
	return true
}

// endSync ends a beginSync that reported true.
func (rt *Runtime) endSync() {
	rt.runMu.Lock()
	rt.syncing--
	rt.runMu.Unlock()
}

// work is one pool worker: it runs queued records until Shutdown stops the
// pool, or until the pool has more workers outside an fsync wait than
// GOMAXPROCS.
func (rt *Runtime) work() {
	defer rt.workerWG.Done()
	rt.runMu.Lock()
	for {
		if rt.workers-rt.syncing > rt.maxWorkers {
			rt.workers--
			rt.runMu.Unlock()
			return
		}
		for rt.runLen == 0 {
			if rt.stopping {
				rt.workers--
				rt.runMu.Unlock()
				return
			}
			rt.idle++
			rt.runCond.Wait()
		}
		p := rt.runq[rt.runHead]
		rt.runq[rt.runHead] = nil
		rt.runHead = (rt.runHead + 1) % len(rt.runq)
		rt.runLen--
		rt.queued.Store(int32(rt.runLen))
		rt.runMu.Unlock()
		p.run()
		rt.runMu.Lock()
	}
}

// ProcessInfo describes one live process for introspection.
type ProcessInfo struct {
	PID   tuple.ProcessID
	Type  string
	State State
}

// Society returns a snapshot of the live processes and their states,
// sorted by PID. Combined with the dataspace version, it diagnoses stalls:
// if every process is blocked and no commits are happening, the program is
// deadlocked — the failure mode the paper warns the community model about
// ("individual decisions based on incomplete information can undermine the
// communal objective and lead to premature termination or deadlock").
func (rt *Runtime) Society() []ProcessInfo {
	rt.liveMu.Lock()
	out := make([]ProcessInfo, 0, len(rt.live))
	for pid, p := range rt.live {
		out = append(out, ProcessInfo{
			PID:   pid,
			Type:  p.def.Name,
			State: State(p.state.Load()),
		})
	}
	rt.liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

func isControl(err error) bool {
	return errors.Is(err, errExit) || errors.Is(err, errAbort) ||
		errors.Is(err, context.Canceled) || errors.Is(err, consensus.ErrClosed)
}

func (rt *Runtime) recordError(err error) {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	if len(rt.errs) < rt.maxErr {
		rt.errs = append(rt.errs, err)
	}
}

// Errors returns runtime errors recorded from process bodies (malformed
// queries, export violations under strict policy, …).
func (rt *Runtime) Errors() []error {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	out := make([]error, len(rt.errs))
	copy(out, rt.errs)
	return out
}

// Running returns the number of live processes: the registry's
// processesLive gauge.
func (rt *Runtime) Running() int64 { return rt.m.ProcessesLive().Value() }

// SpawnCount returns the total number of processes ever spawned: the
// registry's processesSpawned counter.
func (rt *Runtime) SpawnCount() uint64 { return rt.m.ProcessesSpawned() }

// Wait blocks until the process society is empty (every process has
// terminated). Programs whose processes all terminate — like the paper's
// examples — use this as the end-of-computation barrier.
func (rt *Runtime) Wait() { rt.wg.Wait() }

// WaitCtx is Wait with cancellation.
func (rt *Runtime) WaitCtx(ctx context.Context) error {
	done := make(chan struct{})
	go func() { rt.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown cancels every process, wakes the parked ones so they see it,
// waits for them to stop, and stops the worker pool. The consensus manager
// is left running if it was supplied externally; Close it separately.
func (rt *Runtime) Shutdown() {
	rt.closed.Store(true)
	rt.cancel()
	rt.liveMu.Lock()
	for _, p := range rt.live {
		p.Wake()
	}
	rt.liveMu.Unlock()
	rt.wg.Wait()
	rt.runMu.Lock()
	rt.stopping = true
	rt.idle = 0
	rt.runCond.Broadcast()
	rt.runMu.Unlock()
	rt.workerWG.Wait()
}
