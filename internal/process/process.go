// Package process implements SDL's process society: parameterized process
// definitions, dynamic process creation, and the four flow-of-control
// constructs — sequence, selection, repetition, and replication — that
// sequence transaction execution within a process.
//
// Each process instance runs on its own goroutine with a private
// environment (parameters plus let-constants), a programmer-defined view,
// and a unique ProcessID that owns the tuples it asserts. Processes are
// created by other processes (the Spawn action) or by the embedding
// program (Runtime.Spawn), and terminate when their behavior completes or
// an abort action executes.
package process

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/consensus"
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

// ViewFunc builds a process's view from its parameter environment, so
// views can reference parameters (IMPORT <node_id,*,*,*> in the Sort
// process). A nil ViewFunc means the universal view.
type ViewFunc func(env expr.Env) view.View

// Definition is a parameterized process type.
type Definition struct {
	// Name identifies the type for Spawn actions.
	Name string
	// Params names the formal parameters, bound in the process environment.
	Params []string
	// View builds the process view from the parameters (nil = universal).
	View ViewFunc
	// Body is the behavior: a sequence of statements.
	Body []Stmt
}

// Runtime hosts a process society over one dataspace/engine/consensus
// manager.
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

	errMu  sync.Mutex
	errs   []error
	maxErr int
}

// NewRuntime creates a runtime over the engine. The consensus manager may
// be shared with other components; pass nil to create a private one.
func NewRuntime(engine *txn.Engine, cons *consensus.Manager) *Runtime {
	if cons == nil {
		cons = consensus.NewManager(engine)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Runtime{
		engine: engine,
		cons:   cons,
		sc:     engine.Store().Sched(),
		m:      engine.Metrics(),
		defs:   make(map[string]*Definition),
		live:   make(map[tuple.ProcessID]*proc),
		ctx:    ctx,
		cancel: cancel,
		maxErr: 64,
	}
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
// arguments are copied into the process's environment, so the caller may
// reuse args.
func (rt *Runtime) Spawn(name string, args ...tuple.Value) (tuple.ProcessID, error) {
	if rt.closed.Load() {
		return 0, ErrRuntimeClosed
	}
	rt.defsMu.RLock()
	p, err := rt.newProc(name, args)
	rt.defsMu.RUnlock()
	if err != nil {
		return 0, err
	}
	rt.register(p)
	rt.start(p)
	return p.pid, nil
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
	procs := make([]*proc, len(reqs))
	rt.defsMu.RLock()
	for i, req := range reqs {
		p, err := rt.newProc(req.Type, req.Args)
		if err != nil {
			rt.defsMu.RUnlock()
			return nil, err
		}
		procs[i] = p
	}
	rt.defsMu.RUnlock()

	// Register the whole group before starting any member.
	pids := make([]tuple.ProcessID, len(procs))
	for i, p := range procs {
		pids[i] = p.pid
		rt.register(p)
	}
	start := procs
	if perm := rt.sc.Perm(sched.PointProcSpawn, len(procs)); perm != nil {
		// Start order within a group is unspecified (registration above is
		// what carries the atomicity guarantee); explore permutations of it.
		// pids keeps the request order regardless.
		start = make([]*proc, len(procs))
		for i, j := range perm {
			start[i] = procs[j]
		}
	}
	for _, p := range start {
		rt.start(p)
	}
	return pids, nil
}

// newProc validates one spawn of the named definition and builds its
// process record, which with its parameter environment and its goroutine is
// all a process allocates. Caller holds defsMu for reading.
func (rt *Runtime) newProc(name string, args []tuple.Value) (*proc, error) {
	def := rt.defs[name]
	if def == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDefinition, name)
	}
	if len(args) != len(def.Params) {
		return nil, fmt.Errorf("%w: %s takes %d, got %d",
			ErrArity, name, len(def.Params), len(args))
	}
	env := make(expr.Env, len(args))
	for j, p := range def.Params {
		env[p] = args[j]
	}
	v := view.Universal()
	if def.View != nil {
		v = def.View(env)
	}
	pid := tuple.ProcessID(rt.nextPID.Add(1))
	return &proc{rt: rt, pid: pid, def: def, view: v, env: env}, nil
}

// register enters p into the consensus manager's society, through the
// member record p carries.
func (rt *Runtime) register(p *proc) {
	rt.cons.RegisterMember(&p.member, p.pid, p.view, p.env)
}

// start makes a registered p live and runs it on its own goroutine.
func (rt *Runtime) start(p *proc) {
	rt.m.IncProcessSpawned()
	rt.m.ProcessesLive().Inc()
	rt.wg.Add(1)
	p.state.Store(int32(StateRunning))
	rt.liveMu.Lock()
	rt.live[p.pid] = p
	rt.liveMu.Unlock()
	go p.run()
}

// run is a process's goroutine: its behavior, then its exit from the
// society.
func (p *proc) run() {
	rt := p.rt
	defer rt.wg.Done()
	defer rt.m.ProcessesLive().Dec()
	defer rt.cons.Unregister(p.pid)
	defer func() {
		rt.liveMu.Lock()
		delete(rt.live, p.pid)
		rt.liveMu.Unlock()
	}()
	if err := p.runSeq(rt.ctx, p.def.Body); err != nil && !isControl(err) {
		rt.recordError(fmt.Errorf("process %s[%d]: %w", p.def.Name, p.pid, err))
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

// Shutdown cancels every process and waits for them to stop. The consensus
// manager is left running if it was supplied externally; Close it
// separately.
func (rt *Runtime) Shutdown() {
	rt.closed.Store(true)
	rt.cancel()
	rt.wg.Wait()
}
