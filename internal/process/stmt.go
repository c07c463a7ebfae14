package process

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
)

// TxnKind selects the operational type of a transaction statement.
type TxnKind uint8

// Transaction kinds, mirroring the paper's '→', '⇒', and '⇑' tags.
const (
	Immediate TxnKind = iota + 1
	Delayed
	Consensus
)

// String renders the kind's ASCII tag.
func (k TxnKind) String() string {
	switch k {
	case Immediate:
		return "->"
	case Delayed:
		return "=>"
	case Consensus:
		return "@>"
	default:
		return "?"
	}
}

// Stmt is one statement of a process behavior.
type Stmt interface{ stmt() }

// Transact is a transaction statement: query, assertions, and local
// actions, executed with the given operational kind.
type Transact struct {
	Kind    TxnKind
	Query   pattern.Query
	Asserts []pattern.Pattern
	Actions []Action
	// Export selects the policy for assertions outside the export set.
	Export txn.ExportPolicy
	// Site names a Go-built statement's source for the explain records
	// (see txn.Request.Site); the SDL compiler leaves it empty and sets Pos,
	// the statement's source position, instead.
	Site string
	Pos  metrics.Pos
}

// Branch is one guarded sequence of a selection/repetition/replication.
type Branch struct {
	Guard Transact
	Body  []Stmt
}

// Select is the selection construct: at most one guarded sequence runs. If
// every guard is immediate and all fail, the selection acts as skip. If
// any guard is delayed or consensus, the selection blocks until one guard
// commits.
type Select struct{ Branches []Branch }

// Repeat is the repetition construct: the selection restarts after each
// selected branch; it terminates when a selection fails (no branch
// selectable) or a branch executes the exit action.
type Repeat struct{ Branches []Branch }

// Replicate is the replication construct ('≋'): unbounded concurrent
// execution of the guarded sequences; every successful guard execution
// conceptually spawns further copies. It terminates when all generated
// sequences have terminated and no guard can succeed against a
// configuration that did not change during the final round. Guards must be
// immediate.
type Replicate struct {
	Branches []Branch
	// Workers bounds the concurrency per branch (0 = GOMAXPROCS). The
	// construct's semantics do not depend on the worker count, only its
	// throughput does.
	Workers int
}

// A transaction statement is a Transact or a *Transact: the SDL compiler
// emits pointers into one array per program, so a statement is not boxed;
// a Go caller may write either. The runtime reads both through transaction.
func (Transact) stmt()  {}
func (Select) stmt()    {}
func (Repeat) stmt()    {}
func (Replicate) stmt() {}

// Action is a local action in a transaction's action list, executed after
// the transaction commits.
type Action interface{ action() }

// Let binds a constant in the process's scope, evaluated under the
// transaction's solution environment (the paper's `let N = α`).
type Let struct {
	Name string
	Expr expr.Expr
}

// Spawn creates a new process instance; argument expressions evaluate
// under the solution environment. For a ∀ transaction the spawn executes
// once per solution. The action is a *Spawn: the compiler cuts them from one
// array per program.
type Spawn struct {
	Type string
	Args []expr.Expr
}

// Exit terminates the enclosing guarded sequence and repetition (or the
// process body when at top level).
type Exit struct{}

// Abort terminates the process.
type Abort struct{}

func (Let) action()    {}
func (*Spawn) action() {}
func (Exit) action()   {}
func (Abort) action()  {}

// State describes what a live process is doing, for society introspection
// and stall diagnosis.
type State int32

// Process states.
const (
	StateRunning State = iota + 1
	StateBlockedDelayed
	StateBlockedConsensus
	StateBlockedSelect
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateBlockedDelayed:
		return "blocked-delayed"
	case StateBlockedConsensus:
		return "blocked-consensus"
	case StateBlockedSelect:
		return "blocked-select"
	default:
		return "unknown"
	}
}

// proc is one process instance's record — or one copy of a replication's
// guarded sequence (copyOf) — with its behavior as an explicit
// continuation: a stack of frames, each a statement list and its pc or a
// construct's selection or replication state. A worker steps the record
// (run); where the behavior must wait, the record parks itself instead of
// blocking the worker, having armed what will wake it:
//
//   - a delayed statement and a blocking selection arm the record's
//     subscription (sub), which wakes the record through Wake — a delayed
//     statement's filtered by the record itself (AcceptDelta);
//   - a consensus statement or guard arms the record's own offer (the one
//     inside member), which wakes it through Wake when it fires;
//   - a replication waits for its copies, the last of which wakes it.
//
// Shutdown wakes every live record too, so a parked process sees the
// cancellation. A wake puts the record back on the run queue; resuming, the
// record learns which source woke it by looking at its offer, its copies,
// the runtime's context and its subscription's buffer, so a spurious wake
// costs one re-check.
//
// The record is the process's expr.Scope too: it binds the definition's
// parameters to args, found by a scan of the handful of names. What the
// process's statements read is scope — the record, or the let-constants
// layered over it, one immutable expr.Let each, so a request issued before
// a let (a parked offer a drain still holds) keeps the scope it was
// issued with. A replication copy has no parameters of its own: its scope
// starts as the replicating process's.
type proc struct {
	rt     *Runtime
	pid    tuple.ProcessID
	def    *Definition
	view   view.View
	args   []tuple.Value // the parameters' values, in def.Params order
	argBuf [2]tuple.Value
	scope  expr.Scope
	state  atomic.Int32 // State, for introspection
	wake   atomic.Int32 // the park protocol: awake, notified or asleep
	// selSeq rotates the guard-attempt order across selections. It and the
	// flags after it share one word, keeping the record in its size class.
	selSeq  uint32
	waiting bool // the top frame is waiting: its next step resumes the wait
	offered bool // a blocking selection's offer is armed
	member  consensus.Member
	// sub is the record's wait: the subscription every delayed statement and
	// blocking selection re-arms, cut from the runtime's block by the first
	// (Runtime.newSub). A parked delayed statement holds it and no answer.
	sub *dataspace.Subscription

	frames   []frame
	frameBuf [2]frame // frames' backing while the behavior nests at most two deep
	err      error    // what the behavior ended with
	copyOf   *replication
	// vals is the block the record's transactions cut their asserted
	// tuples' fields from (pattern.Block): the executing record's, not its
	// scope's — a replication's copies share their parent's scope and
	// commit concurrently. It is dropped when the process ends.
	vals pattern.Block
}

// frameKind tells what a frame of the continuation runs.
type frameKind uint8

const (
	frameSeq       frameKind = iota + 1 // a statement sequence: stmts from pc
	frameSelect                         // a selection: pc is 1 once its branch ran
	frameRepeat                         // a repetition: selects again after each branch
	frameReplicate                      // a replication: rep
	frameCopy                           // a replication copy's guarded sequence: branches[0]
)

// frame is one level of a process's continuation.
type frame struct {
	stmts    []Stmt
	branches []Branch
	rep      *replication
	pc       int32
	kind     frameKind
}

// outcome is where one step left a process.
type outcome uint8

const (
	stepped  outcome = iota // more to run
	boundary                // a transaction finished: the worker may go to another process
	parked                  // parked: the record is its waker's until it wakes
	ended                   // the behavior is over
)

// The park protocol's states (proc.wake).
const (
	awake    int32 = iota // running or queued, not woken since armWake
	notified              // running or queued, woken since armWake
	asleep                // parked: the next Wake queues it
)

// Lookup implements expr.Scope: the process's parameters (none for a
// replication copy).
func (p *proc) Lookup(name string) (tuple.Value, bool) {
	for i, v := range p.args {
		if p.def.Params[i] == name {
			return v, true
		}
	}
	return tuple.Value{}, false
}

// AddTo implements expr.Lister.
func (p *proc) AddTo(env expr.Env) {
	for i, v := range p.args {
		env[p.def.Params[i]] = v
	}
}

var _ expr.Lister = (*proc)(nil)

// init sets up a fresh record to run its outermost frame.
func (p *proc) init(f frame) {
	p.frames = append(p.frameBuf[:0], f)
}

// Wake is the record's dataspace.Waker, called by deliveries to the
// subscriptions it armed, its offer's firing, a replication's last copy and
// Shutdown: it
// queues the record when parked, and otherwise notes the wake for the park
// about to come, which then does not sleep.
func (p *proc) Wake() {
	for {
		switch p.wake.Load() {
		case asleep:
			if p.wake.CompareAndSwap(asleep, awake) {
				p.rt.enqueue(p)
				return
			}
		case awake:
			if p.wake.CompareAndSwap(awake, notified) {
				return
			}
		default:
			return
		}
	}
}

// armWake forgets earlier wakes. A waiting step calls it before it looks at
// what could wake it, so a wake after the look is never lost: it makes park
// fail.
func (p *proc) armWake() { p.wake.Store(awake) }

// park puts the record to sleep unless it was woken since armWake, and
// reports whether it sleeps: the caller's worker must then leave the record
// alone — a wake may already have queued it for another.
func (p *proc) park() bool {
	if p.wake.CompareAndSwap(awake, asleep) {
		return true
	}
	p.wake.Store(awake)
	return false
}

// run steps p on the calling worker until it parks or ends, or yields the
// worker at a transaction boundary while other processes are queued.
func (p *proc) run() {
	for {
		switch p.step() {
		case parked:
			return
		case ended:
			p.vals = pattern.Block{}
			if p.copyOf != nil {
				p.copyOf.done(p)
			} else {
				p.rt.finish(p)
			}
			return
		case boundary:
			if p.rt.queued.Load() > 0 { // yield to the processes waiting for a worker
				p.rt.enqueue(p)
				return
			}
		}
	}
}

// step runs the top frame of the continuation by one statement, selection
// or replication round, or resumes the wait it is parked on.
func (p *proc) step() outcome {
	if len(p.frames) == 0 {
		return ended
	}
	f := &p.frames[len(p.frames)-1]
	switch f.kind {
	case frameSeq:
		if p.waiting {
			t, _ := transaction(f.stmts[f.pc-1])
			if t.Kind == Delayed {
				return p.delayed(t, true)
			}
			return p.consensus(t, true)
		}
		if int(f.pc) == len(f.stmts) {
			p.pop()
			return stepped
		}
		if err := p.rt.ctx.Err(); err != nil {
			return p.raise(err)
		}
		p.rt.sc.Yield(sched.PointProcStep)
		f.pc++
		return p.exec(f.stmts[f.pc-1])
	case frameSelect:
		if f.pc > 0 {
			p.pop() // its branch ran
			return stepped
		}
		return p.selection(f)
	case frameRepeat:
		return p.selection(f)
	case frameReplicate:
		return p.replicate(f.rep)
	default:
		return p.copyRound(f)
	}
}

func (p *proc) push(f frame) { p.frames = append(p.frames, f) }

// pushSeq pushes a statement sequence — none for an empty one, so a guarded
// sequence that is all guard (Sort's swap) keeps the frames shallow.
func (p *proc) pushSeq(stmts []Stmt) {
	if len(stmts) > 0 {
		p.push(frame{kind: frameSeq, stmts: stmts})
	}
}

func (p *proc) pop() {
	n := len(p.frames) - 1
	p.frames[n] = frame{}
	p.frames = p.frames[:n]
}

// raise unwinds the continuation for err: an exit ends the innermost
// repetition or replication copy, and anything else the whole behavior,
// which then ends with err.
func (p *proc) raise(err error) outcome {
	for len(p.frames) > 0 {
		kind := p.frames[len(p.frames)-1].kind
		p.pop()
		if (kind == frameRepeat || kind == frameCopy) && errors.Is(err, errExit) {
			return stepped
		}
	}
	p.err = err
	return ended
}

// transaction returns s as a transaction statement, and whether it is one.
func transaction(s Stmt) (Transact, bool) {
	switch t := s.(type) {
	case *Transact:
		return *t, true
	case Transact:
		return t, true
	}
	return Transact{}, false
}

// exec starts statement s: a transaction runs, a construct pushes its frame.
func (p *proc) exec(s Stmt) outcome {
	if t, ok := transaction(s); ok {
		return p.transact(t)
	}
	switch st := s.(type) {
	case Select:
		p.push(frame{kind: frameSelect, branches: st.Branches})
	case Repeat:
		p.push(frame{kind: frameRepeat, branches: st.Branches})
	case Replicate:
		for _, b := range st.Branches {
			if b.Guard.Kind != Immediate {
				return p.raise(ErrReplicationGuard)
			}
		}
		p.push(frame{kind: frameReplicate, rep: &replication{r: st, parent: p}})
	default:
		return p.raise(fmt.Errorf("process: unknown statement %T", s))
	}
	return stepped
}

// request assembles the txn.Request for a transaction statement under the
// process's current scope.
func (p *proc) request(t Transact) txn.Request {
	return txn.Request{
		Proc:    p.pid,
		View:    p.view,
		Env:     p.scope,
		Query:   t.Query,
		Asserts: t.Asserts,
		Export:  t.Export,
		Site:    t.Site,
		Pos:     t.Pos,
	}
}

// transact runs a transaction statement: an immediate one to its end, a
// delayed or consensus one until it commits or parks. A failed immediate
// transaction is not an error (the paper treats it as information available
// to the selection).
func (p *proc) transact(t Transact) outcome {
	switch t.Kind {
	case Delayed:
		return p.delayed(t, false)
	case Consensus:
		return p.consensus(t, false)
	default:
		a, err := p.immediate(t)
		if err != nil {
			return p.raise(err)
		}
		return p.committed(t.Actions, a)
	}
}

// immediate runs t as an immediate transaction — a statement, a guard or a
// replication copy's guard — with the worker off the pool's count while the
// commit may wait for an fsync (Runtime.beginSync).
func (p *proc) immediate(t Transact) (*txn.Answer, error) {
	a := txn.NewAnswer(p.request(t)).CutFrom(&p.vals)
	syncing := p.rt.beginSync()
	err := p.rt.engine.Exec(a, metrics.TxnImmediate)
	if syncing {
		p.rt.endSync()
	}
	if err != nil {
		a.Release()
		return nil, err
	}
	return a, nil
}

// committed runs a finished transaction's actions if it committed, then
// releases its answer.
func (p *proc) committed(actions []Action, a *txn.Answer) outcome {
	var err error
	if a.OK() {
		err = p.runActions(actions, a)
	}
	a.Release()
	if err != nil {
		return p.raise(err)
	}
	return boundary
}

// delayed runs the delayed statement t (woke false) or resumes it after a
// wake: it evaluates through the engine's non-blocking half of a delayed
// run (txn.Engine.Attempt) on the record's wait, and parks while the request
// stays blocked. Each evaluation takes an answer and, unless it commits,
// gives it back before the record parks.
func (p *proc) delayed(t Transact, woke bool) outcome {
	p.waiting = true
	sub := p.wait()
	for ; ; woke = true {
		p.armWake()
		if err := p.rt.ctx.Err(); err != nil {
			sub.Cancel()
			p.waiting = false
			p.state.Store(int32(StateRunning))
			return p.raise(err)
		}
		a := txn.NewAnswer(p.request(t)).CutFrom(&p.vals)
		syncing := p.rt.beginSync()
		done, err := p.rt.engine.Attempt(a, sub, p, p, woke)
		if syncing {
			p.rt.endSync()
		}
		if done {
			p.waiting = false
			p.state.Store(int32(StateRunning))
			if err != nil {
				a.Release()
				return p.raise(err)
			}
			return p.committed(t.Actions, a)
		}
		a.Release()
		p.state.Store(int32(StateBlockedDelayed))
		if p.park() {
			return parked
		}
	}
}

// AcceptDelta is the record's delta filter while a delayed statement waits
// on its subscription: the statement's (txn.Wakes), which is the top
// sequence frame's current one, under the record's scope. The store calls it
// only while that wait is armed, and the record changes neither its frames
// nor its scope until the wait is cancelled.
func (p *proc) AcceptDelta(d dataspace.Delta) bool {
	f := &p.frames[len(p.frames)-1]
	t, _ := transaction(f.stmts[f.pc-1])
	return txn.Wakes(d, t.Query, p.scope)
}

// wait returns the record's subscription, cut from the runtime's block on
// the record's first wait.
func (p *proc) wait() *dataspace.Subscription {
	if p.sub == nil {
		p.sub = p.rt.newSub()
	}
	return p.sub
}

// consensus runs the consensus statement t (woke false) or resumes it after
// a wake: it arms the record's offer and parks until the offer fires, or
// withdraws it when the runtime is cancelled.
func (p *proc) consensus(t Transact, woke bool) outcome {
	o := p.member.Offer()
	if !woke {
		reqs := [1]txn.Request{p.request(t)}
		if err := p.rearm(reqs[:]); err != nil {
			return p.raise(err)
		}
		p.waiting = true
		p.state.Store(int32(StateBlockedConsensus))
	}
	for {
		p.armWake()
		if o.Fired() {
			break
		}
		if err := p.rt.ctx.Err(); err != nil {
			if o.Withdraw() {
				p.waiting = false
				p.state.Store(int32(StateRunning))
				return p.raise(err)
			}
			break // fired while withdrawing: the effect is committed
		}
		if p.park() {
			return parked
		}
	}
	p.waiting = false
	p.state.Store(int32(StateRunning))
	a, err := o.Answer()
	if err != nil {
		return p.raise(err)
	}
	return p.committed(t.Actions, a)
}

// runActions executes the local actions of a committed transaction, reading
// its answer's rows in place. Actions run in list order; a let-constant is
// visible to the actions after it (the paper's `let N = α, (found, N)`
// idiom) and to all later statements of the process.
func (p *proc) runActions(actions []Action, a *txn.Answer) error {
	// The list's spawns register as they go and start together when it
	// ends, as SpawnGroup's do: a consensus community that one action list
	// spawns cannot reach a partial consensus before its last member exists.
	// Their records are cut from one block, as a group's are.
	n := 0
	for _, act := range actions {
		if _, ok := act.(*Spawn); ok {
			n += len(a.Rows())
		}
	}
	var block []proc
	var spawnBuf [8]*proc
	spawned := spawnBuf[:0]
	if n > 0 {
		p.rt.cons.Reserve(n)
		block = make([]proc, n)
		if n > len(spawnBuf) {
			spawned = make([]*proc, 0, n)
		}
		defer func() { p.rt.startGroup(spawned) }()
	}
	lets := 0 // the list's actions run so far, if one was a let
	withLets := func(s expr.Scope) expr.Scope {
		if lets == 0 {
			return s
		}
		return letScope{actions[:lets], p.scope, s}
	}
	for i, act := range actions {
		switch act := act.(type) {
		case Let:
			v, err := act.Expr.Eval(withLets(a.Scope()))
			if err != nil {
				return fmt.Errorf("let %s: %w", act.Name, err)
			}
			p.scope = expr.With(p.scope, act.Name, v)
			lets = i + 1
		case *Spawn:
			var buf [8]tuple.Value // the arguments, evaluated in place: Spawn copies them
			rows := a.Rows()
			for i := range rows {
				vals, err := evalArgs(buf[:0], act.Args, withLets(&rows[i]))
				if err != nil {
					return fmt.Errorf("spawn %s: %w", act.Type, err)
				}
				c := &block[len(spawned)]
				if err := p.rt.prepare(c, act.Type, vals); err != nil {
					return fmt.Errorf("spawn %s: %w", act.Type, err)
				}
				spawned = append(spawned, c)
			}
		case Exit:
			return errExit
		case Abort:
			return errAbort
		default:
			return fmt.Errorf("process: unknown action %T", act)
		}
	}
	return nil
}

// letScope layers an action list's let-constants over a solution: a name
// one of the list's actions so far lets resolves in the process's scope,
// which binds it to its latest value, and any other in the solution.
type letScope struct {
	done  []Action
	scope expr.Scope
	under expr.Scope
}

func (s letScope) Lookup(name string) (tuple.Value, bool) {
	for _, act := range s.done {
		if l, ok := act.(Let); ok && l.Name == name {
			return s.scope.Lookup(name)
		}
	}
	return s.under.Lookup(name)
}

// evalArgs appends the values of args under s to vals.
func evalArgs(vals []tuple.Value, args []expr.Expr, s expr.Scope) ([]tuple.Value, error) {
	for _, a := range args {
		v, err := a.Eval(s)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
