package process

import (
	"context"
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
	// Site names the statement's source for the explain records (see
	// txn.Request.Site).
	Site string
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

func (Transact) stmt()  {}
func (Select) stmt()    {}
func (Repeat) stmt()    {}
func (Replicate) stmt() {}

// Action is a local action in a transaction's action list, executed after
// the transaction commits.
type Action interface{ action() }

// Let binds a constant in the process environment, evaluated under the
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

// proc is one live process instance.
type proc struct {
	rt     *Runtime
	pid    tuple.ProcessID
	def    *Definition
	view   view.View
	env    expr.Env
	selSeq uint64       // rotates the guard-attempt order across selections
	state  atomic.Int32 // State, for introspection
	member consensus.Member
	// sub is the subscription every blocking selection re-arms, made by the
	// first (awaitGuard).
	sub *dataspace.Subscription
}

// setState records the process's current activity and returns a restore
// function for the previous state.
func (p *proc) setState(s State) func() {
	prev := p.state.Swap(int32(s))
	return func() { p.state.Store(prev) }
}

// runSeq executes a statement sequence; control-flow sentinels propagate
// as errors.
func (p *proc) runSeq(ctx context.Context, stmts []Stmt) error {
	for _, s := range stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.rt.sc.Yield(sched.PointProcStep)
		if err := p.runStmt(ctx, s); err != nil {
			return err
		}
	}
	return nil
}

func (p *proc) runStmt(ctx context.Context, s Stmt) error {
	switch st := s.(type) {
	case Transact:
		_, err := p.runTransact(ctx, st)
		return err
	case Select:
		_, err := p.runSelect(ctx, st.Branches, false)
		return err
	case Repeat:
		return p.runRepeat(ctx, st.Branches)
	case Replicate:
		return p.runReplicate(ctx, st)
	default:
		return fmt.Errorf("process: unknown statement %T", s)
	}
}

// request assembles the txn.Request for a transaction statement under the
// current process environment.
func (p *proc) request(t Transact) txn.Request {
	return txn.Request{
		Proc:    p.pid,
		View:    p.view,
		Env:     p.env,
		Query:   t.Query,
		Asserts: t.Asserts,
		Export:  t.Export,
		Site:    t.Site,
	}
}

// runTransact executes a transaction statement. It returns whether the
// transaction committed; a failed immediate transaction is not an error
// (the paper treats it as information available to the selection).
func (p *proc) runTransact(ctx context.Context, t Transact) (bool, error) {
	var (
		a   *txn.Answer
		err error
	)
	switch t.Kind {
	case Delayed:
		restore := p.setState(StateBlockedDelayed)
		a, err = p.rt.engine.Run(ctx, p.request(t), metrics.TxnDelayed)
		restore()
	case Consensus:
		restore := p.setState(StateBlockedConsensus)
		a, err = p.rt.cons.Await(ctx, p.request(t))
		restore()
	default:
		a, err = p.rt.engine.Run(ctx, p.request(t), metrics.TxnImmediate)
	}
	if err != nil {
		return false, err
	}
	defer a.Release()
	if !a.OK() {
		return false, nil
	}
	return true, p.runActions(t.Actions, a)
}

// runActions executes the local actions of a committed transaction, reading
// its answer's rows in place. Actions run in list order; a let-constant is
// visible to the actions after it (the paper's `let N = α, (found, N)`
// idiom) and to all later statements of the process.
func (p *proc) runActions(actions []Action, a *txn.Answer) error {
	var lets expr.Env // accumulated let bindings from this action list
	withLets := func(s expr.Scope) expr.Scope {
		if len(lets) == 0 {
			return s
		}
		return letScope{lets, s}
	}
	for _, act := range actions {
		switch act := act.(type) {
		case Let:
			v, err := act.Expr.Eval(withLets(a.Scope()))
			if err != nil {
				return fmt.Errorf("let %s: %w", act.Name, err)
			}
			if lets == nil {
				lets = expr.Env{}
			}
			lets[act.Name] = v
			// The process environment is shared with in-flight requests
			// only within this goroutine; copy-on-write keeps issued
			// requests stable.
			env := p.env.Clone()
			env[act.Name] = v
			p.env = env
		case *Spawn:
			var buf [8]tuple.Value // the arguments, evaluated in place: Spawn copies them
			rows := a.Rows()
			for i := range rows {
				vals, err := evalArgs(buf[:0], act.Args, withLets(&rows[i]))
				if err != nil {
					return fmt.Errorf("spawn %s: %w", act.Type, err)
				}
				if _, err := p.rt.Spawn(act.Type, vals...); err != nil {
					return fmt.Errorf("spawn %s: %w", act.Type, err)
				}
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

// letScope layers an action list's let-constants over a solution.
type letScope struct {
	lets  expr.Env
	under expr.Scope
}

func (s letScope) Lookup(name string) (tuple.Value, bool) {
	if v, ok := s.lets[name]; ok {
		return v, true
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
