package lang

import (
	"context"
	"fmt"
	"slices"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// MainProcess is the definition name given to a program's main block.
const MainProcess = "main"

// Compiled is a compiled SDL program ready to install into a runtime.
type Compiled struct {
	Defs    []*process.Definition
	HasMain bool
}

// Compile translates a parsed program into process definitions.
func Compile(prog *Program) (*Compiled, error) {
	c := &compiler{arities: make(map[string]int)}
	c.size(prog)
	for _, pd := range prog.Processes {
		if pd.Name == MainProcess {
			return nil, errAt(pd.Pos, "process name %q is reserved", MainProcess)
		}
		if _, dup := c.arities[pd.Name]; dup {
			return nil, errAt(pd.Pos, "duplicate process %q", pd.Name)
		}
		c.arities[pd.Name] = len(pd.Params)
	}
	if prog.Main != nil {
		c.arities[MainProcess] = 0
	}

	out := &Compiled{HasMain: prog.Main != nil}
	for _, pd := range prog.Processes {
		def, err := c.compileProcess(pd)
		if err != nil {
			return nil, err
		}
		out.Defs = append(out.Defs, def)
	}
	if prog.Main != nil {
		sc := newScope(nil)
		collectLets(prog.Main.Body, sc)
		body, err := c.compileStmts(prog.Main.Body, sc)
		if err != nil {
			return nil, err
		}
		out.Defs = append(out.Defs, &process.Definition{Name: MainProcess, Body: body})
	}
	return out, nil
}

// CompileOptions is empty: compilation has nothing left to configure. It
// and CompileWith remain only because the end-to-end benchmark under perf/
// calls them; delete both once it calls Compile.
type CompileOptions struct{}

// CompileWith is Compile; see CompileOptions for why it remains.
func CompileWith(prog *Program, _ CompileOptions) (*Compiled, error) {
	return Compile(prog)
}

// Install registers every definition into the runtime.
func (c *Compiled) Install(rt *process.Runtime) error {
	for _, d := range c.Defs {
		if err := rt.Define(d); err != nil {
			return err
		}
	}
	return nil
}

// Run installs the program and executes its main block, waiting for the
// whole society to terminate.
func (c *Compiled) Run(ctx context.Context, rt *process.Runtime) error {
	if err := c.Install(rt); err != nil {
		return err
	}
	if !c.HasMain {
		return fmt.Errorf("lang: program has no main block")
	}
	if _, err := rt.Spawn(MainProcess); err != nil {
		return err
	}
	if err := rt.WaitCtx(ctx); err != nil {
		return err
	}
	if errs := rt.Errors(); len(errs) > 0 {
		return fmt.Errorf("lang: %d process error(s), first: %w", len(errs), errs[0])
	}
	return nil
}

// LoadAndRun parses, compiles, installs, and runs src on the runtime.
func LoadAndRun(ctx context.Context, rt *process.Runtime, src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	compiled, err := Compile(prog)
	if err != nil {
		return err
	}
	return compiled.Run(ctx, rt)
}

// Merge combines several parsed programs (e.g. a library file of process
// definitions plus a driver file with the main block) into one. Duplicate
// process names and multiple main blocks are rejected.
func Merge(progs ...*Program) (*Program, error) {
	out := &Program{}
	seen := map[string]bool{}
	for _, p := range progs {
		for _, pd := range p.Processes {
			if seen[pd.Name] {
				return nil, errAt(pd.Pos, "duplicate process %q across files", pd.Name)
			}
			seen[pd.Name] = true
			out.Processes = append(out.Processes, pd)
		}
		if p.Main != nil {
			if out.Main != nil {
				return nil, errAt(p.Main.Pos, "multiple main blocks across files")
			}
			out.Main = p.Main
		}
	}
	return out, nil
}

// compiler carries program-level context: the process arities, and the
// slabs every transaction statement, every transaction's query and
// assertion lists, every compiled pattern's fields, every literal
// assertion's tuple, every argument list, every literal expression and
// every spawn action are cut from.
type compiler struct {
	arities  map[string]int // process name -> parameter count
	txns     slab[process.Transact]
	patterns slab[pattern.Pattern]
	fields   slab[pattern.Field]
	values   slab[tuple.Value]
	args     slab[expr.Expr]
	lits     slab[expr.Lit]
	spawns   slab[process.Spawn]
}

// size sets the slabs' hints to the exact number of transaction statements
// (guards excluded), of query items and assertions, of pattern fields, of
// spawn and call arguments and of spawn actions in the program, and to
// bounds on its literal assertions' values
// (every assertion field) and on its literal expressions: every literal
// and identifier outside a pattern field of its own (those compile to
// pattern constants and variables, and a bound identifier to a variable).
func (c *compiler) size(prog *Program) {
	Walk(prog, func(n Node) bool {
		switch x := n.(type) {
		case *TxnNode:
			c.txns.hint++
		case *BranchNode:
			c.txns.hint-- // its guard
		case *QueryItem:
			c.patterns.hint++
		case *AssertAction:
			c.patterns.hint++
			c.values.hint += len(x.Pattern.Fields)
		case *PatternNode:
			c.fields.hint += len(x.Fields)
		case *ExprField:
			switch x.Expr.(type) {
			case *LitNode, *IdentNode, *VarNode:
				return false
			}
		case *SpawnAction:
			c.args.hint += len(x.Args)
			c.spawns.hint++
		case *CallNode:
			c.args.hint += len(x.Args)
		case *LitNode, *IdentNode:
			c.lits.hint++
		}
		return true
	})
}

// scope tracks which identifiers denote runtime bindings (process
// parameters, let-constants, quantified variables) as opposed to atoms.
type scope struct {
	bound map[string]bool
}

func newScope(params []string) *scope {
	s := &scope{bound: make(map[string]bool, len(params))}
	for _, p := range params {
		s.bound[p] = true
	}
	return s
}

func (s *scope) clone() *scope {
	cp := &scope{bound: make(map[string]bool, len(s.bound))}
	for k := range s.bound {
		cp.bound[k] = true
	}
	return cp
}

func (s *scope) bind(name string) { s.bound[name] = true }

func (s *scope) isBound(name string) bool { return s.bound[name] }

func (c *compiler) compileProcess(pd *ProcessDecl) (*process.Definition, error) {
	sc := newScope(pd.Params)
	// Let-constants become bound identifiers for the whole behavior (a
	// deliberate widening of the paper's sequential let scoping: a use
	// before the let binds fails at run time with an unbound variable).
	collectLets(pd.Body, sc)

	body, err := c.compileStmts(pd.Body, sc)
	if err != nil {
		return nil, err
	}
	def := &process.Definition{Name: pd.Name, Params: pd.Params, Body: body}

	if len(pd.Imports) > 0 || len(pd.Exports) > 0 {
		impClause, err := c.compileClause(pd.Imports, pd.Params)
		if err != nil {
			return nil, err
		}
		expClause, err := c.compileClause(pd.Exports, pd.Params)
		if err != nil {
			return nil, err
		}
		def.View = func(expr.Scope) view.View {
			return view.New(impClause, expClause)
		}
	}
	return def, nil
}

func collectLets(stmts []StmtNode, sc *scope) {
	for _, s := range stmts {
		Walk(s, func(n Node) bool {
			if l, ok := n.(*LetAction); ok {
				sc.bind(l.Name)
			}
			return true
		})
	}
}

// compileClause builds a view clause from rules; no rules = Everything.
func (c *compiler) compileClause(rules []ViewRule, params []string) (view.Clause, error) {
	if len(rules) == 0 {
		return view.Everything(), nil
	}
	matchers := make([]view.Matcher, 0, len(rules))
	for _, r := range rules {
		sc := newScope(params)
		// Variables in the rule's pattern are quantified over the rule.
		declarePatternVars(r.Pattern, sc)
		pat, err := c.compilePattern(r.Pattern, sc)
		if err != nil {
			return view.Clause{}, err
		}
		if r.Where == nil {
			matchers = append(matchers, view.Pat(pat))
			continue
		}
		where, err := c.compileExpr(r.Where, sc)
		if err != nil {
			return view.Clause{}, err
		}
		matchers = append(matchers, view.PatWhere(pat, where))
	}
	return view.Union(matchers...), nil
}

func declarePatternVars(p PatternNode, sc *scope) {
	for _, f := range p.Fields {
		if ef, ok := f.(*ExprField); ok {
			if v, ok := ef.Expr.(*VarNode); ok {
				sc.bind(v.Name)
			}
		}
	}
}

func (c *compiler) compileStmts(stmts []StmtNode, sc *scope) ([]process.Stmt, error) {
	out := make([]process.Stmt, 0, len(stmts))
	for _, s := range stmts {
		st, err := c.compileStmt(s, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (c *compiler) compileStmt(s StmtNode, sc *scope) (process.Stmt, error) {
	switch st := s.(type) {
	case *TxnNode:
		tx, err := c.compileTxn(st, sc)
		if err != nil {
			return nil, err
		}
		return c.txns.new(tx), nil
	case *SelNode:
		bs, err := c.compileBranches(st.Branches, sc, false)
		if err != nil {
			return nil, err
		}
		return process.Select{Branches: bs}, nil
	case *RepNode:
		bs, err := c.compileBranches(st.Branches, sc, false)
		if err != nil {
			return nil, err
		}
		return process.Repeat{Branches: bs}, nil
	case *ParNode:
		bs, err := c.compileBranches(st.Branches, sc, true)
		if err != nil {
			return nil, err
		}
		return process.Replicate{Branches: bs}, nil
	default:
		return nil, fmt.Errorf("lang: unknown statement %T", s)
	}
}

func (c *compiler) compileBranches(bs []BranchNode, sc *scope, replication bool) ([]process.Branch, error) {
	out := make([]process.Branch, 0, len(bs))
	for _, b := range bs {
		if replication && b.Guard.Tag != TagImmediate {
			return nil, errAt(b.Guard.Pos, "replication guards must be immediate ('->')")
		}
		guard, err := c.compileTxn(b.Guard, sc)
		if err != nil {
			return nil, err
		}
		body, err := c.compileStmts(b.Body, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, process.Branch{Guard: guard, Body: body})
	}
	return out, nil
}

func (c *compiler) compileTxn(t *TxnNode, sc *scope) (process.Transact, error) {
	// Per-transaction scope: declared variables plus ?vars in patterns.
	ts := sc.clone()
	for _, v := range t.DeclVars {
		ts.bind(v)
	}
	for _, item := range t.Items {
		declarePatternVars(item.Pattern, ts)
	}

	q := pattern.Query{Quant: pattern.Exists}
	if t.Quant == QuantForall {
		q.Quant = pattern.ForAll
	}
	q.Patterns = c.patterns.make(len(t.Items))[:0]
	for _, item := range t.Items {
		pat, err := c.compilePattern(item.Pattern, ts)
		if err != nil {
			return process.Transact{}, err
		}
		pat.Negated = item.Negated
		pat.Retract = item.Retract
		q.Patterns = append(q.Patterns, pat)
	}
	if t.Where != nil {
		where, err := c.compileExpr(t.Where, ts)
		if err != nil {
			return process.Transact{}, err
		}
		q.Test = where
	}

	// Static binding check: a variable referenced by the test query, an
	// assertion, or an action must be a parameter, a let-constant, or
	// bound by a positive (non-negated) pattern; variables appearing only
	// in negated patterns are wildcards of the negation and carry no
	// binding out of it.
	runtimeBound := sc.clone() // params + lets, before quantifier decls
	for _, pat := range q.Patterns {
		if pat.Negated {
			continue
		}
		for _, f := range pat.Fields {
			if f.Kind == pattern.FieldVar {
				runtimeBound.bind(f.Name)
			}
		}
	}
	checkBound := func(e expr.Expr, what string) error {
		if e == nil {
			return nil
		}
		for _, name := range e.Vars(nil) {
			if !runtimeBound.isBound(name) {
				return errAt(t.Pos,
					"variable %s in %s is not a parameter and no positive pattern binds it",
					name, what)
			}
		}
		return nil
	}
	if err := checkBound(q.Test, "the test query"); err != nil {
		return process.Transact{}, err
	}

	tx := process.Transact{Query: q, Pos: metrics.Pos{Line: int32(t.Pos.Line), Col: int32(t.Pos.Col)}}
	switch t.Tag {
	case TagDelayed:
		tx.Kind = process.Delayed
	case TagConsensus:
		tx.Kind = process.Consensus
	default:
		tx.Kind = process.Immediate
	}

	asserts := 0
	for _, a := range t.Actions {
		if _, ok := a.(*AssertAction); ok {
			asserts++
		}
	}
	tx.Asserts = c.patterns.make(asserts)[:0]
	tx.Actions = slices.Grow(tx.Actions, len(t.Actions)-asserts)
	for _, a := range t.Actions {
		switch act := a.(type) {
		case *AssertAction:
			pat, err := c.compilePattern(act.Pattern, ts)
			if err != nil {
				return process.Transact{}, err
			}
			consts := 0
			for i, f := range pat.Fields {
				switch f.Kind {
				case pattern.FieldConst:
					consts++
				case pattern.FieldWildcard:
					return process.Transact{}, errAt(act.Pattern.Pos,
						"assertion field %d is a wildcard; assertions must be ground", i+1)
				case pattern.FieldVar:
					if !runtimeBound.isBound(f.Name) {
						return process.Transact{}, errAt(act.Pattern.Pos,
							"variable %s in assertion is not a parameter and no positive pattern binds it", f.Name)
					}
				case pattern.FieldExpr:
					if err := checkBound(f.Expr, "an assertion"); err != nil {
						return process.Transact{}, err
					}
				}
			}
			if consts == len(pat.Fields) {
				// The same tuple under every solution: build it now.
				pat = pat.Literal(c.values.make(consts))
			}
			tx.Asserts = append(tx.Asserts, pat)
		case *LetAction:
			e, err := c.compileExpr(act.Expr, ts)
			if err != nil {
				return process.Transact{}, err
			}
			if err := checkBound(e, "a let action"); err != nil {
				return process.Transact{}, err
			}
			tx.Actions = append(tx.Actions, process.Let{Name: act.Name, Expr: e})
		case *SpawnAction:
			arity, ok := c.arities[act.Name]
			if !ok {
				return process.Transact{}, errAt(act.Pos, "spawn of undefined process %q", act.Name)
			}
			if arity != len(act.Args) {
				return process.Transact{}, errAt(act.Pos,
					"process %q takes %d argument(s), got %d", act.Name, arity, len(act.Args))
			}
			args := c.args.make(len(act.Args))
			for i, an := range act.Args {
				e, err := c.compileExpr(an, ts)
				if err != nil {
					return process.Transact{}, err
				}
				if err := checkBound(e, "a spawn argument"); err != nil {
					return process.Transact{}, err
				}
				args[i] = e
			}
			tx.Actions = append(tx.Actions, c.spawns.new(process.Spawn{Type: act.Name, Args: args}))
		case *ExitAction:
			tx.Actions = append(tx.Actions, process.Exit{})
		case *AbortAction:
			tx.Actions = append(tx.Actions, process.Abort{})
		case *SkipAction:
			// no-op
		default:
			return process.Transact{}, fmt.Errorf("lang: unknown action %T", a)
		}
	}

	return tx, nil
}

func (c *compiler) compilePattern(p PatternNode, sc *scope) (pattern.Pattern, error) {
	fields := c.fields.make(len(p.Fields))
	for i, f := range p.Fields {
		switch fn := f.(type) {
		case *WildField:
			fields[i] = pattern.W()
		case *ExprField:
			switch en := fn.Expr.(type) {
			case *VarNode:
				fields[i] = pattern.V(en.Name)
			case *IdentNode:
				if sc.isBound(en.Name) {
					fields[i] = pattern.V(en.Name)
				} else {
					fields[i] = pattern.C(tuple.Atom(en.Name))
				}
			case *LitNode:
				fields[i] = pattern.C(en.Value)
			default:
				e, err := c.compileExpr(fn.Expr, sc)
				if err != nil {
					return pattern.Pattern{}, err
				}
				fields[i] = pattern.E(e)
			}
		default:
			return pattern.Pattern{}, fmt.Errorf("lang: unknown field %T", f)
		}
	}
	return pattern.P(fields...), nil
}

var tokToOp = map[TokKind]expr.Op{
	TokPlus: expr.OpAdd, TokMinus: expr.OpSub, TokStar: expr.OpMul,
	TokSlash: expr.OpDiv, TokPercent: expr.OpMod,
	TokEQ: expr.OpEq, TokNE: expr.OpNe,
	TokLT: expr.OpLt, TokLE: expr.OpLe, TokGT: expr.OpGt, TokGE: expr.OpGe,
	TokAnd: expr.OpAnd, TokOr: expr.OpOr,
}

// OpFor maps an operator token kind to the runtime's expression operator.
// It is shared by the compiler and the static analyzer's constant folder.
func OpFor(k TokKind) (expr.Op, bool) {
	op, ok := tokToOp[k]
	return op, ok
}

func (c *compiler) compileExpr(e ExprNode, sc *scope) (expr.Expr, error) {
	switch en := e.(type) {
	case *LitNode:
		return c.lits.new(expr.Const(en.Value)), nil
	case *VarNode:
		return expr.V(en.Name), nil
	case *IdentNode:
		if sc.isBound(en.Name) {
			return expr.V(en.Name), nil
		}
		return c.lits.new(expr.Const(tuple.Atom(en.Name))), nil
	case *BinNode:
		op, ok := tokToOp[en.Op]
		if !ok {
			return nil, errAt(en.Pos, "unsupported operator %s", en.Op)
		}
		l, err := c.compileExpr(en.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(en.R, sc)
		if err != nil {
			return nil, err
		}
		return expr.Bin(op, l, r), nil
	case *UnNode:
		x, err := c.compileExpr(en.X, sc)
		if err != nil {
			return nil, err
		}
		if en.Op == TokNot {
			return expr.Not(x), nil
		}
		return expr.Neg(x), nil
	case *CallNode:
		if !expr.HasBuiltin(en.Name) {
			return nil, errAt(en.Pos, "unknown function %q", en.Name)
		}
		args := c.args.make(len(en.Args))
		for i, a := range en.Args {
			x, err := c.compileExpr(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = x
		}
		return expr.Fn(en.Name, args...), nil
	default:
		return nil, fmt.Errorf("lang: unknown expression %T", e)
	}
}
