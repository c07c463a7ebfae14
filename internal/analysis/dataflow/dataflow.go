// Package dataflow is the interprocedural constant/lead propagation pass:
// a constraint-based fixpoint over the program's spawn graph that tracks,
// per process parameter and per let-constant, the finite set of values the
// name can take at run time (widening to "any" past a small cap), and per
// query variable, the values statically-known assert sites can bind it to.
//
// Its product is diagnostics only: a per-transaction Judgment that says,
// for every pattern and assertion lead, whether the issuing environment
// (parameters and lets) determines it — the condition under which the
// transaction engine's run-time footprint planner can plan the
// transaction — and a witness: the values that flow into a ground lead, or
// the binding chain from an unplannable lead back to the spawn or assert
// sites that feed it. sdlvet's dataflow check surfaces them. Nothing the
// pass computes reaches the compiler or the runtime.
package dataflow

import (
	"strings"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/tuple"
)

const (
	// maxRounds bounds the fixpoint; the monotone lattice (constant sets
	// capped at maxConsts) converges far earlier on real programs, and the
	// fuzz harness asserts the bound is never hit with Converged=false
	// while values are still changing unboundedly.
	maxRounds = 32
	// maxSites caps witness provenance kept per fact.
	maxSites = 3
	// maxCombos caps cartesian enumeration when folding an expression over
	// constant sets.
	maxCombos = 64
)

// Site is one provenance entry of a fact: where a value flowed from.
type Site struct {
	Proc string
	Pos  lang.Pos
	Desc string
}

// Fact is an abstract value with its (capped) provenance.
type Fact struct {
	Val   Value
	Sites []Site
}

func (f *Fact) join(v Value, s Site) bool {
	joined, changed := f.Val.Join(v)
	f.Val = joined
	if changed && len(f.Sites) < maxSites {
		for _, have := range f.Sites {
			if have.Proc == s.Proc && have.Pos == s.Pos {
				return changed
			}
		}
		f.Sites = append(f.Sites, s)
	}
	return changed
}

// Lead describes one lead (pattern or assertion) of a transaction.
type Lead struct {
	What   string // "pattern" or "assertion"
	Index  int    // 1-based position among the transaction's items
	Pos    lang.Pos
	Ground bool  // determined by the issuing environment (params + lets)
	Val    Value // abstract lead value (diagnostics)
	Why    string
}

// Judgment explains one transaction's leads.
type Judgment struct {
	Proc  string
	Node  *lang.TxnNode
	Leads []Lead
}

// Result is a completed analysis.
type Result struct {
	Judgments map[*lang.TxnNode]*Judgment
	// Params holds, per process, the per-parameter facts accumulated from
	// statically visible spawn sites. A Bottom fact means no spawn site in
	// the program feeds the parameter (e.g. host-spawned processes).
	Params map[string]map[string]*Fact
	// Rounds is the number of fixpoint rounds run; Converged reports that
	// the last round changed nothing (as opposed to hitting maxRounds).
	Rounds    int
	Converged bool
}

// --- program model ---

type procInfo struct {
	name     string
	params   []string
	bound    map[string]bool // params + behavior-wide lets
	letNames map[string]bool
	txns     []*txnCtx
}

type txnCtx struct {
	proc *procInfo
	node *lang.TxnNode
	vars map[string]bool // quantifier decls + pattern ?vars (compile scope)
	// queryFacts maps query variables to the values statically known
	// assert sites can bind them to; recomputed each round.
	queryFacts map[string]*Fact
}

type spawnEdge struct {
	site lang.SpawnSite
	from *txnCtx
	to   *procInfo
}

type assertSite struct {
	txn    *txnCtx
	pat    lang.PatternNode
	fields []Value // refreshed each round
}

type analysis struct {
	procs     []*procInfo
	byName    map[string]*procInfo
	byNode    map[*lang.TxnNode]*txnCtx
	spawns    []spawnEdge
	asserts   []*assertSite
	reachable map[string]bool

	params map[*procInfo][]*Fact          // per parameter index
	lets   map[*procInfo]map[string]*Fact // per let name
}

// Analyze runs the interprocedural pass over a parsed program.
func Analyze(prog *lang.Program) *Result {
	a := build(prog)
	rounds, converged := a.fixpoint()
	res := &Result{
		Judgments: make(map[*lang.TxnNode]*Judgment),
		Params:    make(map[string]map[string]*Fact, len(a.procs)),
		Rounds:    rounds,
		Converged: converged,
	}
	for _, p := range a.procs {
		pf := make(map[string]*Fact, len(p.params))
		for i, name := range p.params {
			pf[name] = a.params[p][i]
		}
		res.Params[p.name] = pf
		for _, t := range p.txns {
			res.Judgments[t.node] = a.judge(t)
		}
	}
	return res
}

func build(prog *lang.Program) *analysis {
	a := &analysis{
		byName: make(map[string]*procInfo),
		byNode: make(map[*lang.TxnNode]*txnCtx),
		params: make(map[*procInfo][]*Fact),
		lets:   make(map[*procInfo]map[string]*Fact),
	}
	add := func(name string, params []string, body []lang.StmtNode) {
		p := &procInfo{
			name:     name,
			params:   params,
			bound:    make(map[string]bool, len(params)),
			letNames: make(map[string]bool),
		}
		for _, prm := range params {
			p.bound[prm] = true
		}
		for _, s := range body {
			lang.Walk(s, func(n lang.Node) bool {
				if l, ok := n.(*lang.LetAction); ok {
					p.bound[l.Name] = true
					p.letNames[l.Name] = true
				}
				return true
			})
		}
		for _, s := range body {
			lang.Walk(s, func(n lang.Node) bool {
				tx, ok := n.(*lang.TxnNode)
				if !ok {
					return true
				}
				t := &txnCtx{proc: p, node: tx, vars: make(map[string]bool)}
				for _, v := range tx.DeclVars {
					t.vars[v] = true
				}
				for _, item := range tx.Items {
					for _, f := range item.Pattern.Fields {
						if ef, ok := f.(*lang.ExprField); ok {
							if v, ok := ef.Expr.(*lang.VarNode); ok {
								t.vars[v.Name] = true
							}
						}
					}
				}
				p.txns = append(p.txns, t)
				a.byNode[tx] = t
				for _, act := range tx.Actions {
					if as, ok := act.(*lang.AssertAction); ok {
						a.asserts = append(a.asserts, &assertSite{txn: t, pat: as.Pattern})
					}
				}
				return true
			})
		}
		a.procs = append(a.procs, p)
		a.byName[name] = p
		a.params[p] = make([]*Fact, len(params))
		for i := range params {
			a.params[p][i] = &Fact{}
		}
		a.lets[p] = make(map[string]*Fact)
		for name := range p.letNames {
			a.lets[p][name] = &Fact{}
		}
	}
	for _, pd := range prog.Processes {
		add(pd.Name, pd.Params, pd.Body)
	}
	if prog.Main != nil {
		add(lang.MainProcess, nil, prog.Main.Body)
	}
	for _, site := range lang.SpawnSites(prog) {
		from := a.byNode[site.Txn]
		to := a.byName[site.Callee]
		if from == nil || to == nil || len(site.Args) != len(to.params) {
			continue // undefined callee or arity mismatch; compile rejects
		}
		a.spawns = append(a.spawns, spawnEdge{site: site, from: from, to: to})
	}
	a.reachable = reach(a)
	return a
}

// reach computes the processes reachable from main through spawn edges;
// programs without a main block (library files) are all-reachable.
func reach(a *analysis) map[string]bool {
	out := make(map[string]bool, len(a.procs))
	root := a.byName[lang.MainProcess]
	if root == nil {
		for _, p := range a.procs {
			out[p.name] = true
		}
		return out
	}
	var visit func(p *procInfo)
	visit = func(p *procInfo) {
		if out[p.name] {
			return
		}
		out[p.name] = true
		for _, e := range a.spawns {
			if e.from.proc == p {
				visit(e.to)
			}
		}
	}
	visit(root)
	return out
}

// --- fixpoint ---

func (a *analysis) fixpoint() (rounds int, converged bool) {
	for rounds = 1; rounds <= maxRounds; rounds++ {
		changed := false
		// 1. Refresh assert-site field abstractions under current facts.
		for _, s := range a.asserts {
			if !a.reachable[s.txn.proc.name] {
				continue
			}
			env := a.envOf(s.txn)
			fields := make([]Value, len(s.pat.Fields))
			for i, f := range s.pat.Fields {
				ef, ok := f.(*lang.ExprField)
				if !ok {
					fields[i] = Top() // wildcard (compile rejects in asserts)
					continue
				}
				fields[i] = foldVal(ef.Expr, env)
			}
			s.fields = fields
		}
		// 2. Query-variable facts per transaction, from matching sites.
		for _, p := range a.procs {
			if !a.reachable[p.name] {
				continue
			}
			for _, t := range p.txns {
				t.queryFacts = a.solveQuery(t)
			}
		}
		// 3. Let facts: join each assignment's fold.
		for _, p := range a.procs {
			if !a.reachable[p.name] {
				continue
			}
			for _, t := range p.txns {
				env := a.envOf(t)
				for _, act := range t.node.Actions {
					l, ok := act.(*lang.LetAction)
					if !ok {
						continue
					}
					f := a.lets[p][l.Name]
					if f.join(foldVal(l.Expr, env), Site{Proc: p.name, Pos: l.Pos, Desc: "let " + l.Name}) {
						changed = true
					}
				}
			}
		}
		// 4. Spawn edges: actuals flow into callee parameters.
		for _, e := range a.spawns {
			if !a.reachable[e.from.proc.name] {
				continue
			}
			env := a.envOf(e.from)
			for i, arg := range e.site.Args {
				f := a.params[e.to][i]
				if f.join(foldVal(arg, env), Site{Proc: e.from.proc.name, Pos: e.site.Pos, Desc: "spawn " + e.to.name}) {
					changed = true
				}
			}
		}
		if !changed {
			return rounds, true
		}
	}
	return maxRounds, false
}

// envOf builds the abstract environment lookup for a transaction: issuing
// names (parameters, then lets) shadow query variables, mirroring the
// runtime's treatment of already-bound variables as equality tests.
func (a *analysis) envOf(t *txnCtx) func(string) (Value, bool) {
	p := t.proc
	return func(name string) (Value, bool) {
		for i, prm := range p.params {
			if prm == name {
				return a.params[p][i].Val, true
			}
		}
		if p.letNames[name] {
			return a.lets[p][name].Val, true
		}
		if t.vars[name] {
			if t.queryFacts != nil {
				if f := t.queryFacts[name]; f != nil {
					return f.Val, true
				}
			}
			return Bottom(), true
		}
		return Value{}, false // unbound identifier: an atom
	}
}

// solveQuery derives facts for the transaction's query variables from the
// assert sites whose shape is compatible with each positive pattern.
func (a *analysis) solveQuery(t *txnCtx) map[string]*Fact {
	facts := make(map[string]*Fact)
	issuing := a.issuingEnv(t.proc)
	for _, item := range t.node.Items {
		if item.Negated {
			continue // negated patterns bind nothing
		}
		arity := len(item.Pattern.Fields)
		cons := make([]*tuple.Value, arity) // known constraints of the pattern
		varAt := make(map[int]string)
		for i, f := range item.Pattern.Fields {
			ef, ok := f.(*lang.ExprField)
			if !ok {
				continue // wildcard: no constraint, no binding
			}
			if name, isVar := queryVarRef(ef.Expr, t); isVar {
				varAt[i] = name
				continue
			}
			if v, ok := foldVal(ef.Expr, issuing).Single(); ok {
				c := v
				cons[i] = &c
			}
		}
		if len(varAt) == 0 {
			continue
		}
		for _, s := range a.asserts {
			if !a.reachable[s.txn.proc.name] || len(s.fields) != arity {
				continue
			}
			ok := true
			for i, c := range cons {
				if c == nil {
					continue
				}
				if s.fields[i].IsBottom() || !s.fields[i].Contains(*c) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i, name := range varAt {
				f := facts[name]
				if f == nil {
					f = &Fact{}
					facts[name] = f
				}
				f.join(s.fields[i], Site{
					Proc: s.txn.proc.name,
					Pos:  s.pat.Pos,
					Desc: "assert " + renderPattern(s.pat),
				})
			}
		}
	}
	return facts
}

// issuingEnv is envOf without query-variable facts: the environment the
// runtime evaluates leads under.
func (a *analysis) issuingEnv(p *procInfo) func(string) (Value, bool) {
	return func(name string) (Value, bool) {
		for i, prm := range p.params {
			if prm == name {
				return a.params[p][i].Val, true
			}
		}
		if p.letNames[name] {
			return a.lets[p][name].Val, true
		}
		return Value{}, false
	}
}

// queryVarRef reports whether e is a direct reference to one of the
// transaction's query variables (a ?var or a bare identifier the compiler
// binds to a quantifier declaration), i.e. a field that binds rather than
// constrains. Names in the issuing environment are equality tests, not
// bindings.
func queryVarRef(e lang.ExprNode, t *txnCtx) (string, bool) {
	var name string
	switch en := e.(type) {
	case *lang.VarNode:
		name = en.Name
	case *lang.IdentNode:
		name = en.Name
	default:
		return "", false
	}
	if t.proc.bound[name] {
		return "", false
	}
	return name, t.vars[name]
}

func renderPattern(p lang.PatternNode) string {
	parts := make([]string, len(p.Fields))
	for i, f := range p.Fields {
		ef, ok := f.(*lang.ExprField)
		if !ok {
			parts[i] = "*"
			continue
		}
		switch en := ef.Expr.(type) {
		case *lang.LitNode:
			parts[i] = en.Value.String()
		case *lang.IdentNode:
			parts[i] = en.Name
		case *lang.VarNode:
			parts[i] = "?" + en.Name
		default:
			parts[i] = "…"
		}
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// --- abstract folding ---

// foldVal folds an expression to an abstract value under the lookup
// environment: Bottom if any referenced fact is still Bottom, Top on any
// unfoldable operand or enumeration overflow, otherwise the (capped)
// elementwise image computed through the runtime's own evaluator.
func foldVal(e lang.ExprNode, look func(string) (Value, bool)) Value {
	switch en := e.(type) {
	case *lang.LitNode:
		return Of(en.Value)
	case *lang.IdentNode:
		if v, ok := look(en.Name); ok {
			return v
		}
		return Of(tuple.Atom(en.Name))
	case *lang.VarNode:
		if v, ok := look(en.Name); ok {
			return v
		}
		return Top()
	case *lang.UnNode:
		x := foldVal(en.X, look)
		return mapVals([]Value{x}, func(vs []tuple.Value) (tuple.Value, error) {
			if en.Op == lang.TokNot {
				return expr.Not(expr.Const(vs[0])).Eval(nil)
			}
			return expr.Neg(expr.Const(vs[0])).Eval(nil)
		})
	case *lang.BinNode:
		op, ok := lang.OpFor(en.Op)
		if !ok {
			return Top()
		}
		l, r := foldVal(en.L, look), foldVal(en.R, look)
		return mapVals([]Value{l, r}, func(vs []tuple.Value) (tuple.Value, error) {
			return expr.Bin(op, expr.Const(vs[0]), expr.Const(vs[1])).Eval(nil)
		})
	case *lang.CallNode:
		if !expr.HasBuiltin(en.Name) {
			return Top()
		}
		args := make([]Value, len(en.Args))
		for i, an := range en.Args {
			args[i] = foldVal(an, look)
		}
		return mapVals(args, func(vs []tuple.Value) (tuple.Value, error) {
			ce := make([]expr.Expr, len(vs))
			for i, v := range vs {
				ce[i] = expr.Const(v)
			}
			return expr.Fn(en.Name, ce...).Eval(nil)
		})
	}
	return Top()
}

// mapVals applies fn over the cartesian product of the operand constant
// sets. Bottom operands yield Bottom (no producer yet); Top operands,
// evaluation errors, and enumeration overflow yield Top.
func mapVals(operands []Value, fn func([]tuple.Value) (tuple.Value, error)) Value {
	combos := 1
	for _, v := range operands {
		if v.IsBottom() {
			return Bottom()
		}
		if v.IsTop() {
			return Top()
		}
		combos *= len(v.Consts())
		if combos > maxCombos {
			return Top()
		}
	}
	out := Bottom()
	pick := make([]tuple.Value, len(operands))
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(operands) {
			v, err := fn(pick)
			if err != nil {
				out = Top()
				return false
			}
			out, _ = out.Join(Of(v))
			return !out.IsTop()
		}
		for _, c := range operands[i].Consts() {
			pick[i] = c
			if !walk(i + 1) {
				return false
			}
		}
		return true
	}
	walk(0)
	return out
}
