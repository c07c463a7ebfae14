// Package langtest generates random well-formed SDL ASTs for property
// tests: the front-end's format/parse fixpoint test and the static
// analyzer's fuzz harness both drive it from a seeded rand source, so a
// failure reproduces from its seed alone.
package langtest

import (
	"math/rand"

	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// Gen is a deterministic random AST generator.
type Gen struct{ rng *rand.Rand }

// NewGen returns a generator driven by rng.
func NewGen(rng *rand.Rand) *Gen { return &Gen{rng: rng} }

func (g *Gen) ident() string {
	names := []string{"alpha", "beta", "k", "j", "node", "value"}
	return names[g.rng.Intn(len(names))]
}

func (g *Gen) varName() string {
	names := []string{"a", "b", "v", "x", "y"}
	return names[g.rng.Intn(len(names))]
}

// Expr generates an expression of at most the given depth.
func (g *Gen) Expr(depth int) lang.ExprNode {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return &lang.LitNode{Value: tuple.Int(int64(g.rng.Intn(100) - 50))}
		case 1:
			return &lang.LitNode{Value: tuple.Bool(g.rng.Intn(2) == 0)}
		case 2:
			return &lang.VarNode{Name: g.varName()}
		default:
			return &lang.IdentNode{Name: g.ident()}
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		ops := []lang.TokKind{lang.TokPlus, lang.TokMinus, lang.TokStar, lang.TokSlash, lang.TokPercent}
		return &lang.BinNode{Op: ops[g.rng.Intn(len(ops))],
			L: g.Expr(depth - 1), R: g.Expr(depth - 1)}
	case 1:
		ops := []lang.TokKind{lang.TokEQ, lang.TokNE, lang.TokLT, lang.TokLE, lang.TokGT, lang.TokGE}
		return &lang.BinNode{Op: ops[g.rng.Intn(len(ops))],
			L: g.Expr(depth - 1), R: g.Expr(depth - 1)}
	case 2:
		ops := []lang.TokKind{lang.TokAnd, lang.TokOr}
		return &lang.BinNode{Op: ops[g.rng.Intn(len(ops))],
			L: g.Expr(depth - 1), R: g.Expr(depth - 1)}
	case 3:
		if g.rng.Intn(2) == 0 {
			return &lang.UnNode{Op: lang.TokNot, X: g.Expr(depth - 1)}
		}
		return &lang.UnNode{Op: lang.TokMinus, X: g.Expr(depth - 1)}
	case 4:
		return &lang.CallNode{Name: "min", Args: []lang.ExprNode{g.Expr(depth - 1), g.Expr(depth - 1)}}
	default:
		return g.Expr(0)
	}
}

// Pattern generates a tuple pattern of 1–3 fields.
func (g *Gen) Pattern() lang.PatternNode {
	n := 1 + g.rng.Intn(3)
	fields := make([]lang.FieldNode, n)
	for i := range fields {
		switch g.rng.Intn(4) {
		case 0:
			fields[i] = &lang.WildField{}
		case 1:
			fields[i] = &lang.ExprField{Expr: &lang.VarNode{Name: g.varName()}}
		case 2:
			fields[i] = &lang.ExprField{Expr: &lang.IdentNode{Name: g.ident()}}
		default:
			fields[i] = &lang.ExprField{Expr: g.Expr(1)}
		}
	}
	return lang.PatternNode{Fields: fields}
}

// Txn generates a transaction; allowBlocking admits delayed and consensus
// tags.
func (g *Gen) Txn(allowBlocking bool) *lang.TxnNode {
	t := &lang.TxnNode{Tag: lang.TagImmediate}
	if allowBlocking {
		t.Tag = []lang.TagKind{lang.TagImmediate, lang.TagDelayed, lang.TagConsensus}[g.rng.Intn(3)]
	}
	switch g.rng.Intn(3) {
	case 0: // pattern query
		if g.rng.Intn(3) == 0 { // quantifier prefix
			t.Quant = []lang.QuantKind{lang.QuantExists, lang.QuantForall}[g.rng.Intn(2)]
			for i := 1 + g.rng.Intn(2); i > 0; i-- {
				t.DeclVars = append(t.DeclVars, g.varName())
			}
		}
		n := 1 + g.rng.Intn(2)
		for i := 0; i < n; i++ {
			item := lang.QueryItem{Pattern: g.Pattern()}
			switch g.rng.Intn(3) {
			case 0:
				item.Retract = true
			case 1:
				item.Negated = true
			}
			t.Items = append(t.Items, item)
		}
		if g.rng.Intn(2) == 0 {
			t.Where = g.Expr(2)
		}
	case 1: // test-only query
		t.Where = g.Expr(2)
	default: // empty query
	}
	// Actions.
	for i := g.rng.Intn(3); i > 0; i-- {
		switch g.rng.Intn(5) {
		case 0:
			t.Actions = append(t.Actions, &lang.AssertAction{Pattern: g.Pattern()})
		case 1:
			t.Actions = append(t.Actions, &lang.LetAction{Name: "N", Expr: g.Expr(1)})
		case 2:
			t.Actions = append(t.Actions, &lang.ExitAction{})
		case 3:
			t.Actions = append(t.Actions, &lang.SkipAction{})
		default:
			t.Actions = append(t.Actions, &lang.AbortAction{})
		}
	}
	return t
}

// Stmt generates a statement of at most the given nesting depth.
func (g *Gen) Stmt(depth int) lang.StmtNode {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.Txn(true)
	}
	branches := make([]lang.BranchNode, 1+g.rng.Intn(2))
	for i := range branches {
		branches[i] = lang.BranchNode{Guard: g.Txn(true)}
		for j := g.rng.Intn(2); j > 0; j-- {
			branches[i].Body = append(branches[i].Body, g.Stmt(depth-1))
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		return &lang.SelNode{Branches: branches}
	case 1:
		return &lang.RepNode{Branches: branches}
	default:
		// Replication guards must be immediate for the compiler, but the
		// formatter/parser round trip does not compile, so any tag is fine
		// syntactically; still keep it immediate for realism.
		for i := range branches {
			branches[i].Guard.Tag = lang.TagImmediate
		}
		return &lang.ParNode{Branches: branches}
	}
}

// Program generates a whole program: 0–2 process declarations (with
// optional import rules) and a main block.
func (g *Gen) Program() *lang.Program {
	p := &lang.Program{}
	for i := g.rng.Intn(3); i > 0; i-- {
		pd := &lang.ProcessDecl{
			Name:   []string{"Alpha", "Beta", "Gamma"}[g.rng.Intn(3)] + string(rune('A'+g.rng.Intn(26))),
			Params: []string{"k", "j"}[:g.rng.Intn(3)],
		}
		for r := g.rng.Intn(3); r > 0; r-- {
			rule := lang.ViewRule{Pattern: g.Pattern()}
			if g.rng.Intn(2) == 0 {
				rule.Where = g.Expr(1)
			}
			pd.Imports = append(pd.Imports, rule)
		}
		for s := 1 + g.rng.Intn(3); s > 0; s-- {
			pd.Body = append(pd.Body, g.Stmt(2))
		}
		p.Processes = append(p.Processes, pd)
	}
	m := &lang.MainDecl{}
	for s := 1 + g.rng.Intn(3); s > 0; s-- {
		m.Body = append(m.Body, g.Stmt(2))
	}
	p.Main = m
	return p
}
