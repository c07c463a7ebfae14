package lang

import (
	"slices"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// Parser is a recursive-descent parser over a token stream. It cuts every
// node and every child list from the program's slabs (nodes), building
// each list on a scratch stack first so that it lands at its exact size.
type Parser struct {
	toks []Token
	pos  int
	n    nodes
	s    *scratch
}

// nodes is one program's storage: a slab per node type and per list
// element type.
type nodes struct {
	lits     slab[LitNode]
	idents   slab[IdentNode]
	vars     slab[VarNode]
	bins     slab[BinNode]
	uns      slab[UnNode]
	calls    slab[CallNode]
	wilds    slab[WildField]
	efields  slab[ExprField]
	asserts  slab[AssertAction]
	lets     slab[LetAction]
	spawns   slab[SpawnAction]
	exits    slab[ExitAction]
	aborts   slab[AbortAction]
	skips    slab[SkipAction]
	txns     slab[TxnNode]
	sels     slab[SelNode]
	reps     slab[RepNode]
	pars     slab[ParNode]
	procs    slab[ProcessDecl]
	fields   slab[FieldNode]
	exprs    slab[ExprNode]
	actions  slab[ActionNode]
	stmts    slab[StmtNode]
	items    slab[QueryItem]
	branches slab[BranchNode]
	rules    slab[ViewRule]
	names    slab[string]
	poss     slab[Pos]
	decls    slab[*ProcessDecl]
}

// size sets every slab's hint from the token histogram: an upper bound on
// what the tokens can produce, except for binary nodes, where '<' and '>'
// also delimit patterns and only their imbalance surely counts comparisons.
func (n *nodes) size(toks []Token) {
	var k [tokKinds]int
	heads, bodies := 0, 0     // '<' before and after a transaction tag
	inArgs, argIdents := 0, 0 // ',' and identifiers inside parentheses
	decls := 0                // quantifier declarations
	afterTag, inDecl, depth := false, false, 0
	for _, t := range toks {
		k[t.Kind]++
		switch t.Kind {
		case TokArrow, TokDblArrow, TokConsArrow:
			afterTag = true
		case TokSemicolon, TokPipe, TokLBrace, TokRBrace, TokEnd:
			afterTag = false
		case TokLT:
			if afterTag {
				bodies++
			} else {
				heads++
			}
		case TokLParen:
			depth++
		case TokRParen:
			depth--
		case TokComma:
			if depth > 0 {
				inArgs++
			}
		case TokExists, TokForall:
			inDecl = true
		case TokColon:
			inDecl = false
		}
		if t.Kind == TokIdent || t.Kind == TokVar {
			if inDecl {
				decls++
			} else if depth > 0 {
				argIdents++
			}
		}
	}
	n.lits.hint = k[TokInt] + k[TokFloat] + k[TokString] + k[TokTrue] + k[TokFalse]
	n.idents.hint = k[TokIdent]
	n.vars.hint = k[TokVar]
	n.bins.hint = k[TokOr] + k[TokAnd] + k[TokEQ] + k[TokNE] + k[TokLE] + k[TokGE] +
		k[TokPlus] + k[TokMinus] + k[TokStar] + k[TokSlash] + k[TokPercent] + max(k[TokLT]-k[TokGT], k[TokGT]-k[TokLT])
	n.uns.hint = k[TokMinus] + k[TokNot]
	n.calls.hint = k[TokLParen] - k[TokProcess] - k[TokSpawn]
	n.wilds.hint = k[TokStar]
	n.efields.hint = k[TokLT] + k[TokComma]
	n.asserts.hint = bodies
	n.lets.hint = k[TokLet]
	n.spawns.hint = k[TokSpawn]
	n.exits.hint = k[TokExit]
	n.aborts.hint = k[TokAbort]
	n.skips.hint = k[TokSkip]
	actions := k[TokLet] + k[TokSpawn] + k[TokExit] + k[TokAbort] + k[TokSkip]
	// A tagless transaction (statement-level action sugar) starts a
	// statement: after ';', 'behavior' or 'main'.
	n.txns.hint = k[TokArrow] + k[TokDblArrow] + k[TokConsArrow] +
		min(actions, k[TokSemicolon]+k[TokBehavior]+k[TokMain])
	n.sels.hint = k[TokSel]
	n.reps.hint = k[TokRep]
	n.pars.hint = k[TokPar]
	n.procs.hint = k[TokProcess]
	n.fields.hint = k[TokLT] + k[TokComma]
	n.exprs.hint = k[TokLParen] + inArgs
	n.actions.hint = bodies + actions
	n.stmts.hint = n.txns.hint + k[TokSel] + k[TokRep] + k[TokPar]
	n.items.hint = heads
	n.branches.hint = k[TokLBrace] + k[TokPipe]
	n.rules.hint = heads
	n.names.hint = argIdents + decls // parameters and declared variables
	n.poss.hint = decls
	n.decls.hint = k[TokProcess]
}

// scratch holds what a parse needs only while it runs: the token buffer,
// and the stacks lists are built on, one per element type. A list pushes
// its entries above the base it found and cuts them into the slab when it
// ends, so lists nest (a call argument holding a call). The scratch
// outlives one parse: spare hands it to the next, and it stops allocating
// once it has grown to the longest source and list seen.
type scratch struct {
	toks     []Token
	fields   []FieldNode
	exprs    []ExprNode
	actions  []ActionNode
	stmts    []StmtNode
	items    []QueryItem
	branches []BranchNode
	rules    []ViewRule
	names    []string
	poss     []Pos
	decls    []*ProcessDecl
}

// Parse lexes and parses an SDL source file.
func Parse(src string) (*Program, error) {
	s := takeScratch()
	toks, err := lexInto(slices.Grow(s.toks[:0], len(src)+1), src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, s: s}
	p.n.size(toks)
	prog, err := p.parseProgram()
	if err == nil {
		// Every list of a successful parse was cut, so the stacks are
		// empty; a failed parse drops its scratch with the partial lists.
		clear(toks)
		s.toks = toks[:0]
		putScratch(s)
	}
	return prog, err
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) peekKind(n int) TokKind {
	if p.pos+n >= len(p.toks) {
		return TokEOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, errAt(p.cur().Pos, "expected %s, found %s %q",
			k, p.cur().Kind, p.cur().Text)
	}
	return p.next(), nil
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	base := len(p.s.decls)
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokProcess:
			decl, err := p.parseProcess()
			if err != nil {
				return nil, err
			}
			p.s.decls = append(p.s.decls, decl)
		case TokMain:
			if prog.Main != nil {
				return nil, errAt(p.cur().Pos, "duplicate main block")
			}
			m, err := p.parseMain()
			if err != nil {
				return nil, err
			}
			prog.Main = m
		default:
			return nil, errAt(p.cur().Pos, "expected 'process' or 'main', found %s", p.cur().Kind)
		}
	}
	prog.Processes = cut(&p.n.decls, &p.s.decls, base)
	return prog, nil
}

func (p *Parser) parseProcess() (*ProcessDecl, error) {
	start, _ := p.expect(TokProcess)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	base := len(p.s.names)
	for !p.at(TokRParen) {
		id, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		p.s.names = append(p.s.names, id.Text)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}

	decl := p.n.procs.new(ProcessDecl{Name: name.Text, Params: cut(&p.n.names, &p.s.names, base), Pos: start.Pos})
	if p.accept(TokImport) {
		rules, err := p.parseViewRules()
		if err != nil {
			return nil, err
		}
		decl.Imports = rules
	}
	if p.accept(TokExport) {
		rules, err := p.parseViewRules()
		if err != nil {
			return nil, err
		}
		decl.Exports = rules
	}
	if _, err := p.expect(TokBehavior); err != nil {
		return nil, err
	}
	body, err := p.parseStmtList()
	if err != nil {
		return nil, err
	}
	decl.Body = body
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	return decl, nil
}

func (p *Parser) parseMain() (*MainDecl, error) {
	start, _ := p.expect(TokMain)
	body, err := p.parseStmtList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	return &MainDecl{Body: body, Pos: start.Pos}, nil
}

// parseViewRules parses `pattern [where expr] {; pattern [where expr]}`,
// stopping before export/behavior.
func (p *Parser) parseViewRules() ([]ViewRule, error) {
	base := len(p.s.rules)
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		rule := ViewRule{Pattern: pat, Pos: pat.Pos}
		if p.accept(TokWhere) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rule.Where = e
		}
		p.s.rules = append(p.s.rules, rule)
		if !p.accept(TokSemicolon) {
			break
		}
		if p.at(TokExport) || p.at(TokBehavior) {
			break
		}
	}
	return cut(&p.n.rules, &p.s.rules, base), nil
}

// parseStmtList parses statements separated by ';' until end/}/|/EOF.
func (p *Parser) parseStmtList() ([]StmtNode, error) {
	base := len(p.s.stmts)
	for !p.at(TokEnd) && !p.at(TokRBrace) && !p.at(TokPipe) && !p.at(TokEOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.s.stmts = append(p.s.stmts, s)
		if !p.accept(TokSemicolon) {
			break
		}
	}
	return cut(&p.n.stmts, &p.s.stmts, base), nil
}

func (p *Parser) parseStmt() (StmtNode, error) {
	switch p.cur().Kind {
	case TokSel:
		pos := p.next().Pos
		branches, err := p.parseBranchBlock()
		if err != nil {
			return nil, err
		}
		return p.n.sels.new(SelNode{Branches: branches, Pos: pos}), nil
	case TokRep:
		pos := p.next().Pos
		branches, err := p.parseBranchBlock()
		if err != nil {
			return nil, err
		}
		return p.n.reps.new(RepNode{Branches: branches, Pos: pos}), nil
	case TokPar:
		pos := p.next().Pos
		branches, err := p.parseBranchBlock()
		if err != nil {
			return nil, err
		}
		return p.n.pars.new(ParNode{Branches: branches, Pos: pos}), nil
	case TokSpawn, TokLet, TokExit, TokAbort, TokSkip:
		// Statement-level action sugar: `spawn P(…)` desugars to an
		// unconditional immediate transaction carrying the action list.
		t := p.n.txns.new(TxnNode{Tag: TagImmediate, Pos: p.cur().Pos})
		base := len(p.s.actions)
		for {
			a, err := p.parseAction()
			if err != nil {
				return nil, err
			}
			p.s.actions = append(p.s.actions, a)
			if !p.accept(TokComma) {
				t.Actions = cut(&p.n.actions, &p.s.actions, base)
				return t, nil
			}
		}
	default:
		return p.parseTxn()
	}
}

func (p *Parser) parseBranchBlock() ([]BranchNode, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	base := len(p.s.branches)
	for {
		guard, err := p.parseTxn()
		if err != nil {
			return nil, err
		}
		branch := BranchNode{Guard: guard}
		if p.accept(TokSemicolon) {
			body, err := p.parseStmtList()
			if err != nil {
				return nil, err
			}
			branch.Body = body
		}
		p.s.branches = append(p.s.branches, branch)
		if !p.accept(TokPipe) {
			break
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return cut(&p.n.branches, &p.s.branches, base), nil
}

// parseTxn parses `[quant [vars] :] query tag [actions]`.
func (p *Parser) parseTxn() (*TxnNode, error) {
	t := p.n.txns.new(TxnNode{Pos: p.cur().Pos})

	// Quantifier prefix.
	if p.at(TokExists) || p.at(TokForall) {
		if p.at(TokExists) {
			t.Quant = QuantExists
		} else {
			t.Quant = QuantForall
		}
		p.next()
		names, poss := len(p.s.names), len(p.s.poss)
		for p.at(TokIdent) || p.at(TokVar) {
			tok := p.next()
			p.s.names = append(p.s.names, tok.Text)
			p.s.poss = append(p.s.poss, tok.Pos)
			if !p.accept(TokComma) {
				break
			}
		}
		t.DeclVars = cut(&p.n.names, &p.s.names, names)
		t.DeclVarPos = cut(&p.n.poss, &p.s.poss, poss)
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
	}

	// Query body.
	if err := p.parseQueryBody(t); err != nil {
		return nil, err
	}

	// Tag.
	switch p.cur().Kind {
	case TokArrow:
		t.Tag = TagImmediate
	case TokDblArrow:
		t.Tag = TagDelayed
	case TokConsArrow:
		t.Tag = TagConsensus
	default:
		return nil, errAt(p.cur().Pos, "expected transaction tag ->, => or @>, found %s", p.cur().Kind)
	}
	p.next()

	// Action list (possibly empty: ends at ; | } end EOF).
	base := len(p.s.actions)
	for {
		switch p.cur().Kind {
		case TokSemicolon, TokPipe, TokRBrace, TokEnd, TokEOF:
			if len(p.s.actions) > base {
				return nil, errAt(p.cur().Pos, "expected action after ','")
			}
			return t, nil
		}
		a, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		p.s.actions = append(p.s.actions, a)
		if !p.accept(TokComma) {
			t.Actions = cut(&p.n.actions, &p.s.actions, base)
			return t, nil
		}
	}
}

// parseQueryBody parses the binding query and test query. Three forms:
// empty (tag follows immediately), a pattern list with optional where, or
// a bare predicate expression.
func (p *Parser) parseQueryBody(t *TxnNode) error {
	switch p.cur().Kind {
	case TokArrow, TokDblArrow, TokConsArrow:
		return nil // empty query: unconditionally true
	}
	isPattern := p.at(TokLT) || (p.at(TokNot) && p.peekKind(1) == TokLT)
	if !isPattern {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		t.Where = e
		return nil
	}
	base := len(p.s.items)
	for {
		item := QueryItem{Pos: p.cur().Pos}
		if p.accept(TokNot) {
			item.Negated = true
		}
		pat, err := p.parsePattern()
		if err != nil {
			return err
		}
		item.Pattern = pat
		if p.accept(TokBang) {
			if item.Negated {
				return errAt(pat.Pos, "a negated pattern cannot be retract-tagged")
			}
			item.Retract = true
		}
		p.s.items = append(p.s.items, item)
		if !p.accept(TokComma) {
			break
		}
	}
	t.Items = cut(&p.n.items, &p.s.items, base)
	if p.accept(TokWhere) {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		t.Where = e
	}
	return nil
}

func (p *Parser) parsePattern() (PatternNode, error) {
	start, err := p.expect(TokLT)
	if err != nil {
		return PatternNode{}, err
	}
	pat := PatternNode{Pos: start.Pos}
	if p.accept(TokGT) {
		return pat, nil // empty tuple <>
	}
	base := len(p.s.fields)
	for {
		if p.at(TokStar) {
			p.s.fields = append(p.s.fields, p.n.wilds.new(WildField{Pos: p.next().Pos}))
		} else {
			// Fields use the additive grammar level: '<' and '>' delimit
			// the tuple, so comparisons inside a field need parentheses.
			e, err := p.parseAdd()
			if err != nil {
				return PatternNode{}, err
			}
			p.s.fields = append(p.s.fields, p.n.efields.new(ExprField{Expr: e}))
		}
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokGT); err != nil {
		return PatternNode{}, err
	}
	pat.Fields = cut(&p.n.fields, &p.s.fields, base)
	return pat, nil
}

func (p *Parser) parseAction() (ActionNode, error) {
	switch p.cur().Kind {
	case TokLT:
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		return p.n.asserts.new(AssertAction{Pattern: pat}), nil
	case TokLet:
		pos := p.next().Pos
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return p.n.lets.new(LetAction{Name: name.Text, Expr: e, Pos: pos}), nil
	case TokSpawn:
		pos := p.next().Pos
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return p.n.spawns.new(SpawnAction{Name: name.Text, Args: args, Pos: pos}), nil
	case TokExit:
		return p.n.exits.new(ExitAction{Pos: p.next().Pos}), nil
	case TokAbort:
		return p.n.aborts.new(AbortAction{Pos: p.next().Pos}), nil
	case TokSkip:
		return p.n.skips.new(SkipAction{Pos: p.next().Pos}), nil
	default:
		return nil, errAt(p.cur().Pos, "expected action, found %s %q", p.cur().Kind, p.cur().Text)
	}
}

// parseArgs parses a parenthesized, comma-separated expression list: the
// arguments of a spawn or a call.
func (p *Parser) parseArgs() ([]ExprNode, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	base := len(p.s.exprs)
	for !p.at(TokRParen) {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.s.exprs = append(p.s.exprs, a)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return cut(&p.n.exprs, &p.s.exprs, base), nil
}

// --- expressions ---

func (p *Parser) bin(op TokKind, l, r ExprNode, pos Pos) *BinNode {
	return p.n.bins.new(BinNode{Op: op, L: l, R: r, Pos: pos})
}

func (p *Parser) un(op TokKind, x ExprNode, pos Pos) *UnNode {
	return p.n.uns.new(UnNode{Op: op, X: x, Pos: pos})
}

func (p *Parser) lit(v tuple.Value, pos Pos) *LitNode {
	return p.n.lits.new(LitNode{Value: v, Pos: pos})
}

func (p *Parser) parseExpr() (ExprNode, error) { return p.parseOr() }

func (p *Parser) parseOr() (ExprNode, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokOr) {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.bin(TokOr, l, r, pos)
	}
	return l, nil
}

func (p *Parser) parseAnd() (ExprNode, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(TokAnd) {
		pos := p.next().Pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.bin(TokAnd, l, r, pos)
	}
	return l, nil
}

func (p *Parser) parseNot() (ExprNode, error) {
	if p.at(TokNot) {
		pos := p.next().Pos
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return p.un(TokNot, x, pos), nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (ExprNode, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokEQ, TokNE, TokLT, TokLE, TokGT, TokGE:
		op := p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return p.bin(op.Kind, l, r, op.Pos), nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (ExprNode, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = p.bin(op.Kind, l, r, op.Pos)
	}
	return l, nil
}

func (p *Parser) parseMul() (ExprNode, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) || p.at(TokSlash) || p.at(TokPercent) {
		op := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.bin(op.Kind, l, r, op.Pos)
	}
	return l, nil
}

func (p *Parser) parseUnary() (ExprNode, error) {
	if p.at(TokMinus) {
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.un(TokMinus, x, pos), nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ExprNode, error) {
	tok := p.cur()
	switch tok.Kind {
	case TokInt:
		p.next()
		return p.lit(tuple.Int(tok.Int), tok.Pos), nil
	case TokFloat:
		p.next()
		return p.lit(tuple.Float(tok.Flt), tok.Pos), nil
	case TokString:
		p.next()
		return p.lit(tuple.String(tok.Text), tok.Pos), nil
	case TokTrue:
		p.next()
		return p.lit(tuple.Bool(true), tok.Pos), nil
	case TokFalse:
		p.next()
		return p.lit(tuple.Bool(false), tok.Pos), nil
	case TokVar:
		p.next()
		return p.n.vars.new(VarNode{Name: tok.Text, Pos: tok.Pos}), nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return p.n.calls.new(CallNode{Name: tok.Text, Args: args, Pos: tok.Pos}), nil
		}
		return p.n.idents.new(IdentNode{Name: tok.Text, Pos: tok.Pos}), nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errAt(tok.Pos, "expected expression, found %s %q", tok.Kind, tok.Text)
	}
}
