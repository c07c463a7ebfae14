package lang

import (
	"fmt"
	"strings"
)

// Format renders a parsed program back to SDL source. The output
// re-parses to an equivalent program (expressions are parenthesized, so
// precedence is explicit). It is the basis of sdli's -fmt flag and of the
// parser's round-trip tests.
func Format(p *Program) string {
	var b strings.Builder
	for i, pd := range p.Processes {
		if i > 0 {
			b.WriteByte('\n')
		}
		formatProcess(&b, pd)
	}
	if p.Main != nil {
		if len(p.Processes) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("main\n")
		formatStmts(&b, p.Main.Body, 1)
		b.WriteString("end\n")
	}
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func formatProcess(b *strings.Builder, pd *ProcessDecl) {
	fmt.Fprintf(b, "process %s(%s)\n", pd.Name, strings.Join(pd.Params, ", "))
	formatRules := func(kw string, rules []ViewRule) {
		if len(rules) == 0 {
			return
		}
		b.WriteString(kw)
		b.WriteByte('\n')
		for i, r := range rules {
			indent(b, 1)
			b.WriteString(formatPattern(r.Pattern))
			if r.Where != nil {
				b.WriteString(" where ")
				b.WriteString(formatExpr(r.Where))
			}
			if i < len(rules)-1 {
				b.WriteByte(';')
			}
			b.WriteByte('\n')
		}
	}
	formatRules("import", pd.Imports)
	formatRules("export", pd.Exports)
	b.WriteString("behavior\n")
	formatStmts(b, pd.Body, 1)
	b.WriteString("end\n")
}

func formatStmts(b *strings.Builder, stmts []StmtNode, depth int) {
	for i, s := range stmts {
		formatStmt(b, s, depth)
		if i < len(stmts)-1 {
			b.WriteByte(';')
		}
		b.WriteByte('\n')
	}
}

func formatStmt(b *strings.Builder, s StmtNode, depth int) {
	switch st := s.(type) {
	case *TxnNode:
		indent(b, depth)
		b.WriteString(formatTxn(st))
	case *SelNode:
		formatBlock(b, "sel", st.Branches, depth)
	case *RepNode:
		formatBlock(b, "rep", st.Branches, depth)
	case *ParNode:
		formatBlock(b, "par", st.Branches, depth)
	}
}

func formatBlock(b *strings.Builder, kw string, branches []BranchNode, depth int) {
	indent(b, depth)
	b.WriteString(kw)
	b.WriteString(" {\n")
	for i, br := range branches {
		indent(b, depth+1)
		b.WriteString(formatTxn(br.Guard))
		if len(br.Body) > 0 {
			b.WriteString(";\n")
			var inner strings.Builder
			formatStmts(&inner, br.Body, depth+2)
			b.WriteString(strings.TrimRight(inner.String(), "\n"))
		}
		b.WriteByte('\n')
		if i < len(branches)-1 {
			indent(b, depth)
			b.WriteString("|\n")
		}
	}
	indent(b, depth)
	b.WriteString("}")
}

func formatTxn(t *TxnNode) string {
	var b strings.Builder
	switch t.Quant {
	case QuantExists:
		b.WriteString("exists ")
		b.WriteString(strings.Join(t.DeclVars, ", "))
		if len(t.DeclVars) > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(": ")
	case QuantForall:
		b.WriteString("forall ")
		b.WriteString(strings.Join(t.DeclVars, ", "))
		if len(t.DeclVars) > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(": ")
	}
	for i, item := range t.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if item.Negated {
			b.WriteString("not ")
		}
		b.WriteString(formatPattern(item.Pattern))
		if item.Retract {
			b.WriteByte('!')
		}
	}
	if t.Where != nil {
		if len(t.Items) > 0 {
			b.WriteString(" where ")
		}
		b.WriteString(formatExpr(t.Where))
	}
	if len(t.Items) > 0 || t.Where != nil {
		b.WriteByte(' ')
	}
	switch t.Tag {
	case TagDelayed:
		b.WriteString("=>")
	case TagConsensus:
		b.WriteString("@>")
	default:
		b.WriteString("->")
	}
	if len(t.Actions) == 0 {
		b.WriteString(" skip")
		return b.String()
	}
	for i, a := range t.Actions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(' ')
		b.WriteString(formatAction(a))
	}
	return b.String()
}

func formatAction(a ActionNode) string {
	switch act := a.(type) {
	case *AssertAction:
		return formatPattern(act.Pattern)
	case *LetAction:
		return fmt.Sprintf("let %s = %s", act.Name, formatExpr(act.Expr))
	case *SpawnAction:
		args := make([]string, len(act.Args))
		for i, e := range act.Args {
			args[i] = formatExpr(e)
		}
		return fmt.Sprintf("spawn %s(%s)", act.Name, strings.Join(args, ", "))
	case *ExitAction:
		return "exit"
	case *AbortAction:
		return "abort"
	case *SkipAction:
		return "skip"
	default:
		return "?"
	}
}

// PatternString renders one tuple pattern in source syntax. Diagnostics
// (the static analyzer, sdlvet) use it to echo the offending pattern.
func PatternString(p PatternNode) string { return formatPattern(p) }

// ExprString renders one expression in source syntax (parenthesized), for
// diagnostics.
func ExprString(e ExprNode) string { return formatExpr(e) }

func formatPattern(p PatternNode) string {
	fields := make([]string, len(p.Fields))
	for i, f := range p.Fields {
		switch fn := f.(type) {
		case *WildField:
			fields[i] = "*"
		case *ExprField:
			fields[i] = formatExpr(fn.Expr)
		default:
			fields[i] = "?"
		}
	}
	return "<" + strings.Join(fields, ", ") + ">"
}

var tokOpText = map[TokKind]string{
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPercent: "%",
	TokEQ: "==", TokNE: "!=", TokLT: "<", TokLE: "<=", TokGT: ">", TokGE: ">=",
	TokAnd: "and", TokOr: "or",
}

// quoteString renders a string literal using only the escapes the lexer
// accepts (\n \t \" \\); all other bytes pass through verbatim.
func quoteString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func formatExpr(e ExprNode) string {
	switch en := e.(type) {
	case *LitNode:
		if s, ok := en.Value.AsString(); ok {
			return quoteString(s)
		}
		// A bare negative literal re-parses as unary minus; parenthesize
		// it the same way the unary form formats, so formatting is a
		// parse fixpoint.
		if n, ok := en.Value.Numeric(); ok && n < 0 {
			return "(" + en.Value.String() + ")"
		}
		return en.Value.String()
	case *IdentNode:
		return en.Name
	case *VarNode:
		return "?" + en.Name
	case *BinNode:
		return fmt.Sprintf("(%s %s %s)", formatExpr(en.L), tokOpText[en.Op], formatExpr(en.R))
	case *UnNode:
		if en.Op == TokNot {
			return fmt.Sprintf("(not %s)", formatExpr(en.X))
		}
		return fmt.Sprintf("(-%s)", formatExpr(en.X))
	case *CallNode:
		args := make([]string, len(en.Args))
		for i, a := range en.Args {
			args[i] = formatExpr(a)
		}
		return fmt.Sprintf("%s(%s)", en.Name, strings.Join(args, ", "))
	default:
		return "?"
	}
}
