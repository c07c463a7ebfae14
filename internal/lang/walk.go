package lang

// Node is any AST node the walker can visit: *Program, *ProcessDecl,
// *MainDecl, *ViewRule, the statement nodes, *BranchNode, *QueryItem,
// *PatternNode, the field nodes, the action nodes, and the expression
// nodes. Every node is carried by pointer — the rules, branches, items and
// patterns that live by value inside a list or a parent are visited as
// pointers into it — so converting a node to Node never allocates.
type Node any

// Walk traverses the AST rooted at n in depth-first source order, calling
// f for each node. If f returns false, the node's children are skipped.
// It is the single traversal shared by the compiler (let collection and
// slab sizing), the formatter's round-trip tests, and the static analyzer,
// and it allocates nothing.
func Walk(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *Program:
		for _, pd := range x.Processes {
			Walk(pd, f)
		}
		if x.Main != nil {
			Walk(x.Main, f)
		}
	case *ProcessDecl:
		for i := range x.Imports {
			Walk(&x.Imports[i], f)
		}
		for i := range x.Exports {
			Walk(&x.Exports[i], f)
		}
		walkStmts(x.Body, f)
	case *MainDecl:
		walkStmts(x.Body, f)
	case *ViewRule:
		Walk(&x.Pattern, f)
		if x.Where != nil {
			Walk(x.Where, f)
		}
	case *TxnNode:
		for i := range x.Items {
			Walk(&x.Items[i], f)
		}
		if x.Where != nil {
			Walk(x.Where, f)
		}
		for _, a := range x.Actions {
			Walk(a, f)
		}
	case *SelNode:
		walkBranches(x.Branches, f)
	case *RepNode:
		walkBranches(x.Branches, f)
	case *ParNode:
		walkBranches(x.Branches, f)
	case *BranchNode:
		Walk(x.Guard, f)
		walkStmts(x.Body, f)
	case *QueryItem:
		Walk(&x.Pattern, f)
	case *PatternNode:
		for _, fl := range x.Fields {
			Walk(fl, f)
		}
	case *ExprField:
		Walk(x.Expr, f)
	case *AssertAction:
		Walk(&x.Pattern, f)
	case *LetAction:
		Walk(x.Expr, f)
	case *SpawnAction:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *BinNode:
		Walk(x.L, f)
		Walk(x.R, f)
	case *UnNode:
		Walk(x.X, f)
	case *CallNode:
		for _, a := range x.Args {
			Walk(a, f)
		}
		// *WildField, the exit/abort/skip actions, and the leaf
		// expressions (*LitNode, *IdentNode, *VarNode) have no children.
	}
}

func walkStmts(stmts []StmtNode, f func(Node) bool) {
	for _, s := range stmts {
		Walk(s, f)
	}
}

func walkBranches(bs []BranchNode, f func(Node) bool) {
	for i := range bs {
		Walk(&bs[i], f)
	}
}

// NodePos returns the source position of a node, when it carries one.
// Nodes without an own position (Program, and nodes that delegate to a
// child) report the position of their leading child.
func NodePos(n Node) (Pos, bool) {
	switch x := n.(type) {
	case *ProcessDecl:
		return x.Pos, true
	case *MainDecl:
		return x.Pos, true
	case *ViewRule:
		return x.Pos, true
	case *TxnNode:
		return x.Pos, true
	case *SelNode:
		return x.Pos, true
	case *RepNode:
		return x.Pos, true
	case *ParNode:
		return x.Pos, true
	case *BranchNode:
		if x.Guard != nil {
			return x.Guard.Pos, true
		}
	case *QueryItem:
		return x.Pos, true
	case *PatternNode:
		return x.Pos, true
	case *WildField:
		return x.Pos, true
	case *ExprField:
		return NodePos(x.Expr)
	case *AssertAction:
		return x.Pattern.Pos, true
	case *LetAction:
		return x.Pos, true
	case *SpawnAction:
		return x.Pos, true
	case *ExitAction:
		return x.Pos, true
	case *AbortAction:
		return x.Pos, true
	case *SkipAction:
		return x.Pos, true
	case *LitNode:
		return x.Pos, true
	case *IdentNode:
		return x.Pos, true
	case *VarNode:
		return x.Pos, true
	case *BinNode:
		return x.Pos, true
	case *UnNode:
		return x.Pos, true
	case *CallNode:
		return x.Pos, true
	}
	return Pos{}, false
}
