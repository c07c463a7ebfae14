package lang

import "github.com/sdl-lang/sdl/internal/tuple"

// Program is a parsed SDL source file: process definitions plus an
// optional main block (the initial process). Parse cuts its nodes and
// their child lists from backing arrays shared by the whole program; every
// list is a full slice (len == cap), so appending to one reallocates it
// instead of overwriting its neighbour.
type Program struct {
	Processes []*ProcessDecl
	Main      *MainDecl
}

// ProcessDecl is a `process Name(params) [import …] [export …]
// behavior … end` definition.
type ProcessDecl struct {
	Name    string
	Params  []string
	Imports []ViewRule // empty = import everything
	Exports []ViewRule // empty = export everything
	Body    []StmtNode
	Pos     Pos
}

// MainDecl is the `main … end` block.
type MainDecl struct {
	Body []StmtNode
	Pos  Pos
}

// ViewRule is one import/export rule: a tuple pattern with an optional
// guard predicate (the paper's `α : α ≤ 87 :: <year, α>`).
type ViewRule struct {
	Pattern PatternNode
	Where   ExprNode
	Pos     Pos
}

// StmtNode is one behavior statement.
type StmtNode interface{ stmtNode() }

// TxnNode is a transaction statement.
type TxnNode struct {
	Quant      QuantKind
	DeclVars   []string // variables declared by the quantifier prefix
	DeclVarPos []Pos    // positions of the declarations, parallel to DeclVars
	Items      []QueryItem
	Where      ExprNode
	Tag        TagKind
	Actions    []ActionNode
	Pos        Pos
}

// SelNode, RepNode, ParNode are the selection, repetition, and
// replication constructs.
type (
	SelNode struct {
		Branches []BranchNode
		Pos      Pos
	}
	RepNode struct {
		Branches []BranchNode
		Pos      Pos
	}
	ParNode struct {
		Branches []BranchNode
		Pos      Pos
	}
)

func (*TxnNode) stmtNode() {}
func (*SelNode) stmtNode() {}
func (*RepNode) stmtNode() {}
func (*ParNode) stmtNode() {}

// BranchNode is one guarded sequence.
type BranchNode struct {
	Guard *TxnNode
	Body  []StmtNode
}

// QuantKind is the query quantifier.
type QuantKind uint8

// Quantifiers; QuantDefault means none written (treated as exists).
const (
	QuantDefault QuantKind = iota
	QuantExists
	QuantForall
)

// TagKind is the transaction's operational tag.
type TagKind uint8

// Tags.
const (
	TagImmediate TagKind = iota + 1 // ->
	TagDelayed                      // =>
	TagConsensus                    // @>
)

// QueryItem is one pattern of a binding query.
type QueryItem struct {
	Pattern PatternNode
	Negated bool
	Retract bool
	Pos     Pos // start of the item ('not' keyword or the pattern itself)
}

// PatternNode is a tuple pattern literal.
type PatternNode struct {
	Fields []FieldNode
	Pos    Pos
}

// FieldNode is one field of a pattern: a *WildField or an *ExprField
// (classified as variable / constant / computed at compile time).
type FieldNode interface{ fieldNode() }

// WildField is '*'.
type WildField struct{ Pos Pos }

// ExprField is any other field.
type ExprField struct{ Expr ExprNode }

func (*WildField) fieldNode() {}
func (*ExprField) fieldNode() {}

// ActionNode is one element of an action list: a pointer to one of the
// action forms below.
type ActionNode interface{ actionNode() }

// Action forms.
type (
	// AssertAction asserts a tuple built from the pattern.
	AssertAction struct{ Pattern PatternNode }
	// LetAction binds a process constant.
	LetAction struct {
		Name string
		Expr ExprNode
		Pos  Pos
	}
	// SpawnAction creates a process instance.
	SpawnAction struct {
		Name string
		Args []ExprNode
		Pos  Pos
	}
	// ExitAction terminates the guarded sequence and repetition.
	ExitAction struct{ Pos Pos }
	// AbortAction terminates the process.
	AbortAction struct{ Pos Pos }
	// SkipAction does nothing.
	SkipAction struct{ Pos Pos }
)

func (*AssertAction) actionNode() {}
func (*LetAction) actionNode()    {}
func (*SpawnAction) actionNode()  {}
func (*ExitAction) actionNode()   {}
func (*AbortAction) actionNode()  {}
func (*SkipAction) actionNode()   {}

// ExprNode is an expression.
type ExprNode interface{ exprNode() }

// Expression forms.
type (
	// LitNode is a literal value (number, string, bool).
	LitNode struct {
		Value tuple.Value
		Pos   Pos
	}
	// IdentNode is a bare identifier: an atom, or a reference to a
	// parameter / let-constant / declared variable.
	IdentNode struct {
		Name string
		Pos  Pos
	}
	// VarNode is a '?x' quantified variable reference.
	VarNode struct {
		Name string
		Pos  Pos
	}
	// BinNode is a binary operation (operator named by token kind).
	BinNode struct {
		Op   TokKind
		L, R ExprNode
		Pos  Pos
	}
	// UnNode is unary minus or logical not.
	UnNode struct {
		Op  TokKind
		X   ExprNode
		Pos Pos
	}
	// CallNode is a built-in function call.
	CallNode struct {
		Name string
		Args []ExprNode
		Pos  Pos
	}
)

func (*LitNode) exprNode()   {}
func (*IdentNode) exprNode() {}
func (*VarNode) exprNode()   {}
func (*BinNode) exprNode()   {}
func (*UnNode) exprNode()    {}
func (*CallNode) exprNode()  {}
