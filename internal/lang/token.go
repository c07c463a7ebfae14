// Package lang implements a textual front-end for SDL: a lexer, parser,
// and compiler that translate SDL source programs (an ASCII
// transliteration of the paper's notation) into the process runtime's
// definitions.
//
// Surface syntax overview:
//
//	// Sum3 from the paper, §3.1
//	process Sum3()
//	behavior
//	  par {
//	    exists n, m, a, b: <?n, ?a>!, <?m, ?b>! where ?n != ?m
//	      -> <?m, ?a + ?b>
//	  }
//	end
//
//	main
//	  -> <1, 10>, <2, 20>, <3, 30>, spawn Sum3()
//	end
//
// Notation:
//
//   - tuples: <f1, f2, …>; '*' is a wildcard field; '?x' a quantified
//     variable; a '!' suffix tags the pattern for retraction; 'not <…>'
//     negates it. Bare identifiers are atoms unless they name a process
//     parameter or let-constant (then they denote its value).
//   - transaction tags: '->' immediate, '=>' delayed, '@>' consensus.
//   - a transaction is `query tag actions`: the query is a pattern list
//     with an optional `where` predicate (or a bare predicate), the
//     actions are tuples to assert plus let/spawn/exit/abort/skip.
//   - constructs: sel { b1 | b2 | … } (selection), rep { … } (repetition),
//     par { … } (replication); branches are `guard ; stmt ; …`.
//   - a `process Name(params) [import rules] [export rules] behavior …
//     end` defines a process type; `main … end` is the initial process.
package lang

import "fmt"

// TokKind enumerates token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokVar    // ?ident
	TokInt    // 123
	TokFloat  // 1.5
	TokString // "..."
	TokLT     // <
	TokGT     // >
	TokLE     // <=
	TokGE     // >=
	TokEQ     // ==
	TokNE     // !=
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokComma
	TokSemicolon
	TokColon
	TokBang // !
	TokPipe // |
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokArrow     // ->
	TokDblArrow  // =>
	TokConsArrow // @>
	// Keywords.
	TokProcess
	TokImport
	TokExport
	TokBehavior
	TokMain
	TokEnd
	TokSel
	TokRep
	TokPar
	TokExists
	TokForall
	TokNot
	TokAnd
	TokOr
	TokWhere
	TokLet
	TokSpawn
	TokExit
	TokAbort
	TokSkip
	TokTrue
	TokFalse

	tokKinds // the number of kinds above; not a token
)

var kindNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokVar: "variable",
	TokInt: "int", TokFloat: "float", TokString: "string",
	TokLT: "<", TokGT: ">", TokLE: "<=", TokGE: ">=",
	TokEQ: "==", TokNE: "!=", TokAssign: "=",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPercent: "%",
	TokComma: ",", TokSemicolon: ";", TokColon: ":", TokBang: "!",
	TokPipe: "|", TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokArrow: "->", TokDblArrow: "=>", TokConsArrow: "@>",
	TokProcess: "process", TokImport: "import", TokExport: "export",
	TokBehavior: "behavior", TokMain: "main", TokEnd: "end",
	TokSel: "sel", TokRep: "rep", TokPar: "par",
	TokExists: "exists", TokForall: "forall",
	TokNot: "not", TokAnd: "and", TokOr: "or", TokWhere: "where",
	TokLet: "let", TokSpawn: "spawn", TokExit: "exit", TokAbort: "abort",
	TokSkip: "skip", TokTrue: "true", TokFalse: "false",
}

// String names the token kind.
func (k TokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", k)
}

var keywords = map[string]TokKind{
	"process": TokProcess, "import": TokImport, "export": TokExport,
	"behavior": TokBehavior, "main": TokMain, "end": TokEnd,
	"sel": TokSel, "rep": TokRep, "par": TokPar,
	"exists": TokExists, "forall": TokForall,
	"not": TokNot, "and": TokAnd, "or": TokOr, "where": TokWhere,
	"let": TokLet, "spawn": TokSpawn, "exit": TokExit, "abort": TokAbort,
	"skip": TokSkip, "true": TokTrue, "false": TokFalse,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

// String renders line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // identifier/variable name, string payload, number text
	Int  int64
	Flt  float64
	Pos  Pos
}

// Error is a positioned language error (lexing, parsing, or compiling).
type Error struct {
	Pos Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errAt(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
