package lang

import (
	"strconv"
	"strings"
	"unicode"
)

// Lexer tokenizes SDL source text.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input. Every token but the final EOF spans at
// least one byte of src, so the token slice is sized once, up front.
func Lex(src string) ([]Token, error) {
	return lexInto(make([]Token, 0, len(src)+1), src)
}

// lexInto appends the tokens of src to out, which must have room for
// len(src)+1 more.
func lexInto(out []Token, src string) ([]Token, error) {
	lx := NewLexer(src)
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		word := lx.src[start:lx.off]
		if kw, ok := keywords[word]; ok {
			return Token{Kind: kw, Text: word, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: pos}, nil

	case c == '?':
		lx.advance()
		if lx.off >= len(lx.src) || !isIdentStart(lx.peek()) {
			return Token{}, errAt(pos, "expected identifier after '?'")
		}
		start := lx.off
		for lx.off < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: TokVar, Text: lx.src[start:lx.off], Pos: pos}, nil

	case unicode.IsDigit(rune(c)):
		start := lx.off
		isFloat := false
		for lx.off < len(lx.src) && (unicode.IsDigit(rune(lx.peek())) || lx.peek() == '.') {
			if lx.peek() == '.' {
				if !unicode.IsDigit(rune(lx.peek2())) {
					break
				}
				if isFloat {
					return Token{}, errAt(pos, "malformed number")
				}
				isFloat = true
			}
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Token{}, errAt(pos, "malformed float %q", text)
			}
			return Token{Kind: TokFloat, Text: text, Flt: f, Pos: pos}, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, errAt(pos, "malformed int %q", text)
		}
		return Token{Kind: TokInt, Text: text, Int: n, Pos: pos}, nil

	case c == '"':
		lx.advance()
		var b strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return Token{}, errAt(pos, "unterminated string")
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if lx.off >= len(lx.src) {
					return Token{}, errAt(pos, "unterminated escape")
				}
				esc := lx.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '"':
					b.WriteByte('"')
				case '\\':
					b.WriteByte('\\')
				default:
					return Token{}, errAt(pos, "unknown escape \\%c", esc)
				}
				continue
			}
			b.WriteByte(ch)
		}
		return Token{Kind: TokString, Text: b.String(), Pos: pos}, nil
	}

	// Operators and punctuation.
	two := func(kind TokKind, text string) (Token, error) {
		lx.advance()
		lx.advance()
		return Token{Kind: kind, Text: text, Pos: pos}, nil
	}
	one := func(kind TokKind) (Token, error) {
		lx.advance()
		return Token{Kind: kind, Text: lx.src[lx.off-1 : lx.off], Pos: pos}, nil
	}
	switch c {
	case '<':
		if lx.peek2() == '=' {
			return two(TokLE, "<=")
		}
		return one(TokLT)
	case '>':
		if lx.peek2() == '=' {
			return two(TokGE, ">=")
		}
		return one(TokGT)
	case '=':
		if lx.peek2() == '=' {
			return two(TokEQ, "==")
		}
		if lx.peek2() == '>' {
			return two(TokDblArrow, "=>")
		}
		return one(TokAssign)
	case '!':
		if lx.peek2() == '=' {
			return two(TokNE, "!=")
		}
		return one(TokBang)
	case '-':
		if lx.peek2() == '>' {
			return two(TokArrow, "->")
		}
		return one(TokMinus)
	case '@':
		if lx.peek2() == '>' {
			return two(TokConsArrow, "@>")
		}
		return Token{}, errAt(pos, "unexpected character %q", c)
	case '+':
		return one(TokPlus)
	case '*':
		return one(TokStar)
	case '/':
		return one(TokSlash)
	case '%':
		return one(TokPercent)
	case ',':
		return one(TokComma)
	case ';':
		return one(TokSemicolon)
	case ':':
		return one(TokColon)
	case '|':
		return one(TokPipe)
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	default:
		return Token{}, errAt(pos, "unexpected character %q", c)
	}
}
