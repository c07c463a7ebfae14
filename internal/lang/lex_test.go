package lang

import (
	"strings"
	"testing"

	"github.com/sdl-lang/sdl/internal/race"
)

func kinds(t *testing.T, src string) []TokKind {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	out := make([]TokKind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func eqKinds(a, b []TokKind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLexBasics(t *testing.T) {
	got := kinds(t, `process Sum(k) behavior -> <k, 1> end`)
	want := []TokKind{
		TokProcess, TokIdent, TokLParen, TokIdent, TokRParen,
		TokBehavior, TokArrow, TokLT, TokIdent, TokComma, TokInt, TokGT,
		TokEnd, TokEOF,
	}
	if !eqKinds(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexOperators(t *testing.T) {
	got := kinds(t, `-> => @> == != <= >= < > = ! + - * / % | ; : , ( ) { }`)
	want := []TokKind{
		TokArrow, TokDblArrow, TokConsArrow, TokEQ, TokNE, TokLE, TokGE,
		TokLT, TokGT, TokAssign, TokBang, TokPlus, TokMinus, TokStar,
		TokSlash, TokPercent, TokPipe, TokSemicolon, TokColon, TokComma,
		TokLParen, TokRParen, TokLBrace, TokRBrace, TokEOF,
	}
	if !eqKinds(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexNumbersAndStrings(t *testing.T) {
	toks, err := Lex(`42 1.5 "hi\n" "a\"b"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokInt || toks[0].Int != 42 {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TokFloat || toks[1].Flt != 1.5 {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != TokString || toks[2].Text != "hi\n" {
		t.Errorf("tok2 = %+v", toks[2])
	}
	if toks[3].Kind != TokString || toks[3].Text != `a"b` {
		t.Errorf("tok3 = %+v", toks[3])
	}
}

func TestLexVariables(t *testing.T) {
	toks, err := Lex(`?alpha ?b1`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokVar || toks[0].Text != "alpha" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TokVar || toks[1].Text != "b1" {
		t.Errorf("tok1 = %+v", toks[1])
	}
}

func TestLexComments(t *testing.T) {
	got := kinds(t, "a // comment here\nb")
	want := []TokKind{TokIdent, TokIdent, TokEOF}
	if !eqKinds(got, want) {
		t.Errorf("kinds = %v", got)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		`"bad \q escape"`,
		`? 1`,
		`@x`,
		`1.2.3`,
		"#",
	}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		} else if !strings.Contains(err.Error(), ":") {
			t.Errorf("error lacks position: %v", err)
		}
	}
}

func TestLexIntFollowedByDotMethodLike(t *testing.T) {
	// "1." without digit after the dot: the int ends, the '.' errors.
	if _, err := Lex("1. 2"); err == nil {
		t.Skip("1. tolerated")
	}
}

// TestLexAllocates pins the lexer's heap use: the token slice, sized once
// from the source, plus one string per string literal. One-byte punctuation
// tokens take their text from the source instead of converting the byte.
func TestLexAllocates(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own; allocation counts are not exact")
	}
	const literals = 2
	src := strings.Repeat(`<a, ?b, 1>, <c, *>; (x + y) * 2 / z % 3 | {w} : `, 40) +
		`-> <k, "lit", "two"> => <?v, 2.5> @> ! != == <= >= = -`
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Lex(src); err != nil {
			t.Fatal(err)
		}
	}); got > 2+literals {
		t.Errorf("Lex of %d bytes with %d string literals: %.0f allocations, want <= %d", len(src), literals, got, 2+literals)
	}
}
