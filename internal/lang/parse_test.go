package lang

import (
	"strings"
	"testing"
)

func parseOK(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return prog
}

func TestParseProcessHeader(t *testing.T) {
	prog := parseOK(t, `
process Sort(node_id, next_node_id)
import
  <node_id, *, *, *>;
  <next_node_id, *, *, *>
export
  <node_id, *, *, *>
behavior
  -> skip
end
`)
	if len(prog.Processes) != 1 {
		t.Fatalf("processes = %d", len(prog.Processes))
	}
	pd := prog.Processes[0]
	if pd.Name != "Sort" || len(pd.Params) != 2 {
		t.Errorf("decl = %+v", pd)
	}
	if len(pd.Imports) != 2 || len(pd.Exports) != 1 {
		t.Errorf("imports=%d exports=%d", len(pd.Imports), len(pd.Exports))
	}
	if len(pd.Imports[0].Pattern.Fields) != 4 {
		t.Errorf("import pattern arity = %d", len(pd.Imports[0].Pattern.Fields))
	}
}

func TestParseImportWhere(t *testing.T) {
	prog := parseOK(t, `
process P()
import <year, ?a> where ?a <= 87
behavior -> skip end
`)
	rule := prog.Processes[0].Imports[0]
	if rule.Where == nil {
		t.Fatal("where clause missing")
	}
	bin, ok := rule.Where.(*BinNode)
	if !ok || bin.Op != TokLE {
		t.Errorf("where = %#v", rule.Where)
	}
}

func TestParseTxnForms(t *testing.T) {
	prog := parseOK(t, `
main
  exists a: <year, ?a>! where ?a > 87 -> <found, ?a>, let N = ?a;
  <year, 87> => <new_year>;
  forall : <x, ?v> @> exit;
  ?k % 2 == 0 -> skip;
  -> <init, 1>
end
`)
	body := prog.Main.Body
	if len(body) != 5 {
		t.Fatalf("stmts = %d", len(body))
	}
	t0 := body[0].(*TxnNode)
	if t0.Quant != QuantExists || len(t0.DeclVars) != 1 || t0.DeclVars[0] != "a" {
		t.Errorf("t0 quant = %+v", t0)
	}
	if len(t0.Items) != 1 || !t0.Items[0].Retract || t0.Items[0].Negated {
		t.Errorf("t0 items = %+v", t0.Items)
	}
	if t0.Where == nil || t0.Tag != TagImmediate || len(t0.Actions) != 2 {
		t.Errorf("t0 = %+v", t0)
	}
	t1 := body[1].(*TxnNode)
	if t1.Tag != TagDelayed || len(t1.Items) != 1 || t1.Items[0].Retract {
		t.Errorf("t1 = %+v", t1)
	}
	t2 := body[2].(*TxnNode)
	if t2.Quant != QuantForall || t2.Tag != TagConsensus {
		t.Errorf("t2 = %+v", t2)
	}
	if len(t2.Actions) != 1 {
		t.Errorf("t2 actions = %+v", t2.Actions)
	}
	t3 := body[3].(*TxnNode)
	if len(t3.Items) != 0 || t3.Where == nil {
		t.Errorf("t3 (test-only) = %+v", t3)
	}
	t4 := body[4].(*TxnNode)
	if len(t4.Items) != 0 || t4.Where != nil || len(t4.Actions) != 1 {
		t.Errorf("t4 (empty query) = %+v", t4)
	}
}

func TestParseNegatedPattern(t *testing.T) {
	prog := parseOK(t, `main not <index, *> -> exit end`)
	tx := prog.Main.Body[0].(*TxnNode)
	if len(tx.Items) != 1 || !tx.Items[0].Negated {
		t.Errorf("tx = %+v", tx)
	}
}

func TestParseNotExpressionVsNegatedPattern(t *testing.T) {
	// `not` before a non-pattern is a logical negation in a test query.
	prog := parseOK(t, `main not (?x == 1) -> skip end`)
	tx := prog.Main.Body[0].(*TxnNode)
	if len(tx.Items) != 0 || tx.Where == nil {
		t.Fatalf("tx = %+v", tx)
	}
	if _, ok := tx.Where.(*UnNode); !ok {
		t.Errorf("where = %#v", tx.Where)
	}
}

func TestParseConstructs(t *testing.T) {
	prog := parseOK(t, `
main
  sel {
    <a>! -> skip
  | <b>! -> skip ; -> <after_b>
  };
  rep { <c>! -> skip };
  par { <d>! -> skip }
end
`)
	if len(prog.Main.Body) != 3 {
		t.Fatalf("stmts = %d", len(prog.Main.Body))
	}
	sel := prog.Main.Body[0].(*SelNode)
	if len(sel.Branches) != 2 {
		t.Fatalf("branches = %d", len(sel.Branches))
	}
	if len(sel.Branches[1].Body) != 1 {
		t.Errorf("branch body = %d", len(sel.Branches[1].Body))
	}
	if _, ok := prog.Main.Body[1].(*RepNode); !ok {
		t.Error("rep missing")
	}
	if _, ok := prog.Main.Body[2].(*ParNode); !ok {
		t.Error("par missing")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	prog := parseOK(t, `main ?a + 2 * 3 == 7 and not ?b or ?c -> skip end`)
	tx := prog.Main.Body[0].(*TxnNode)
	// ((?a + (2*3)) == 7 and (not ?b)) or ?c
	or, ok := tx.Where.(*BinNode)
	if !ok || or.Op != TokOr {
		t.Fatalf("top = %#v", tx.Where)
	}
	and, ok := or.L.(*BinNode)
	if !ok || and.Op != TokAnd {
		t.Fatalf("or.L = %#v", or.L)
	}
	eq, ok := and.L.(*BinNode)
	if !ok || eq.Op != TokEQ {
		t.Fatalf("and.L = %#v", and.L)
	}
	add, ok := eq.L.(*BinNode)
	if !ok || add.Op != TokPlus {
		t.Fatalf("eq.L = %#v", eq.L)
	}
	mul, ok := add.R.(*BinNode)
	if !ok || mul.Op != TokStar {
		t.Fatalf("add.R = %#v", add.R)
	}
}

func TestParseComputedPatternField(t *testing.T) {
	prog := parseOK(t, `process Sum2(k, j) behavior
  exists a: <k - pow2(j - 1), ?a, j>! => <k, ?a, j + 1>
end`)
	tx := prog.Processes[0].Body[0].(*TxnNode)
	f0, ok := tx.Items[0].Pattern.Fields[0].(*ExprField)
	if !ok {
		t.Fatalf("field 0 = %#v", tx.Items[0].Pattern.Fields[0])
	}
	if _, ok := f0.Expr.(*BinNode); !ok {
		t.Errorf("field 0 expr = %#v", f0.Expr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`process end`,                     // missing name
		`process P( behavior -> skip end`, // bad params
		`main <a> end`,                    // missing tag
		`main -> <a>`,                     // missing end
		`main not <a>! -> skip end`,       // negated retract
		`main sel { -> skip end`,          // unclosed brace
		`main main end end`,               // main not a statement
		`blah`,                            // not a decl
		`main -> let = 1 end`,             // let missing name
		`main -> spawn (1) end`,           // spawn missing name
		`main -> <a>, end`,                // trailing comma in actions
		`process P() behavior -> skip end process P2`, // truncated second decl
		`main <a -> skip end`,                         // unclosed pattern
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDuplicateMain(t *testing.T) {
	_, err := Parse(`main -> skip end main -> skip end`)
	if err == nil || !strings.Contains(err.Error(), "duplicate main") {
		t.Errorf("err = %v", err)
	}
}

func TestParseEmptyTuplePattern(t *testing.T) {
	prog := parseOK(t, `main <> -> skip end`)
	tx := prog.Main.Body[0].(*TxnNode)
	if len(tx.Items[0].Pattern.Fields) != 0 {
		t.Errorf("fields = %d", len(tx.Items[0].Pattern.Fields))
	}
}

func BenchmarkParseAndCompile(b *testing.B) {
	src := `
process Sort(a, b)
import <a, *, *, *>; <b, *, *, *>
export <a, *, *, *>; <b, *, *, *>
behavior
  rep {
    <a, ?n1, ?v1, ?x>!, <b, ?n2, ?v2, ?y>! where ?v1 > ?v2
      -> <a, ?n2, ?v2, ?x>, <b, ?n1, ?v1, ?y>
  | <a, *, ?v1, *>, <b, *, ?v2, *> where ?v1 <= ?v2 @> exit
  }
end
main -> <1, a, 3, 2>, <2, b, 1, nil>; spawn Sort(1, 2) end
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Compile(prog); err != nil {
			b.Fatal(err)
		}
	}
}
