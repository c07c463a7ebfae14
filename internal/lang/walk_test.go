package lang

import (
	"testing"
)

const walkSrc = `
process Stage(k)
import <item, k, *>; <done, *> where k > 0
export <item, k + 1, *>
behavior
  rep {
    exists v: <item, k, ?v>!, not <halt, *> where ?v > 0
      => <item, k + 1, ?v>, let N = ?v + 1
  | not <item, k, *> -> exit
  };
  sel {
    <done, k> -> spawn Stage(k + 1), skip
  | true -> abort
  }
end

main
  -> <item, 1, min(3, 4)>;
  spawn Stage(1)
end
`

func TestWalkVisitsEveryNodeKind(t *testing.T) {
	prog, err := Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	kind := func(n Node) string {
		switch n.(type) {
		case *Program:
			return "Program"
		case *ProcessDecl:
			return "ProcessDecl"
		case *MainDecl:
			return "MainDecl"
		case *ViewRule:
			return "ViewRule"
		case *TxnNode:
			return "TxnNode"
		case *SelNode:
			return "SelNode"
		case *RepNode:
			return "RepNode"
		case *ParNode:
			return "ParNode"
		case *BranchNode:
			return "BranchNode"
		case *QueryItem:
			return "QueryItem"
		case *PatternNode:
			return "PatternNode"
		case *WildField:
			return "WildField"
		case *ExprField:
			return "ExprField"
		case *AssertAction:
			return "AssertAction"
		case *LetAction:
			return "LetAction"
		case *SpawnAction:
			return "SpawnAction"
		case *ExitAction:
			return "ExitAction"
		case *AbortAction:
			return "AbortAction"
		case *SkipAction:
			return "SkipAction"
		case *LitNode:
			return "LitNode"
		case *IdentNode:
			return "IdentNode"
		case *VarNode:
			return "VarNode"
		case *BinNode:
			return "BinNode"
		case *UnNode:
			return "UnNode"
		case *CallNode:
			return "CallNode"
		}
		return "?"
	}
	Walk(prog, func(n Node) bool {
		seen[kind(n)] = true
		return true
	})
	want := []string{
		"Program", "ProcessDecl", "MainDecl", "ViewRule", "TxnNode",
		"SelNode", "RepNode", "BranchNode", "QueryItem", "PatternNode",
		"WildField", "ExprField", "AssertAction", "LetAction", "SpawnAction",
		"ExitAction", "AbortAction", "SkipAction", "LitNode", "IdentNode",
		"VarNode", "BinNode", "CallNode",
	}
	for _, k := range want {
		if !seen[k] {
			t.Errorf("Walk never visited a %s", k)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	prog, err := Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning at every TxnNode must suppress all pattern visits.
	patterns := 0
	Walk(prog, func(n Node) bool {
		switch n.(type) {
		case *TxnNode:
			return false
		case *PatternNode:
			patterns++
		}
		return true
	})
	if patterns != 3 { // only the three view-rule patterns remain
		t.Errorf("pruned walk saw %d patterns, want 3 (view rules only)", patterns)
	}
}

// TestParsedPositionsNonZero is the contract the analyzer's diagnostics
// rely on: every positioned node produced by the parser carries a real
// line:col, including the nodes that historically dropped it (view rules,
// query items, quantifier declarations).
func TestParsedPositionsNonZero(t *testing.T) {
	prog, err := Parse(walkSrc)
	if err != nil {
		t.Fatal(err)
	}
	Walk(prog, func(n Node) bool {
		if pos, ok := NodePos(n); ok {
			if pos.Line < 1 || pos.Col < 1 {
				t.Errorf("node %T has zero position %v", n, pos)
			}
		}
		if tx, ok := n.(*TxnNode); ok {
			if len(tx.DeclVarPos) != len(tx.DeclVars) {
				t.Errorf("txn at %v: %d decl vars but %d positions",
					tx.Pos, len(tx.DeclVars), len(tx.DeclVarPos))
			}
			for i, p := range tx.DeclVarPos {
				if p.Line < 1 || p.Col < 1 {
					t.Errorf("decl var %s has zero position", tx.DeclVars[i])
				}
			}
		}
		return true
	})
}
