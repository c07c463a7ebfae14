package lang

// This file exports the program's spawn graph in AST form, for
// interprocedural analyses (analysis/dataflow): every spawn action, with
// its enclosing behavior and transaction. The compiler does not use it —
// it exists so analyzers outside this package can see actual-argument
// expressions flowing into process parameters without re-implementing the
// statement walk.

// SpawnSite is one spawn action in a behavior, with enough context to
// evaluate its arguments abstractly: the transaction whose solution
// environment the arguments are evaluated under, and the let actions that
// precede the spawn in the same action list (their bindings are visible to
// the arguments).
type SpawnSite struct {
	Caller string       // enclosing behavior (MainProcess for the main block)
	Callee string       // spawned process name
	Args   []ExprNode   // actual-argument expressions
	Txn    *TxnNode     // enclosing transaction (the guard for guarded spawns)
	Lets   []*LetAction // lets preceding the spawn in the same action list
	Pos    Pos
}

// SpawnSites collects every spawn site of the program, in source order per
// behavior: process declarations first (declaration order), then main.
func SpawnSites(prog *Program) []SpawnSite {
	var sites []SpawnSite
	for _, pd := range prog.Processes {
		sites = appendSpawnSites(sites, pd.Name, pd.Body)
	}
	if prog.Main != nil {
		sites = appendSpawnSites(sites, MainProcess, prog.Main.Body)
	}
	return sites
}

func appendSpawnSites(sites []SpawnSite, caller string, body []StmtNode) []SpawnSite {
	var visit func(stmts []StmtNode)
	fromTxn := func(t *TxnNode) {
		var lets []*LetAction
		for _, a := range t.Actions {
			switch act := a.(type) {
			case *LetAction:
				lets = append(lets, act)
			case *SpawnAction:
				sites = append(sites, SpawnSite{
					Caller: caller,
					Callee: act.Name,
					Args:   act.Args,
					Txn:    t,
					Lets:   lets,
					Pos:    act.Pos,
				})
			}
		}
	}
	branches := func(bs []BranchNode) {
		for _, b := range bs {
			fromTxn(b.Guard)
			visit(b.Body)
		}
	}
	visit = func(stmts []StmtNode) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *TxnNode:
				fromTxn(st)
			case *SelNode:
				branches(st.Branches)
			case *RepNode:
				branches(st.Branches)
			case *ParNode:
				branches(st.Branches)
			}
		}
	}
	visit(body)
	return sites
}
