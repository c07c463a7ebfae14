// lint.go implements the lock-discipline analysis behind sdllint. It is
// deliberately stdlib-only (go/parser + go/ast, no type checker): lock
// identity is recovered from selector-chain *text*, which is stable
// because the runtime names its synchronization fields uniformly (see the
// lock-class table below). The analysis is intraprocedural and
// flow-ordered: each function body is walked in statement order with a
// held-lock multiset, function literals are independent scopes, loop
// bodies are processed once, and defers fire at scope exit. Where a
// function relies on its caller's locks, a machine-readable annotation in
// its doc comment (`lint:holds mu latch`) seeds the held set; the
// annotation is itself documentation that the linter keeps honest. One
// naming the intent class is also checked at every call, by name.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Lock classes, in the runtime's documented acquisition order (see the
// shard doc comment in internal/dataspace/store.go): a commit takes its
// key latches first, then intent locks, then shard mu; the group-commit
// queue mutex is a leaf — nothing may be acquired while it is held.
const (
	classLatch  = 1 // shard.latches[i] — striped per-key lock table
	classIntent = 2 // shard.intent — commit-discipline separator
	classMu     = 3 // shard.mu — shard data lock (also registry mutexes)
	classQueue  = 4 // shard.queue.mu — group-commit queue, leaf
)

var classNames = map[int]string{
	classLatch:  "latch",
	classIntent: "intent",
	classMu:     "mu",
	classQueue:  "queue.mu",
}

var classByName = map[string]int{
	"latch":    classLatch,
	"intent":   classIntent,
	"mu":       classMu,
	"queue":    classQueue,
	"queue.mu": classQueue,
}

// Finding is one lock-discipline violation.
type Finding struct {
	Pos  token.Position
	Rule string // lock-order, leaf-lock, unlocked-mutation, rlock-mutation, unlocked-append, rlock-append, locked-after-commit, holds-contract
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// LintDir parses every non-test .go file in dir and lints each function.
func LintDir(dir string) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	return LintFiles(paths)
}

// LintFiles lints the given Go source files.
func LintFiles(paths []string) ([]Finding, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, len(paths))
	for i, p := range paths {
		file, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files[i] = file
	}
	contracts := intentContracts(files)
	var all []Finding
	for _, file := range files {
		all = append(all, lintFile(fset, file, contracts)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}

func lintFile(fset *token.FileSet, file *ast.File, contracts map[string]bool) []Finding {
	var out []Finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sc := newScope(fset, fd.Name.Name, contracts)
		sc.seedAnnotation(fd.Doc)
		sc.walkBody(fd.Body)
		out = append(out, sc.findings...)
	}
	return out
}

// intentContracts names the functions whose annotation names the intent
// class — a commit's apply or publication. Such a contract is also checked
// at every call: the edits an apply lands were read under intent locks its
// caller must still hold, which no mutation rule sees.
func intentContracts(files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				sc := newScope(nil, "", nil)
				sc.seedAnnotation(fd.Doc)
				out[fd.Name.Name] = out[fd.Name.Name] || sc.held[classIntent] != nil
			}
		}
	}
	return out
}

// scope is the per-function analysis state. held maps lock class to
// acquisition count plus exclusivity of the most recent acquisition.
type scope struct {
	fset      *token.FileSet
	name      string
	contracts map[string]bool // see intentContracts
	held      map[int]*heldLock
	deferred  []*ast.CallExpr
	pending   []*ast.FuncLit // literals to analyze as fresh scopes
	findings  []Finding
}

type heldLock struct {
	n    int
	excl bool
}

func newScope(fset *token.FileSet, name string, contracts map[string]bool) *scope {
	return &scope{fset: fset, name: name, contracts: contracts, held: make(map[int]*heldLock)}
}

// seedAnnotation reads a `lint:holds <class ...>` line from the doc
// comment and marks those classes as exclusively held on entry — the
// contract that the function's callers hold them. The special name `rmu`
// seeds a read-held mu: the contract of functions that run on the read
// path (a secondary-index build fills a private index and publishes it),
// under which every mutation of the live maps is a finding.
func (sc *scope) seedAnnotation(doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimLeft(c.Text, "/ \t"))
		if !strings.HasPrefix(text, "lint:holds") {
			continue
		}
		for _, f := range strings.FieldsFunc(strings.TrimPrefix(text, "lint:holds"), func(r rune) bool {
			return r == ' ' || r == ',' || r == '\t'
		}) {
			if f == "rmu" {
				sc.held[classMu] = &heldLock{n: 1, excl: false}
				continue
			}
			if class, ok := classByName[f]; ok {
				sc.held[class] = &heldLock{n: 1, excl: true}
			}
		}
	}
}

func (sc *scope) addf(pos token.Pos, rule, format string, args ...any) {
	sc.findings = append(sc.findings, Finding{
		Pos:  sc.fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// walkBody processes a function body in statement order, then fires the
// deferred events, then analyzes any collected function literals as
// independent scopes.
func (sc *scope) walkBody(body *ast.BlockStmt) {
	sc.walkStmt(body)
	for i := len(sc.deferred) - 1; i >= 0; i-- {
		sc.callEvent(sc.deferred[i])
	}
	for _, lit := range sc.pending {
		inner := newScope(sc.fset, sc.name+".func", sc.contracts)
		inner.walkBody(lit.Body)
		sc.findings = append(sc.findings, inner.findings...)
	}
}

func (sc *scope) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s2 := range st.List {
			sc.walkStmt(s2)
		}
	case *ast.IfStmt:
		sc.walkStmt(st.Init)
		sc.walkExpr(st.Cond)
		if terminates(st.Body) {
			// An error-exit branch (`if err != nil { unlock; return }`)
			// releases locks only on the path that leaves the function:
			// its lock events must not leak into the fall-through state.
			saved := sc.snapshotHeld()
			sc.walkStmt(st.Body)
			sc.held = saved
		} else {
			sc.walkStmt(st.Body)
		}
		sc.walkStmt(st.Else)
	case *ast.ForStmt:
		sc.walkStmt(st.Init)
		sc.walkExpr(st.Cond)
		sc.walkStmt(st.Body) // loop body once: same-class reacquisition is legal
		sc.walkStmt(st.Post)
	case *ast.RangeStmt:
		sc.walkExpr(st.X)
		sc.walkStmt(st.Body)
	case *ast.SwitchStmt:
		sc.walkStmt(st.Init)
		sc.walkExpr(st.Tag)
		sc.walkStmt(st.Body)
	case *ast.TypeSwitchStmt:
		sc.walkStmt(st.Init)
		sc.walkStmt(st.Assign)
		sc.walkStmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			sc.walkExpr(e)
		}
		for _, s2 := range st.Body {
			sc.walkStmt(s2)
		}
	case *ast.SelectStmt:
		sc.walkStmt(st.Body)
	case *ast.CommClause:
		sc.walkStmt(st.Comm)
		for _, s2 := range st.Body {
			sc.walkStmt(s2)
		}
	case *ast.LabeledStmt:
		sc.walkStmt(st.Stmt)
	case *ast.ExprStmt:
		sc.walkExpr(st.X)
	case *ast.DeferStmt:
		// Defer fires at scope exit: queue the event, but still scan the
		// arguments (a deferred closure is analyzed separately).
		sc.deferred = append(sc.deferred, st.Call)
		for _, a := range st.Call.Args {
			sc.walkExpr(a)
		}
	case *ast.GoStmt:
		sc.walkExpr(st.Call.Fun)
		for _, a := range st.Call.Args {
			sc.walkExpr(a)
		}
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			sc.mutationEvent(l)
			sc.walkExpr(l)
		}
		for _, r := range st.Rhs {
			sc.walkExpr(r)
		}
	case *ast.IncDecStmt:
		sc.walkExpr(st.X)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			sc.walkExpr(r)
		}
	case *ast.SendStmt:
		sc.walkExpr(st.Chan)
		sc.walkExpr(st.Value)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.walkExpr(v)
					}
				}
			}
		}
	}
}

func (sc *scope) walkExpr(e ast.Expr) {
	switch ex := e.(type) {
	case nil:
	case *ast.CallExpr:
		sc.callEvent(ex)
	case *ast.FuncLit:
		sc.pending = append(sc.pending, ex)
	case *ast.BinaryExpr:
		sc.walkExpr(ex.X)
		sc.walkExpr(ex.Y)
	case *ast.UnaryExpr:
		sc.walkExpr(ex.X)
	case *ast.ParenExpr:
		sc.walkExpr(ex.X)
	case *ast.StarExpr:
		sc.walkExpr(ex.X)
	case *ast.IndexExpr:
		sc.walkExpr(ex.X)
		sc.walkExpr(ex.Index)
	case *ast.SelectorExpr:
		sc.walkExpr(ex.X)
	case *ast.SliceExpr:
		sc.walkExpr(ex.X)
		sc.walkExpr(ex.Low)
		sc.walkExpr(ex.High)
		sc.walkExpr(ex.Max)
	case *ast.TypeAssertExpr:
		sc.walkExpr(ex.X)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			sc.walkExpr(el)
		}
	case *ast.KeyValueExpr:
		sc.walkExpr(ex.Key)
		sc.walkExpr(ex.Value)
	}
}

// liveMap names the shard structure a selector chain reaches, or "" when it
// is none of them: the instance slab (its entries and its wide map), the ID
// table ids and the free list of
// vacant slots, an arity's lead index (arityIndex.leads) and a published
// secondary index (fieldIndex.buckets). The ID table is edited through its
// add/remove methods, the two indexes are idIndex values edited through
// theirs; a chain that runs on through one reaches its table's cells
// (sh.ids.cells, ai.leads.sets) or the slab its spilled sets live in
// (ai.leads.spill), which are just as live. A fresh index being filled in a
// local before publication has no such selector and is free.
func liveMap(chain string) string {
	through := func(field string) bool {
		return strings.HasSuffix(chain, field) || strings.Contains(chain, field+".")
	}
	var what string
	switch {
	case through(".slab"):
		return "live instance slab"
	case through(".ids"):
		return "live ID table"
	case strings.HasSuffix(chain, ".vacant"):
		return "live free list of slab slots"
	case through(".leads"):
		what = "lead index"
	case through(".buckets"):
		what = "published secondary index"
	default:
		return ""
	}
	if through(".spill") {
		return "spill slab of the " + what
	}
	return what
}

// callEvent interprets one call: a lock operation, a modeled store helper,
// a durability append, an index mutation, or an ordinary call (whose
// arguments may carry function literals and nested calls).
func (sc *scope) callEvent(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) > 0 {
		if what := liveMap(chainOf(call.Args[0])); what != "" {
			sc.requireExclusiveMu(call.Pos(), "mutation", "delete from the "+what)
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if h := sc.held[classIntent]; ok && sc.contracts[sel.Sel.Name] && (h == nil || h.n == 0) {
		sc.addf(call.Pos(), "holds-contract",
			"%s calls %s without holding intent, which its lint:holds contract names", sc.name, sel.Sel.Name)
	}
	if !ok {
		sc.walkExpr(call.Fun)
		for _, a := range call.Args {
			sc.walkExpr(a)
		}
		return
	}
	method := sel.Sel.Name
	recv := chainOf(sel.X)

	switch method {
	case "Lock", "RLock":
		if class := classify(recv); class != 0 {
			sc.acquire(call.Pos(), class, method == "Lock")
			return
		}
	case "Unlock", "RUnlock":
		if class := classify(recv); class != 0 {
			sc.release(class)
			return
		}
	case "lockSet":
		// Modeled helper: intent.Lock + mu.Lock per shard, ascending.
		sc.acquire(call.Pos(), classIntent, true)
		sc.acquire(call.Pos(), classMu, true)
		return
	case "lockIntents":
		// Modeled helper: a commit's intent locks per shard, ascending.
		sc.acquire(call.Pos(), classIntent, true)
		return
	case "unlockIntents":
		sc.release(classIntent)
		return
	case "unlockSet":
		sc.release(classMu)
		sc.release(classIntent)
		return
	case "rlockSet":
		sc.acquire(call.Pos(), classMu, false)
		return
	case "runlockSet":
		sc.release(classMu)
		return
	case "unlatch":
		// Modeled helper: releases the commit's key latches.
		sc.release(classLatch)
		return
	case "indexAdd", "indexRemove", "secEdit":
		sc.requireExclusiveMu(call.Pos(), "mutation", method+" on the shard indexes")
	case "place", "vacate":
		// The shard's slab mutators: a slot filled or freed, and its indexes.
		sc.requireExclusiveMu(call.Pos(), "mutation", method+" on the shard slab")
	case "add", "remove", "refile", "fit", "insert", "removeAt", "put":
		// The tables' mutators: idTable's and idIndex's add/remove file or
		// unfile a slot and refile/fit remake their table, table's
		// insert/removeAt fill or empty a cell, the slab's put fills a slot.
		if what := liveMap(recv); what != "" {
			sc.requireExclusiveMu(call.Pos(), "mutation", method+" on the "+what)
		}
	case "take":
		// spillSlab's mutator: hands a set a cell.
		if what := liveMap(recv); what != "" {
			sc.requireExclusiveMu(call.Pos(), "mutation", "cell take from the "+what)
		}
	case "bumpSeq":
		// Advances the change sequence and re-stamps maintained field
		// indexes: commit-publication work, exclusive mu only.
		sc.requireExclusiveMu(call.Pos(), "mutation", "change-sequence bump")
	case "Append":
		if strings.HasSuffix(recv, ".durable") {
			sc.requireExclusiveMu(call.Pos(), "append", "durability append")
		}
	case "runAfterCommit", "finishCommit":
		// The after-commit hooks may call back into the store, and commit;
		// finishCommit is the commit tail that runs them.
		for c := classLatch; c <= classMu; c++ {
			if h := sc.held[c]; h != nil && h.n > 0 {
				sc.addf(call.Pos(), "locked-after-commit",
					"%s runs the after-commit hooks (%s) holding %s: they may commit, so they run once the commit's locks are released",
					sc.name, method, classNames[c])
				break
			}
		}
	}
	sc.walkExpr(sel.X)
	for _, a := range call.Args {
		sc.walkExpr(a)
	}
}

// mutationEvent flags assignments into the live slab, ID table and free
// list, into an index's table, and to any field reached through a live
// index (its spill slab's free list, say): exclusive mu only.
func (sc *scope) mutationEvent(lhs ast.Expr) {
	var chain string
	switch ex := lhs.(type) {
	case *ast.IndexExpr:
		chain = chainOf(ex.X)
	case *ast.SelectorExpr:
		chain = chainOf(ex)
	default:
		return
	}
	if what := liveMap(chain); what != "" {
		sc.requireExclusiveMu(lhs.Pos(), "mutation", "write to the "+what)
	}
}

func (sc *scope) acquire(pos token.Pos, class int, excl bool) {
	if q := sc.held[classQueue]; q != nil && q.n > 0 {
		sc.addf(pos, "leaf-lock",
			"%s acquires %s while holding queue.mu: the group-commit queue mutex is a leaf lock (release it before taking anything else, as groupCommit does)",
			sc.name, classNames[class])
	} else {
		for c := class + 1; c <= classQueue; c++ {
			if h := sc.held[c]; h != nil && h.n > 0 && c != classQueue {
				sc.addf(pos, "lock-order",
					"%s acquires %s while holding %s: the lock-class order is latches -> intent -> mu -> queue.mu",
					sc.name, classNames[class], classNames[c])
				break
			}
		}
	}
	h := sc.held[class]
	if h == nil {
		h = &heldLock{}
		sc.held[class] = h
	}
	h.n++
	h.excl = excl
}

// snapshotHeld deep-copies the held set so a terminating branch can be
// walked (collecting findings) without its lock events escaping.
func (sc *scope) snapshotHeld() map[int]*heldLock {
	out := make(map[int]*heldLock, len(sc.held))
	for c, h := range sc.held {
		cp := *h
		out[c] = &cp
	}
	return out
}

// terminates reports whether a block always leaves the enclosing scope:
// its last statement is a return, a branch (break/continue/goto), or a
// panic call.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// release is best-effort: branch-dependent unlocks (early returns) make an
// exact pairing undecidable without a CFG, so releasing an unheld class is
// ignored rather than reported.
func (sc *scope) release(class int) {
	if h := sc.held[class]; h != nil && h.n > 0 {
		h.n--
	}
}

func (sc *scope) requireExclusiveMu(pos token.Pos, family, what string) {
	h := sc.held[classMu]
	switch {
	case h == nil || h.n == 0:
		sc.addf(pos, "unlocked-"+family,
			"%s performs a %s with no shard mu held (annotate the function with `lint:holds mu` if its callers hold it)",
			sc.name, what)
	case !h.excl:
		sc.addf(pos, "rlock-"+family,
			"%s performs a %s under a read-locked mu: this requires the exclusive lock",
			sc.name, what)
	}
}

// chainOf renders a selector chain as dotted text with index expressions
// collapsed to `[]`: s.shards[i].latches[l.stripe] -> "s.shards[].latches[]".
// Non-chain expressions render as "".
func chainOf(e ast.Expr) string {
	switch ex := e.(type) {
	case *ast.Ident:
		return ex.Name
	case *ast.SelectorExpr:
		base := chainOf(ex.X)
		if base == "" {
			return ""
		}
		return base + "." + ex.Sel.Name
	case *ast.IndexExpr:
		base := chainOf(ex.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	case *ast.ParenExpr:
		return chainOf(ex.X)
	case *ast.StarExpr:
		return chainOf(ex.X)
	}
	return ""
}

// classify maps a lock selector chain to its class, by suffix:
//
//	*.latches[]  -> latch
//	*.intent     -> intent
//	*.queue.mu   -> queue.mu (leaf)
//	*.mu         -> mu (shard data locks and registry mutexes)
//
// Anything else (sync primitives outside the discipline) is class 0 and
// ignored.
func classify(chain string) int {
	switch {
	case chain == "":
		return 0
	case strings.HasSuffix(chain, ".latches[]"):
		return classLatch
	case strings.HasSuffix(chain, ".intent"):
		return classIntent
	case strings.HasSuffix(chain, ".queue.mu"):
		return classQueue
	case strings.HasSuffix(chain, ".mu") || chain == "mu":
		return classMu
	}
	return 0
}
