package pattern

import (
	"fmt"
	"sync"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// The matcher compiles a query, once per enumeration, into a small program
// over a slot frame and runs the backtracking join on that program.
//
// Every value a pattern field is compared with or bound to lives in one
// []tuple.Value frame: the variables the query can bind get slots from the
// bottom, in first-binding order, and the values fixed for the whole run —
// literals, and variables the base environment binds — are pre-loaded from
// the top. Which occurrence of a variable binds it and which ones test it
// is decided by the join order, so boundness is settled when the program is
// compiled (the names resolved so far are the bound mask) and the candidate
// loop never asks: each pattern field is one op over one slot.
//
// The frame is also the expr.Scope that every expression of the query —
// computed fields, guards, the test query — evaluates against: the slots
// bound so far, then the read-only base environment. Which slots are bound
// follows from their position. A step binds the slots right after the ones
// earlier steps bound, in field order, so the bound slots are a prefix of
// the positive patterns' slots plus, inside a negated step, a prefix of that
// step's own (frame.enter). Backtracking undoes nothing: a slot past the
// bound range keeps its stale value, and no lookup reaches it.
//
// A solution is appended to a Table as one row of its positive slots'
// values, and no map is built. Only the Binding-shaped entry points — Solve,
// SolveAll, AppendSolutions, Enumerate — build one per solution (binding),
// from the frame as the solution is found.

// opKind is what one compiled pattern field does with a tuple field.
type opKind uint8

const (
	opWild  opKind = iota // matches anything
	opConst               // must Equal a pre-loaded slot: a literal, or a variable the base environment binds
	opCheck               // must Equal the slot of a variable bound earlier in the run
	opBind                // first occurrence of a variable: store into its slot
	opExpr                // must Equal the field's expression under the frame's scope
)

// fieldOp is one compiled pattern field; op i of a pattern belongs to its
// field i.
type fieldOp struct {
	kind opKind
	slot int32
}

// frame is the value state of one run. Both slices are sized up front, to
// one slot per pattern field. Apart from Lookup, which only a pooled
// matcher's frame serves, a frame's methods never hand the frame or its base
// to an interface — the scope an expression reads and the base are passed in
// — so a frame built over stack arrays stays on the stack.
type frame struct {
	names  []string      // variable slot -> name
	vals   []tuple.Value // slot -> value: variables [0, n), constants [consts, len)
	base   expr.Scope    // the caller's environment, read-only; nil binds nothing
	n      int           // variable slots in use
	nsol   int           // of those, the slots positive patterns bind; the rest belong to negated ones
	consts int           // lowest constant slot in use

	// The scope: slots [0, outer) and [local, bound) are bound (see enter).
	outer, local, bound int
}

// enter sets the scope to what is bound when a step starts: the slots
// [0, outer) of the steps before it, and none yet of its own, which start
// at local.
func (f *frame) enter(outer, local int) {
	f.outer, f.local, f.bound = outer, local, local
}

// Lookup implements expr.Scope: the bound slots, then the base environment.
func (f *frame) Lookup(name string) (tuple.Value, bool) {
	for i, n := range f.names[:f.outer] {
		if n == name {
			return f.vals[i], true
		}
	}
	for i := f.local; i < f.bound; i++ {
		if f.names[i] == name {
			return f.vals[i], true
		}
	}
	return lookup(f.base, name)
}

// lookup resolves name in s; a nil s binds nothing.
func lookup(s expr.Scope, name string) (tuple.Value, bool) {
	if s == nil {
		return tuple.Value{}, false
	}
	return s.Lookup(name)
}

// slot resolves a variable to the slot an earlier op binds: one of the
// positive patterns' slots, or one at or after local (the pattern's own, for
// a negated pattern, whose bindings no other pattern sees). -1 when unbound.
func (f *frame) slot(name string, local int) int {
	for i, n := range f.names[:f.nsol] {
		if n == name {
			return i
		}
	}
	for i := local; i < f.n; i++ {
		if f.names[i] == name {
			return i
		}
	}
	return -1
}

// compile translates p's fields into ops — len(p.Fields) of them, zero on
// entry (a fresh buffer, or one release cleared) — allocating a variable
// slot for each variable that neither an earlier op nor base binds and a
// constant slot for each value fixed for the run. base is passed on its own
// rather than read from the frame: an interface call on a frame field would
// move the frame's stack arrays to the heap.
func (f *frame) compile(p *Pattern, ops []fieldOp, base expr.Scope) {
	local := f.n
	load := func(v tuple.Value) int32 {
		f.consts--
		f.vals[f.consts] = v
		return int32(f.consts)
	}
	for i := range p.Fields {
		fd, op := &p.Fields[i], &ops[i]
		switch fd.Kind {
		case FieldConst:
			op.kind, op.slot = opConst, load(fd.Value)
		case FieldVar:
			if s := f.slot(fd.Name, local); s >= 0 {
				op.kind, op.slot = opCheck, int32(s)
			} else if v, ok := lookup(base, fd.Name); ok {
				op.kind, op.slot = opConst, load(v)
			} else {
				op.kind, op.slot = opBind, int32(f.n)
				f.names[f.n] = fd.Name
				f.n++
			}
		case FieldExpr:
			op.kind = opExpr
		}
	}
}

// match runs p's ops against t, widening the scope over each slot it binds.
// s is the frame itself as a scope, for computed fields to read — nil when p
// has none. It reports whether every field matched.
func (f *frame) match(p *Pattern, ops []fieldOp, t tuple.Tuple, s expr.Scope) bool {
	if t.Arity() != len(ops) {
		return false
	}
	for i, op := range ops {
		fv := t.Field(i)
		switch op.kind {
		case opConst, opCheck:
			if !f.vals[op.slot].Equal(fv) {
				return false
			}
		case opBind:
			f.vals[op.slot] = fv
			f.bound = int(op.slot) + 1
		case opExpr:
			// An unevaluable computed field (a variable not bound yet)
			// fails the candidate; it is not an error.
			if want, err := p.Fields[i].Expr.Eval(s); err != nil || !want.Equal(fv) {
				return false
			}
		}
	}
	return true
}

// Match reports whether t matches p on its own under s — constants equal,
// variables bound in s equal, a repeated variable equal to its first
// occurrence, computed fields equal to their value under s extended with
// p's bindings — and, when where is non-nil, whether where holds under that
// extended scope. p's guard is not consulted. A nil s binds nothing. s is
// never modified, and nothing is allocated.
func (p Pattern) Match(t tuple.Tuple, s expr.Scope, where expr.Expr) bool {
	n := len(p.Fields)
	if t.Arity() != n {
		return false
	}
	if where != nil || p.computed() {
		// An expression reads the frame as its scope, which moves the frame
		// to the heap: borrow a pooled matcher's.
		m := matchers.Get().(*matcher)
		defer m.release()
		return m.matchOne(&p, t, s, where)
	}
	// The program of one pattern fits the stack for ordinary arities.
	const inline = 8
	var (
		opBuf   [inline]fieldOp
		nameBuf [inline]string
		valBuf  [inline]tuple.Value
	)
	f := frame{names: nameBuf[:], vals: valBuf[:]}
	ops := opBuf[:]
	if n > inline {
		f.names, f.vals = make([]string, n), make([]tuple.Value, n)
		ops = make([]fieldOp, n)
	}
	f.consts = len(f.vals)
	ops = ops[:n]
	f.compile(&p, ops, s)
	return f.match(&p, ops, t, nil)
}

// computed reports whether some field of p is an expression.
func (p *Pattern) computed() bool {
	for i := range p.Fields {
		if p.Fields[i].Kind == FieldExpr {
			return true
		}
	}
	return false
}

// matchOne is Pattern.Match over the matcher's frame, the scope p's computed
// fields and where read.
func (m *matcher) matchOne(p *Pattern, t tuple.Tuple, s expr.Scope, where expr.Expr) bool {
	n := len(p.Fields)
	m.base = s
	m.names, m.vals, m.consts = grow(m.names, n), grow(m.vals, n), n
	m.ops = grow(m.ops, n)
	m.frame.compile(p, m.ops, s)
	if !m.match(p, m.ops, t, &m.frame) {
		return false
	}
	holds, err := expr.EvalBool(where, &m.frame)
	return err == nil && holds
}

// step is one pattern of the compiled program.
type step struct {
	pat   *Pattern
	ops   []fieldOp
	sels  []FieldSel // this step's selector buffer (cap = arity), see scan
	pi    int        // pat's index in the query
	local int        // first variable slot the step can bind
	outer int        // the slots [0, outer) bound when the step starts (see frame.enter)
	// constrains: some non-lead field could yield a field selector (is
	// anything but a wildcard).
	constrains bool
}

// matcher is the whole state of one enumeration. Nothing in it is allocated
// per candidate, per depth or per backtrack, and the value itself is pooled,
// so an enumeration allocates nothing of its own.
type matcher struct {
	frame
	q     Query
	src   Source
	fsrc  FieldSource        // src's field-index access path, if it has one
	fn    func(Binding) bool // Enumerate's consumer
	first bool               // stop after one solution
	tab   *Table             // Table.Collect's table; nil: solutions become Bindings
	ex    *metrics.Explain   // the execution's explain record; nil unless observed

	steps []step     // positive patterns in join order, then negated ones as written
	npos  int        // number of positive steps
	order []int      // pattern indexes in step order
	costs []float64  // the planner's costs of a query longer than planInline
	ops   []fieldOp  // backing of every step's ops
	sels  []FieldSel // backing of every step's selector buffer

	// deliver[k] is step k's scan callback, built once per matcher;
	// counted[k] is the same callback counting what it visits into ex.
	deliver  []func(tuple.ID, tuple.Tuple) bool
	counted  []func(tuple.ID, tuple.Tuple) bool
	retracts []Match   // retract-tagged matches of the current partial solution
	arena    []Match   // the matches of the Bindings handed out; never reused
	sols     []Binding // the Bindings collected for Solve and AppendSolutions
	found    bool      // a negated step's scan found a violation
	stopped  bool      // the consumer asked for no more solutions
	err      error
}

var matchers = sync.Pool{New: func() any { return new(matcher) }}

// grow returns s with length n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release drops every reference the run left in the matcher — tuples,
// values, expressions, the source, the caller's environment and table — and
// returns it to the pool. Bindings already handed out own their memory.
func (m *matcher) release() {
	clear(m.names)
	clear(m.vals)
	clear(m.steps)
	clear(m.ops)
	clear(m.sels)
	clear(m.retracts[:cap(m.retracts)])
	clear(m.sols)
	*m = matcher{
		frame:    frame{names: m.names[:0], vals: m.vals[:0]},
		steps:    m.steps[:0],
		order:    m.order[:0],
		costs:    m.costs,
		ops:      m.ops[:0],
		sels:     m.sels[:0],
		retracts: m.retracts[:0],
		sols:     m.sols[:0],
		deliver:  m.deliver,
		counted:  m.counted,
	}
	matchers.Put(m)
}

// run enumerates q's solutions over src from base: into tab, an empty
// table, or, when tab is nil, as Bindings handed to fn or collected. A
// non-nil ex gets one step per pattern (see metrics.Explain).
func (m *matcher) run(q Query, src Source, base expr.Scope, fn func(Binding) bool, first bool, tab *Table, ex *metrics.Explain) error {
	if err := q.Validate(); err != nil {
		return err
	}
	m.q, m.src, m.base, m.fn, m.first, m.tab, m.ex = q, src, base, fn, first, tab, ex
	m.fsrc, _ = src.(FieldSource)
	m.compile()
	if tab != nil {
		tab.base, tab.cols = base, append(tab.cols, m.names[:m.nsol]...)
	}
	if m.npos == 0 {
		m.solution()
	} else {
		m.scan(0)
	}
	return m.err
}

// compile builds the program: the join order from planJoinOrder, then one
// step per pattern in the order the run visits them.
func (m *matcher) compile() {
	q := m.q
	fields, nret := 0, 0
	for i := range q.Patterns {
		p := &q.Patterns[i]
		fields += len(p.Fields)
		if p.Retract {
			nret++
		}
		if !p.Negated {
			m.order = append(m.order, i)
		}
	}
	m.npos = len(m.order)
	planJoinOrder(q, m.order, m.base, m.src, &m.costs)
	for i := range q.Patterns {
		if q.Patterns[i].Negated {
			m.order = append(m.order, i)
		}
	}

	m.names, m.vals, m.consts = grow(m.names, fields), grow(m.vals, fields), fields
	m.ops, m.sels = grow(m.ops, fields), grow(m.sels, fields)
	m.retracts = grow(m.retracts, nret)[:0]
	off := 0
	for k, pi := range m.order {
		p := &q.Patterns[pi]
		n := len(p.Fields)
		st := step{pat: p, ops: m.ops[off : off+n], sels: m.sels[off : off : off+n], pi: pi, local: m.n, outer: m.n}
		off += n
		if k >= m.npos {
			st.outer = m.nsol // a negated step sees the positive slots, not its negated siblings'
		}
		m.frame.compile(p, st.ops, m.base)
		if k < m.npos {
			m.nsol = m.n
		}
		for i := 1; i < n; i++ {
			st.constrains = st.constrains || st.ops[i].kind != opWild
		}
		m.steps = append(m.steps, st)
	}
	for k := len(m.deliver); k < len(m.steps); k++ {
		m.deliver = append(m.deliver, func(id tuple.ID, t tuple.Tuple) bool { return m.candidate(k, id, t) })
	}
	if m.ex != nil {
		m.explainSteps()
	}
}

// explainSteps starts the explain record's steps, one per step in join
// order, and builds the counting scan callbacks.
func (m *matcher) explainSteps() {
	m.ex.Steps = grow(m.ex.Steps, len(m.steps))
	for k := range m.steps {
		st := &m.steps[k]
		lead := metrics.LeadUnknown // arity 0 has no lead
		if len(st.ops) > 0 {
			lead = leadOf[st.ops[0].kind]
		}
		m.ex.Steps[k] = metrics.Step{Order: k, Pattern: st.pi, Negated: k >= m.npos, Lead: lead}
	}
	for k := len(m.counted); k < len(m.steps); k++ {
		m.counted = append(m.counted, func(id tuple.ID, t tuple.Tuple) bool {
			m.ex.Steps[k].Visited++
			return m.candidate(k, id, t)
		})
	}
}

// leadOf is where a lead compiled to each op comes from. A lead's opCheck
// always reads an earlier step's slot: the lead is its pattern's first
// field.
var leadOf = [...]metrics.Lead{opWild: metrics.LeadUnknown, opConst: metrics.LeadConst,
	opCheck: metrics.LeadEarlier, opBind: metrics.LeadUnknown, opExpr: metrics.LeadComputed}

// known resolves the value step st requires at field i when it is determined
// before the step's scan starts: a constant, a slot an earlier step bound, or
// a computed field that evaluates under the bindings so far.
func (m *matcher) known(st *step, i int) (tuple.Value, bool) {
	if i >= len(st.ops) {
		return tuple.Value{}, false
	}
	switch op := st.ops[i]; op.kind {
	case opConst:
		return m.vals[op.slot], true
	case opCheck:
		return m.vals[op.slot], int(op.slot) < st.local
	case opExpr:
		v, err := st.pat.Fields[i].Expr.Eval(m)
		return v, err == nil
	}
	return tuple.Value{}, false
}

// scan delivers step k's candidates to candidate: through the source's
// secondary field indexes when that can beat the plain scan — always for an
// unknown lead (the alternative is the arity scan), and for a known lead only
// when the source reports the lead bucket wide enough that a (pos, value)
// bucket could be smaller — and through Scan otherwise. Small lead buckets
// never reach the selector buffer, so a lead-keyed point query pays one
// LeadWide probe. A nested scan must not overwrite the selectors of the scan
// it runs inside (a source may consult them once per shard), hence one
// buffer per step.
func (m *matcher) scan(k int) {
	st := &m.steps[k]
	m.enter(st.outer, st.local)
	arity := len(st.ops)
	lead, leadKnown := m.known(st, 0)
	if m.fsrc != nil && (!leadKnown || st.constrains && m.fsrc.LeadWide(arity, lead)) {
		sels := st.sels
		if leadKnown {
			sels = append(sels, FieldSel{Pos: 0, Val: lead})
		}
		fixed := len(sels)
		for i := 1; i < arity; i++ {
			if v, ok := m.known(st, i); ok {
				sels = append(sels, FieldSel{Pos: i, Val: v})
			}
		}
		if len(sels) > fixed {
			m.fsrc.ScanFields(arity, sels, m.visit(k, metrics.PathField))
			return
		}
	}
	path := metrics.PathArity
	if leadKnown {
		path = metrics.PathLead
	}
	m.src.Scan(arity, lead, leadKnown, m.visit(k, path))
}

// visit returns step k's scan callback for a scan on path: the plain one, or,
// when an explain record is attached, the counting one, with the scan
// counted on its path.
func (m *matcher) visit(k int, path metrics.Path) func(tuple.ID, tuple.Tuple) bool {
	if m.ex == nil {
		return m.deliver[k]
	}
	m.ex.Steps[k].Scans[path]++
	return m.counted[k]
}

// candidate matches one delivered tuple against step k and, for a positive
// step, continues the join beneath it. It reports whether the scan should
// go on.
func (m *matcher) candidate(k int, id tuple.ID, t tuple.Tuple) bool {
	st := &m.steps[k]
	negated := k >= m.npos
	if st.pat.Retract {
		// One instance can be retracted only once: retract-tagged patterns
		// match pairwise-distinct instances (read patterns may alias).
		for i := range m.retracts {
			if m.retracts[i].ID == id {
				return true
			}
		}
	}
	// The steps beneath the previous candidate moved the scope on.
	m.enter(st.outer, st.local)
	ok := m.match(st.pat, st.ops, t, m)
	if ok && st.pat.Guard != nil {
		var err error
		ok, err = expr.EvalBool(st.pat.Guard, m)
		switch {
		case err == nil:
		case negated:
			m.err = fmt.Errorf("pattern: negation guard: %w", err)
		default:
			m.err = fmt.Errorf("pattern: guard: %w", err)
		}
	}
	if ok && m.ex != nil {
		m.ex.Steps[k].Matched++
	}
	if ok && !negated {
		if st.pat.Retract {
			m.retracts = append(m.retracts, Match{PatternIndex: st.pi, ID: id, Tuple: t, Retract: true})
		}
		if k+1 < m.npos {
			m.scan(k + 1)
		} else {
			m.solution()
		}
		if st.pat.Retract {
			m.retracts = m.retracts[:len(m.retracts)-1]
		}
	}
	if negated {
		// A tuple the guard rejects does not count as a violation.
		m.found = ok
		return !ok && m.err == nil
	}
	return !m.stopped && m.err == nil
}

// solution runs once every positive step has matched: the test query and the
// negated patterns decide whether the bindings are a solution, and a
// solution becomes a row of the table. Variables that appear only in negated
// patterns act as wildcards.
func (m *matcher) solution() {
	if m.q.Test != nil {
		ok, err := expr.EvalBool(m.q.Test, m)
		if err != nil {
			m.err = fmt.Errorf("pattern: test query: %w", err)
		}
		if !ok {
			return
		}
	}
	for k := m.npos; k < len(m.steps); k++ {
		if m.scan(k); m.found || m.err != nil {
			m.found = false
			return
		}
	}
	if m.tab != nil {
		m.tab.add(m.vals[:m.nsol], m.retracts)
		m.stopped = m.first
		return
	}
	// The Binding-shaped entry points get each solution as a Binding. Its
	// matches go to an arena that the handed-out Bindings share: each takes
	// the tail appended for it, which no later append overwrites.
	var matched []Match
	if n := len(m.retracts); n > 0 {
		m.arena = append(m.arena, m.retracts...)
		matched = m.arena[len(m.arena)-n : len(m.arena) : len(m.arena)]
	}
	b := binding(m.names[:m.nsol], m.vals[:m.nsol], m.base, matched)
	if m.fn != nil {
		m.stopped = !m.fn(b)
		return
	}
	m.sols = append(m.sols, b)
	m.stopped = m.first
}
