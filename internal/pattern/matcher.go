package pattern

import (
	"fmt"
	"sync"

	"github.com/sdl-lang/sdl/internal/expr"
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
// Expressions (computed fields, guards, the test query) evaluate against an
// expr.Env. A query that carries one runs with a scratch environment — the
// base environment plus the current bindings, kept in step by the bind op —
// and a query that carries none runs with no map at all.

// opKind is what one compiled pattern field does with a tuple field.
type opKind uint8

const (
	opWild  opKind = iota // matches anything
	opConst               // must Equal a pre-loaded slot: a literal, or a variable the base environment binds
	opCheck               // must Equal the slot of a variable bound earlier in the run
	opBind                // first occurrence of a variable: store into its slot
	opExpr                // must Equal the field's expression under the scratch environment
)

// fieldOp is one compiled pattern field; op i of a pattern belongs to its
// field i.
type fieldOp struct {
	kind opKind
	slot int32
}

// frame is the value state of one run. Both slices are sized up front, to
// one slot per pattern field, and the environments around the frame are
// passed to its methods rather than kept in it — so a frame built over stack
// arrays stays on the stack.
type frame struct {
	names  []string      // variable slot -> name
	vals   []tuple.Value // slot -> value: variables [0, n), constants [consts, len)
	n      int           // variable slots in use
	nsol   int           // of those, the slots positive patterns bind; the rest belong to negated ones
	consts int           // lowest constant slot in use
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
// slot for each variable that neither an earlier op nor the base environment
// binds and a constant slot for each value fixed for the run. It reports
// whether a field is computed.
func (f *frame) compile(p *Pattern, ops []fieldOp, base expr.Env) (computed bool) {
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
			} else if v, ok := base[fd.Name]; ok {
				op.kind, op.slot = opConst, load(v)
			} else {
				op.kind, op.slot = opBind, int32(f.n)
				f.names[f.n] = fd.Name
				f.n++
			}
		case FieldExpr:
			op.kind = opExpr
			computed = true
		}
	}
	return computed
}

// match runs p's ops against t. env is the scratch environment — the base
// environment plus the current bindings — when an expression will read it,
// nil otherwise. It returns how many bind ops executed (the count unbind
// needs, on failure too) and whether every field matched.
func (f *frame) match(p *Pattern, ops []fieldOp, t tuple.Tuple, env expr.Env) (bound int, ok bool) {
	if t.Arity() != len(ops) {
		return 0, false
	}
	for i, op := range ops {
		fv := t.Field(i)
		switch op.kind {
		case opConst, opCheck:
			if !f.vals[op.slot].Equal(fv) {
				return bound, false
			}
		case opBind:
			f.vals[op.slot] = fv
			if env != nil {
				env[f.names[op.slot]] = fv
			}
			bound++
		case opExpr:
			// An unevaluable computed field (a variable not bound yet)
			// fails the candidate; it is not an error.
			if want, err := p.Fields[i].Expr.Eval(env); err != nil || !want.Equal(fv) {
				return bound, false
			}
		}
	}
	return bound, true
}

// unbind removes the first bound bindings of ops from the scratch
// environment, so an expression evaluated after backtracking sees exactly the
// variables in scope. The frame needs no undo: a slot is read only by ops
// compiled after the one that binds it.
func (f *frame) unbind(ops []fieldOp, bound int, env expr.Env) {
	if env == nil {
		return
	}
	for i := 0; bound > 0; i++ {
		if ops[i].kind == opBind {
			delete(env, f.names[ops[i].slot])
			bound--
		}
	}
}

// Match reports whether t matches p on its own under env — constants equal,
// variables bound in env equal, a repeated variable equal to its first
// occurrence, computed fields equal to their value under env extended with
// p's bindings — and, when where is non-nil, whether where holds under that
// extended environment. p's guard is not consulted. env is never modified,
// and nothing is allocated unless p binds a variable that where or a
// computed field may read.
func (p Pattern) Match(t tuple.Tuple, env expr.Env, where expr.Expr) bool {
	n := len(p.Fields)
	if t.Arity() != n {
		return false
	}
	// The program of one pattern fits the stack for ordinary arities.
	const inline = 8
	var (
		opBuf   [inline]fieldOp
		nameBuf [inline]string
		valBuf  [inline]tuple.Value
	)
	var f frame
	f.names, f.vals = nameBuf[:], valBuf[:]
	ops := opBuf[:]
	if n > inline {
		f.names, f.vals = make([]string, n), make([]tuple.Value, n)
		ops = make([]fieldOp, n)
	}
	f.consts = len(f.vals)
	ops = ops[:n]
	// Only a computed field reads bindings while the match runs; a where
	// clause reads them after it, so a tuple that fails costs no clone.
	computed := f.compile(&p, ops, env)
	scratch := env
	if computed && f.n > 0 {
		scratch = env.Clone()
	}
	var mirror expr.Env
	if computed {
		mirror = scratch
	}
	if _, ok := f.match(&p, ops, t, mirror); !ok {
		return false
	}
	if where == nil {
		return true
	}
	if !computed && f.n > 0 {
		scratch = env.Clone()
		for i, name := range f.names[:f.n] {
			scratch[name] = f.vals[i]
		}
	}
	holds, err := expr.EvalBool(where, scratch)
	return err == nil && holds
}

// step is one pattern of the compiled program.
type step struct {
	pat   *Pattern
	ops   []fieldOp
	sels  []FieldSel // this step's selector buffer (cap = arity), see scan
	pi    int        // pat's index in the query
	local int        // first variable slot the step can bind
	// constrains: some non-lead field could yield a field selector (is
	// anything but a wildcard).
	constrains bool
}

// matcher is the whole state of one enumeration. Nothing in it is allocated
// per candidate, per depth or per backtrack, and the value itself is pooled,
// so an enumeration allocates only what it hands out: per solution, one
// exact-size environment (and the retract-tagged matches, appended to one
// arena shared by the run's solutions).
type matcher struct {
	frame
	base  expr.Env // the caller's environment, read-only
	env   expr.Env // scratch when the query carries an expression, else nil (see frame.match)
	q     Query
	src   Source
	fsrc  FieldSource        // src's field-index access path, if it has one
	fn    func(Binding) bool // nil: collect into sols
	first bool               // collecting: stop after one solution

	steps []step     // positive patterns in join order, then negated ones as written
	npos  int        // number of positive steps
	order []int      // pattern indexes in step order
	ops   []fieldOp  // backing of every step's ops
	sels  []FieldSel // backing of every step's selector buffer

	// deliver[k] is step k's scan callback, built once per matcher.
	deliver  []func(tuple.ID, tuple.Tuple) bool
	retracts []Match   // retract-tagged matches of the current partial solution
	arena    []Match   // retract-tagged matches of the solutions handed out
	sols     []Binding // solutions collected for Solve and AppendSolutions
	scratch  expr.Env  // the map behind env, kept across runs
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
// values, expressions, the source, the caller's environment — and returns it
// to the pool. Solutions already handed out own their memory.
func (m *matcher) release() {
	clear(m.names)
	clear(m.vals)
	clear(m.steps)
	clear(m.ops)
	clear(m.sels)
	clear(m.retracts[:cap(m.retracts)])
	clear(m.sols)
	clear(m.scratch)
	*m = matcher{
		frame:    frame{names: m.names[:0], vals: m.vals[:0]},
		steps:    m.steps[:0],
		order:    m.order[:0],
		ops:      m.ops[:0],
		sels:     m.sels[:0],
		retracts: m.retracts[:0],
		sols:     m.sols[:0],
		deliver:  m.deliver,
		scratch:  m.scratch,
	}
	matchers.Put(m)
}

// run enumerates q's solutions over src from base.
func (m *matcher) run(q Query, src Source, base expr.Env, fn func(Binding) bool, first bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	m.q, m.src, m.base, m.fn, m.first = q, src, base, fn, first
	m.fsrc, _ = src.(FieldSource)
	m.compile()
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
	needEnv := q.Test != nil
	for i := range q.Patterns {
		p := &q.Patterns[i]
		fields += len(p.Fields)
		needEnv = needEnv || p.Guard != nil
		if p.Retract {
			nret++
		}
		if !p.Negated {
			m.order = append(m.order, i)
		}
	}
	m.npos = len(m.order)
	if q.Plan == PlanAuto {
		planJoinOrder(q, m.order, m.base, m.src)
	}
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
		st := step{pat: p, ops: m.ops[off : off+n], sels: m.sels[off : off : off+n], pi: pi, local: m.n}
		off += n
		if m.frame.compile(p, st.ops, m.base) {
			needEnv = true
		}
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
	if needEnv {
		if m.scratch == nil {
			m.scratch = make(expr.Env, len(m.base)+m.n)
		}
		for k, v := range m.base {
			m.scratch[k] = v
		}
		m.env = m.scratch
	}
}

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
		v, err := st.pat.Fields[i].Expr.Eval(m.env)
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
			m.fsrc.ScanFields(arity, sels, m.deliver[k])
			return
		}
	}
	m.src.Scan(arity, lead, leadKnown, m.deliver[k])
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
	bound, ok := m.match(st.pat, st.ops, t, m.env)
	if ok && st.pat.Guard != nil {
		var err error
		ok, err = expr.EvalBool(st.pat.Guard, m.env)
		switch {
		case err == nil:
		case negated:
			m.err = fmt.Errorf("pattern: negation guard: %w", err)
		default:
			m.err = fmt.Errorf("pattern: guard: %w", err)
		}
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
	m.unbind(st.ops, bound, m.env)
	if negated {
		// A tuple the guard rejects does not count as a violation.
		m.found = ok
		return !ok && m.err == nil
	}
	return !m.stopped && m.err == nil
}

// solution runs once every positive step has matched: the test query and the
// negated patterns decide whether the bindings are a solution, and a
// solution is materialised — the only point where the matcher allocates.
// Variables that appear only in negated patterns act as wildcards there.
func (m *matcher) solution() {
	if m.q.Test != nil {
		ok, err := expr.EvalBool(m.q.Test, m.env)
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
	sol := Binding{Env: make(expr.Env, len(m.base)+m.nsol)}
	for name, v := range m.base {
		sol.Env[name] = v
	}
	for i, name := range m.names[:m.nsol] {
		sol.Env[name] = m.vals[i]
	}
	if n := len(m.retracts); n > 0 {
		m.arena = append(m.arena, m.retracts...)
		sol.Matched = m.arena[len(m.arena)-n : len(m.arena) : len(m.arena)]
	}
	if m.fn != nil {
		m.stopped = !m.fn(sol)
	} else {
		m.sols = append(m.sols, sol)
		m.stopped = m.first
	}
}
