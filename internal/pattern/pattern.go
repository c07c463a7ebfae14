// Package pattern implements SDL queries: tuple patterns built from
// constants, wildcards ('*'), and quantified variables; binding queries
// (conjunctions of patterns, some tagged for retraction, some negated); test
// queries (boolean expressions over the bound variables); and the
// existential / universal quantifiers.
//
// The matcher performs a backtracking relational join over a tuple source
// and yields solutions: variable environments plus the tuple instances
// matched by each positive pattern (needed to translate retraction tags
// into dataspace retractions).
package pattern

import (
	"fmt"
	"strings"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/tuple"
)

// FieldKind discriminates pattern fields.
type FieldKind uint8

// Pattern field kinds.
const (
	FieldInvalid  FieldKind = iota
	FieldConst              // a literal value that must Equal the tuple field
	FieldWildcard           // '*' — matches anything, binds nothing
	FieldVar                // a variable: binds on first use, must Equal after
	FieldExpr               // a computed value: expression over earlier bindings
)

// Field is one position of a tuple pattern.
type Field struct {
	Kind  FieldKind
	Value tuple.Value // FieldConst
	Name  string      // FieldVar
	Expr  expr.Expr   // FieldExpr
}

// C returns a constant field.
func C(v tuple.Value) Field { return Field{Kind: FieldConst, Value: v} }

// W returns a wildcard field.
func W() Field { return Field{Kind: FieldWildcard} }

// V returns a variable field.
func V(name string) Field { return Field{Kind: FieldVar, Name: name} }

// E returns a computed field whose value is an expression over variables
// bound earlier in the query (e.g. the pattern <k-2^(j-1), α, j> in Sum2).
func E(e expr.Expr) Field { return Field{Kind: FieldExpr, Expr: e} }

func (f Field) String() string {
	switch f.Kind {
	case FieldConst:
		return f.Value.String()
	case FieldWildcard:
		return "*"
	case FieldVar:
		return f.Name
	case FieldExpr:
		return f.Expr.String()
	default:
		return "?"
	}
}

// Pattern is one tuple pattern in a binding query.
type Pattern struct {
	Fields []Field
	// Retract marks the pattern with the paper's '↑' tag: the matched tuple
	// instance is retracted when the transaction commits.
	Retract bool
	// Negated marks the pattern with '¬': the query succeeds only if no
	// tuple matches. A negated pattern binds no variables and cannot carry
	// a Retract tag.
	Negated bool
	// Guard is an optional per-pattern predicate over the bindings in
	// scope after the pattern matches. For a positive pattern it filters
	// candidates during the join; for a negated pattern it restricts which
	// tuples count as violations, expressing guarded negation such as
	// "¬∃ q,λ': <q, label, λ'> ∧ λ' ≠ λ".
	Guard expr.Expr
	// lit is the pattern's tuple when a compiler built it ahead (Literal).
	lit tuple.Tuple
}

// Guarded returns a copy of the pattern with the guard predicate attached.
func (p Pattern) Guarded(g expr.Expr) Pattern {
	p.Guard = g
	return p
}

// P builds a positive (read) pattern.
func P(fields ...Field) Pattern { return Pattern{Fields: fields} }

// R builds a retract-tagged pattern.
func R(fields ...Field) Pattern { return Pattern{Fields: fields, Retract: true} }

// N builds a negated pattern.
func N(fields ...Field) Pattern { return Pattern{Fields: fields, Negated: true} }

// Arity returns the number of fields the pattern requires.
func (p Pattern) Arity() int { return len(p.Fields) }

// Validate reports structural errors (negated+retract, invalid fields).
func (p Pattern) Validate() error {
	if p.Negated && p.Retract {
		return fmt.Errorf("pattern: %s is both negated and retract-tagged", p)
	}
	for i, f := range p.Fields {
		switch f.Kind {
		case FieldConst, FieldWildcard:
		case FieldVar:
			if f.Name == "" {
				return fmt.Errorf("pattern: empty variable name at field %d", i)
			}
		case FieldExpr:
			if f.Expr == nil {
				return fmt.Errorf("pattern: nil expression at field %d", i)
			}
		default:
			return fmt.Errorf("pattern: invalid field %d", i)
		}
	}
	return nil
}

func (p Pattern) String() string {
	var b strings.Builder
	if p.Negated {
		b.WriteString("not ")
	}
	b.WriteByte('<')
	for i, f := range p.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte('>')
	if p.Retract {
		b.WriteByte('!')
	}
	if p.Guard != nil {
		b.WriteString(" if ")
		b.WriteString(p.Guard.String())
	}
	return b.String()
}

// Lead computes the index key of the pattern's leading field under s: the
// concrete value the matched tuple must carry in position 0, if it is
// determined (constant, variable s binds, or closed expression). known=false
// means the pattern must scan all tuples of its arity.
func (p Pattern) Lead(s expr.Scope) (v tuple.Value, known bool) {
	if len(p.Fields) == 0 {
		return tuple.Value{}, false
	}
	switch f := p.Fields[0]; f.Kind {
	case FieldConst:
		return f.Value, true
	case FieldVar:
		return lookup(s, f.Name)
	case FieldExpr:
		val, err := f.Expr.Eval(s)
		if err != nil {
			return tuple.Value{}, false
		}
		return val, true
	default:
		return tuple.Value{}, false
	}
}

// Vars appends the variables that the pattern can bind (FieldVar names in
// positive patterns) to dst.
func (p Pattern) Vars(dst []string) []string {
	if p.Negated {
		return dst
	}
	for _, f := range p.Fields {
		if f.Kind == FieldVar {
			dst = append(dst, f.Name)
		}
	}
	return dst
}

// Literal returns p carrying its tuple, built in block, when every field of
// p is a constant and block holds one value per field; otherwise it returns
// p as it is. Ground then returns that tuple under any scope: a tuple is
// immutable, so every instance asserted from p shares block. The caller
// must not write to block afterwards.
func (p Pattern) Literal(block []tuple.Value) Pattern {
	if len(block) != len(p.Fields) {
		return p
	}
	for i, f := range p.Fields {
		if f.Kind != FieldConst {
			return p
		}
		block[i] = f.Value
	}
	p.lit = tuple.Adopt(block)
	return p
}

// Ground instantiates the pattern into a concrete tuple under s: every
// assertion of a transaction is grounded this way, once per solution, with
// the solution as the scope. It fails if the pattern contains wildcards or
// unbound variables. The tuple's fields are one heap block of their own,
// except for a pattern Literal built ahead, whose tuple Ground returns
// without allocating; GroundIn cuts them from a committer's Block instead.
func (p Pattern) Ground(s expr.Scope) (tuple.Tuple, error) { return p.GroundIn(s, nil) }

// GroundIn is Ground with the tuple's fields cut from b (see Block); a nil b
// allocates them on the heap, as Ground does.
func (p Pattern) GroundIn(s expr.Scope, b *Block) (tuple.Tuple, error) {
	if p.lit.Arity() > 0 {
		return p.lit, nil
	}
	fields := b.cut(len(p.Fields))
	for i, f := range p.Fields {
		switch f.Kind {
		case FieldConst:
			fields[i] = f.Value
		case FieldVar:
			var v tuple.Value
			ok := false
			if s != nil {
				v, ok = s.Lookup(f.Name)
			}
			if !ok {
				return tuple.Tuple{}, fmt.Errorf("pattern: ground: unbound %s", f.Name)
			}
			fields[i] = v
		case FieldExpr:
			v, err := f.Expr.Eval(s)
			if err != nil {
				return tuple.Tuple{}, fmt.Errorf("pattern: ground: %w", err)
			}
			fields[i] = v
		default:
			return tuple.Tuple{}, fmt.Errorf("pattern: ground: field %d is not groundable", i)
		}
	}
	return tuple.Adopt(fields), nil
}

// GroundWidth returns the values grounding ps once cuts from a Block: the
// arity of each pattern that is not a Literal.
func GroundWidth(ps []Pattern) int {
	n := 0
	for i := range ps {
		if ps[i].lit.Arity() == 0 {
			n += len(ps[i].Fields)
		}
	}
	return n
}

// blockCap bounds a Block's blocks: 63 values are 1 008 B, and with the
// 8-byte header the allocator puts on an object over 512 B that holds
// pointers they fill the 1 024 B size class; 64 would take the 1 152 B one.
const blockCap = 63

// Block is a committer's fields block: GroundIn cuts each tuple's fields
// from it instead of allocating them one tuple at a time. The first block
// holds the width Open asks for, each later one twice its predecessor, up to
// 63 values (the 1 024 B size class); a tuple wider than that gets a heap
// block of its own. A block is never reused and a cut is never written once
// grounded: the collector frees a block when no tuple cut from it is
// reachable, so no reclamation scheme is needed, and a live tuple pins at
// most 1 KiB.
//
// A Block belongs to one committer — a process record, or one consensus
// fire — and only the goroutine grounding for that committer uses it. Its
// zero value is empty. It is a pointer and two counts, so that a process
// record holds one within its size class.
type Block struct {
	base       *tuple.Value
	used, size uint32
}

// Open gives b its first block, of width values (at most 63), unless b has
// one: width is what its committer is about to ground.
func (b *Block) Open(width int) {
	if b.base == nil && width > 0 {
		b.alloc(min(width, blockCap))
	}
}

func (b *Block) alloc(n int) {
	s := make([]tuple.Value, n)
	b.base, b.used, b.size = unsafe.SliceData(s), 0, uint32(n)
}

// cut returns n fresh values for one tuple: from b's block, starting the next
// one when it is short, as a full slice — an append to one cut cannot reach
// the next. A nil b, or n past a block, allocates them on the heap; arity 0
// cuts nothing.
func (b *Block) cut(n int) []tuple.Value {
	switch {
	case n == 0:
		return nil
	case b == nil || n > blockCap:
		return make([]tuple.Value, n)
	case int(b.size-b.used) < n:
		b.alloc(max(n, min(2*int(b.size), blockCap)))
	}
	i := int(b.used)
	b.used += uint32(n)
	return unsafe.Slice(b.base, b.size)[i : i+n : i+n]
}
