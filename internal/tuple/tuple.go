package tuple

import (
	"math"
	"strings"
	"unsafe"
)

// ID uniquely identifies one tuple *instance* in a dataspace. The paper
// attaches a unique tuple identifier to every asserted tuple so that
// ownership can be determined and debugging tools can track instances;
// application programs typically ignore it.
type ID uint64

// NoID is the identifier of a tuple that has not been asserted.
const NoID ID = 0

// ProcessID identifies a process in the process society. The zero value
// identifies "the environment" (tuples asserted from outside any process,
// e.g. initial dataspace contents).
type ProcessID uint64

// Environment is the pseudo-process that owns initial dataspace contents.
const Environment ProcessID = 0

// Tuple is an immutable finite sequence of values. The zero Tuple is the
// empty tuple.
//
// A Tuple is a 16-byte header: a pointer to its fields block and its arity
// (a slice header would add a capacity word nothing reads, and every stored
// tuple pays for its header in the store's entries and in each Instance).
// The leading zero-size func array keeps Tuple non-comparable: == would
// compare block addresses, not fields.
type Tuple struct {
	_ [0]func()
	p *Value
	n int
}

// New builds a tuple from the given values. The slice is copied, so the
// caller may reuse it.
func New(fields ...Value) Tuple {
	cp := make([]Value, len(fields))
	copy(cp, fields)
	return Adopt(cp)
}

// Adopt builds a tuple around fields without copying: the tuple takes
// ownership, and the caller must not modify the slice afterwards. For
// builders that fill a fresh slice field by field (pattern grounding).
func Adopt(fields []Value) Tuple {
	return Tuple{p: unsafe.SliceData(fields), n: len(fields)}
}

// fields returns the tuple's own fields block, for reading only.
func (t Tuple) fields() []Value { return unsafe.Slice(t.p, t.n) }

// Block returns the tuple's fields block, which FromBlock takes back.
func (t Tuple) Block() *Value { return t.p }

// FromBlock returns the tuple of arity n whose fields block is p, a Block.
func FromBlock(p *Value, n int) Tuple { return Tuple{p: p, n: n} }

// Make builds a tuple from native Go values via Of. It returns an error if
// any field has an unsupported type.
func Make(fields ...any) (Tuple, error) {
	vals := make([]Value, len(fields))
	for i, f := range fields {
		v, err := Of(f)
		if err != nil {
			return Tuple{}, err
		}
		vals[i] = v
	}
	return Adopt(vals), nil
}

// MustMake is Make but panics on unsupported field types; for tests and
// examples with statically-known literals.
func MustMake(fields ...any) Tuple {
	t, err := Make(fields...)
	if err != nil {
		panic(err)
	}
	return t
}

// Arity returns the number of fields.
func (t Tuple) Arity() int { return t.n }

// Field returns the i-th field. It panics if i is out of range, mirroring
// slice indexing.
func (t Tuple) Field(i int) Value { return t.fields()[i] }

// Fields returns a copy of the field slice.
func (t Tuple) Fields() []Value {
	cp := make([]Value, t.n)
	copy(cp, t.fields())
	return cp
}

// Equal reports field-wise equality (using Value.Equal, so 2 and 2.0 match).
func (t Tuple) Equal(u Tuple) bool {
	if t.n != u.n {
		return false
	}
	uf := u.fields()
	for i, v := range t.fields() {
		if !v.Equal(uf[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples first by arity, then lexicographically by field.
func (t Tuple) Compare(u Tuple) int {
	if d := t.n - u.n; d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	uf := u.fields()
	for i, v := range t.fields() {
		if c := v.Compare(uf[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Hash returns a 64-bit content hash of the tuple, suitable for grouping
// identical tuples in multiset accounting. Values that are Equal hash
// equal (numeric values hash through their float64 representation). It is
// FNV-1a over a kind tag, the payload bytes and a 0xFF separator per field,
// written out inline so hashing allocates nothing.
func (t Tuple) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range t.fields() {
		switch k := v.Kind(); k {
		case KindAtom, KindString:
			tag := byte('a')
			if k == KindString {
				tag = 's'
			}
			h = (h ^ uint64(tag)) * prime64
			s := *v.p
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * prime64
			}
		case KindBool:
			h = (h ^ 'b') * prime64
			h = (h ^ uint64(byte(v.w))) * prime64
		case KindInt, KindFloat:
			// Hash through float64 so Int(2) and Float(2.0) collide,
			// consistent with Equal.
			n, _ := v.Numeric()
			bits := math.Float64bits(n)
			h = (h ^ 'n') * prime64
			for i := 0; i < 8; i++ {
				h = (h ^ uint64(byte(bits>>(8*i)))) * prime64
			}
		default:
			h = (h ^ '?') * prime64
		}
		h = (h ^ 0xFF) * prime64 // field separator
	}
	return h
}

// String renders the tuple in the paper's angle-bracket notation,
// e.g. <year, 87>.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t.fields() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}
