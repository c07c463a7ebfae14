package tuple

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestTupleLayout guards the header every stored tuple pays for in the
// store's entries and in every Instance: a pointer to the fields block and
// the arity, 16 bytes. Tuple must stay non-comparable — == would compare
// block addresses, so two equal tuples built apart would differ.
func TestTupleLayout(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Tuple{}) = %d, want 16", got)
	}
	if reflect.TypeOf(Tuple{}).Comparable() {
		t.Error("Tuple is comparable: == would compare fields blocks by address")
	}
	for _, tp := range []Tuple{{}, New(), Adopt([]Value{}), Adopt(nil)} {
		if tp.Arity() != 0 || !tp.Equal(Tuple{}) || tp.String() != "<>" || len(tp.Fields()) != 0 {
			t.Errorf("an empty tuple reads as %v (arity %d)", tp, tp.Arity())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Field past the arity must panic like slice indexing")
		}
	}()
	New(Int(1), Int(2)).Field(2)
}

func TestNewCopiesFields(t *testing.T) {
	fields := []Value{Int(1), Int(2)}
	tp := New(fields...)
	fields[0] = Int(99)
	if got, _ := tp.Field(0).AsInt(); got != 1 {
		t.Errorf("tuple aliased caller slice: field 0 = %d", got)
	}
}

func TestFieldsReturnsCopy(t *testing.T) {
	tp := New(Int(1), Int(2))
	f := tp.Fields()
	f[0] = Int(99)
	if got, _ := tp.Field(0).AsInt(); got != 1 {
		t.Errorf("Fields leaked internal slice: field 0 = %d", got)
	}
}

func TestMakeAndString(t *testing.T) {
	tp, err := Make("year", 87)
	if err != nil {
		t.Fatal(err)
	}
	// Make converts Go strings to string values, so expect quotes.
	if got := tp.String(); got != `<"year", 87>` {
		t.Errorf("String() = %s", got)
	}
	tp2 := New(Atom("year"), Int(87))
	if got := tp2.String(); got != "<year, 87>" {
		t.Errorf("String() = %s", got)
	}
}

func TestMakeError(t *testing.T) {
	if _, err := Make("a", []int{1}); err == nil {
		t.Error("Make with unsupported field should fail")
	}
}

func TestMustMakePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMake should panic")
		}
	}()
	MustMake(map[string]int{})
}

func TestTupleEqual(t *testing.T) {
	a := New(Atom("k"), Int(2))
	b := New(Atom("k"), Float(2.0))
	c := New(Atom("k"), Int(3))
	d := New(Atom("k"))
	if !a.Equal(b) {
		t.Error("numeric cross-kind tuple equality failed")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("unequal tuples reported equal")
	}
}

func TestTupleCompare(t *testing.T) {
	a := New(Atom("a"))
	b := New(Atom("a"), Int(1))
	c := New(Atom("a"), Int(2))
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("shorter tuple should order first")
	}
	if b.Compare(c) != -1 || c.Compare(b) != 1 || b.Compare(b) != 0 {
		t.Error("lexicographic field ordering failed")
	}
}

func TestHashEqualityConsistency(t *testing.T) {
	a := New(Atom("k"), Int(2))
	b := New(Atom("k"), Float(2.0))
	if a.Hash() != b.Hash() {
		t.Error("Equal tuples must hash equal")
	}
	c := New(Atom("k"), Int(3))
	if a.Hash() == c.Hash() {
		t.Error("distinct tuples should (almost surely) hash distinct")
	}
	// Field-boundary confusion: <ab> vs <a, b> must differ.
	x := New(Atom("ab"))
	y := New(Atom("a"), Atom("b"))
	if x.Hash() == y.Hash() {
		t.Error("field separator missing from hash")
	}
}

// Generate implements quick.Generator for Tuple.
func (Tuple) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(5)
	fields := make([]Value, n)
	for i := range fields {
		fields[i] = randomValue(r)
	}
	return reflect.ValueOf(New(fields...))
}

func TestQuickHashRespectsEqual(t *testing.T) {
	f := func(a, b Tuple) bool {
		if a.Equal(b) {
			return a.Hash() == b.Hash()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTupleCompareAntisymmetric(t *testing.T) {
	f := func(a, b Tuple) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fnvReferenceHash is Hash as it was first written — hash/fnv fed a kind
// tag, the payload bytes and a 0xFF separator per field. The inlined Hash
// must stay bit-identical to it: recovery's multiset proof compares hashes
// computed on both sides of a crash.
func fnvReferenceHash(t Tuple) uint64 {
	h := fnv.New64a()
	for _, v := range t.fields() {
		switch v.Kind() {
		case KindAtom:
			a, _ := v.AsAtom()
			h.Write([]byte{'a'})
			h.Write([]byte(a))
		case KindString:
			s, _ := v.AsString()
			h.Write([]byte{'s'})
			h.Write([]byte(s))
		case KindBool:
			b, _ := v.AsBool()
			h.Write([]byte{'b', map[bool]byte{true: 1}[b]})
		case KindInt, KindFloat:
			n, _ := v.Numeric()
			bits := math.Float64bits(n)
			buf := []byte{'n', 0, 0, 0, 0, 0, 0, 0, 0}
			for i := 0; i < 8; i++ {
				buf[1+i] = byte(bits >> (8 * i))
			}
			h.Write(buf)
		default:
			h.Write([]byte{'?'})
		}
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}

func TestHashMatchesFNVReference(t *testing.T) {
	fixed := []Tuple{
		{},
		New(Value{}),
		New(Atom(""), String(""), Bool(true), Bool(false)),
		New(Int(math.MinInt64), Int(math.MaxInt64), Float(math.Inf(-1)), Float(math.NaN()), Float(math.Copysign(0, -1))),
		New(Atom("rec"), Int(7), String("héllo\x00")),
	}
	for _, tp := range fixed {
		if got, want := tp.Hash(), fnvReferenceHash(tp); got != want {
			t.Errorf("Hash(%v) = %#x, reference %#x", tp, got, want)
		}
	}
	f := func(tp Tuple) bool { return tp.Hash() == fnvReferenceHash(tp) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDoesNotAllocate(t *testing.T) {
	tp := New(Int(42), Atom("rec"), String("a string payload"), Float(2.5), Bool(true))
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += tp.Hash() }); n != 0 {
		t.Errorf("Hash allocates %v times per call, want 0", n)
	}
	_ = sink
}
