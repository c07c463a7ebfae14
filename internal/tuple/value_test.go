package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"atom", Atom("year"), KindAtom, "year"},
		{"int", Int(87), KindInt, "87"},
		{"negative int", Int(-3), KindInt, "-3"},
		{"float", Float(2.5), KindFloat, "2.5"},
		{"string", String("hello"), KindString, `"hello"`},
		{"bool true", Bool(true), KindBool, "true"},
		{"bool false", Bool(false), KindBool, "false"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.v.Kind(); got != tc.kind {
				t.Errorf("Kind() = %v, want %v", got, tc.kind)
			}
			if got := tc.v.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
			if !tc.v.IsValid() {
				t.Error("IsValid() = false, want true")
			}
		})
	}
}

func TestZeroValueIsInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Error("zero Value should be invalid")
	}
	if v.Kind() != KindInvalid {
		t.Errorf("zero Value kind = %v", v.Kind())
	}
}

// TestValueLayout guards the resident size of a field: every scalar payload
// shares one word beside the kind and the string header. A fourth word here
// is 8 bytes per stored field of every dataspace.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 32", got)
	}
}

// TestFloatCanonicalForm pins what folding the float payload into a word
// compared with == must preserve (zeros) and what it decides (NaN).
func TestFloatCanonicalForm(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	if !Float(0).Equal(negZero) || Float(0) != negZero {
		t.Error("Float(0) and Float(-0.0) must be Equal and ==")
	}
	if f, _ := negZero.AsFloat(); math.Signbit(f) {
		t.Error("Float(-0.0) kept its sign bit")
	}
	if !Int(0).Equal(negZero) || Int(0).Compare(negZero) != 0 {
		t.Error("Int(0) and Float(-0.0) must be Equal and Compare 0")
	}
	if New(Float(0)).Hash() != New(negZero).Hash() || New(Int(0)).Hash() != New(negZero).Hash() {
		t.Error("zeros that are Equal must hash equal")
	}
	if !Int(2).Equal(Float(2)) || New(Int(2)).Hash() != New(Float(2)).Hash() {
		t.Error("Int(2) and Float(2) must be Equal and hash equal")
	}

	// NaN: one canonical pattern, equal to itself (so usable as a map key),
	// equal to no other number, and ordered before all of them.
	nan := Float(math.NaN())
	other := Float(math.Float64frombits(0x7ff8dead00000001))
	if nan != other || !nan.Equal(other) || nan.Compare(other) != 0 {
		t.Error("every NaN must be the same Value")
	}
	if f, ok := nan.AsFloat(); !ok || !math.IsNaN(f) {
		t.Errorf("AsFloat(NaN) = %v, %v", f, ok)
	}
	if New(nan).Hash() != New(other).Hash() {
		t.Error("NaNs that are Equal must hash equal")
	}
	m := map[Value]int{nan: 1}
	if m[other] != 1 {
		t.Error("a NaN Value must be retrievable from a map")
	}
	for _, v := range []Value{Int(1), Float(-1e300), Float(math.Inf(-1))} {
		if nan.Equal(v) || v.Equal(nan) {
			t.Errorf("NaN must not Equal %v", v)
		}
		if nan.Compare(v) != -1 || v.Compare(nan) != 1 {
			t.Errorf("NaN must order before %v", v)
		}
	}
	if got := nan.String(); got != "NaN" {
		t.Errorf("NaN renders as %q", got)
	}
}

func TestValueAccessorMismatch(t *testing.T) {
	v := Atom("x")
	if _, ok := v.AsInt(); ok {
		t.Error("AsInt on atom should fail")
	}
	if _, ok := v.AsFloat(); ok {
		t.Error("AsFloat on atom should fail")
	}
	if _, ok := v.AsBool(); ok {
		t.Error("AsBool on atom should fail")
	}
	if _, ok := v.AsString(); ok {
		t.Error("AsString on atom should fail")
	}
	if name, ok := v.AsAtom(); !ok || name != "x" {
		t.Errorf("AsAtom = %q, %v", name, ok)
	}
}

func TestNumericCrossKindEquality(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should Equal Float(2.0)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not Equal Float(2.5)")
	}
	if Atom("2").Equal(Int(2)) {
		t.Error("Atom(\"2\") should not Equal Int(2)")
	}
	if String("a").Equal(Atom("a")) {
		t.Error("String and Atom with same payload must differ")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	// Total order: atoms (by name) < numbers (numeric, int/float mixed)
	// < strings < bools.
	ordered := []Value{
		Atom("alpha"), Atom("beta"),
		Int(-5), Float(-1.5), Int(0), Float(0.5), Int(1), Int(2), Float(9.5),
		String("alpha"),
		Bool(false), Bool(true),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			var want int
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestOfConversions(t *testing.T) {
	tests := []struct {
		in   any
		want Value
	}{
		{5, Int(5)},
		{int64(7), Int(7)},
		{1.5, Float(1.5)},
		{"s", String("s")},
		{true, Bool(true)},
		{Atom("a"), Atom("a")},
	}
	for _, tc := range tests {
		got, err := Of(tc.in)
		if err != nil {
			t.Fatalf("Of(%v): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("Of(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := Of([]int{1}); err == nil {
		t.Error("Of(slice) should fail")
	}
}

func TestMustOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOf should panic on unsupported type")
		}
	}()
	MustOf(struct{}{})
}

// randomValue produces an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Atom(randomName(r))
	case 1:
		return Int(r.Int63n(1000) - 500)
	case 2:
		return Float(float64(r.Int63n(1000)-500) / 4)
	case 3:
		return String(randomName(r))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func randomName(r *rand.Rand) string {
	letters := "abcdefgxyz"
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// Generate implements quick.Generator for Value.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b Value) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareReflexiveEqualConsistent(t *testing.T) {
	f := func(a Value) bool {
		return a.Compare(a) == 0 && a.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualImpliesCompareZero(t *testing.T) {
	f := func(a, b Value) bool {
		if a.Equal(b) {
			return a.Compare(b) == 0
		}
		return a.Compare(b) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
