// Package tuple defines the value domain and tuple model of the SDL shared
// dataspace: tuples are finite sequences of values (atoms, integers, floats,
// strings, booleans), each stored tuple instance carries a unique identifier
// and records the process that asserted it.
package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind discriminates the value domain V of the dataspace.
type Kind uint8

// Value kinds. The zero Kind is reserved so that the zero Value is
// distinguishable from any well-formed value.
const (
	KindInvalid Kind = iota
	KindAtom
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindAtom:
		return "atom"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a single field of a tuple. Values are immutable and comparable
// with ==, so they can be used directly as map keys (the dataspace indexes
// rely on this).
//
// A Value is two words, 16 bytes (a 3-field tuple is one 48-byte block).
// An atom or string points p at its interned text (intern.go), the one copy
// every Value of that text shares, and holds its kind in w; so == compares
// text by pointer, and Atom and String of one text differ in w. An int,
// float or bool points p at its kind's slot in kindSlots and holds its
// payload in w. Because == compares that word bit for bit, Float stores a
// canonical bit pattern: -0.0 is stored as +0.0 and every NaN as the one
// quiet NaN, so same-kind == agrees with numeric equality on zeros and a NaN
// equals itself (it can be found in, and deleted from, a map). The zero
// Value (nil p, zero w) is KindInvalid.
type Value struct {
	p *string // interned atom or string text, or &kindSlots[kind]
	w uint64  // KindAtom/KindString, or the int (two's complement), float (canonical IEEE-754 bits) or bool (0/1) payload
}

// kindSlots gives each scalar kind a static address to point p at, so a
// scalar's p never equals an interned text's and its kind is p's offset.
var kindSlots [KindBool + 1]string

func scalar(k Kind, w uint64) Value { return Value{p: &kindSlots[k], w: w} }

// Atom returns an atom value. Atoms are symbolic constants such as `year`
// or `nil`; they compare equal iff their names are equal.
func Atom(name string) Value { return Value{p: intern(name), w: uint64(KindAtom)} }

// Int returns an integer value.
func Int(v int64) Value { return scalar(KindInt, uint64(v)) }

// Float returns a floating-point value, canonicalized so that == on Values
// is numeric equality: -0.0 becomes +0.0 and every NaN the same NaN.
func Float(v float64) Value {
	switch {
	case v == 0:
		v = 0 // drops the sign of -0.0
	case v != v:
		v = math.NaN()
	}
	return scalar(KindFloat, math.Float64bits(v))
}

// String returns a string value.
func String(v string) Value { return Value{p: intern(v), w: uint64(KindString)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return scalar(KindBool, n)
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind {
	const slot = unsafe.Sizeof(kindSlots[0])
	if off := uintptr(unsafe.Pointer(v.p)) - uintptr(unsafe.Pointer(&kindSlots)); off < unsafe.Sizeof(kindSlots) {
		return Kind(off / slot)
	}
	return Kind(v.w) // an atom or string tag; 0 for the zero Value
}

// IsValid reports whether the value is well formed (not the zero Value).
func (v Value) IsValid() bool { return v.p != nil }

// AsAtom returns the atom name; ok is false if the value is not an atom.
func (v Value) AsAtom() (string, bool) {
	if v.Kind() != KindAtom {
		return "", false
	}
	return *v.p, true
}

// AsInt returns the integer payload; ok is false if the value is not an int.
func (v Value) AsInt() (int64, bool) {
	if v.Kind() != KindInt {
		return 0, false
	}
	return int64(v.w), true
}

// AsFloat returns the float payload; ok is false if the value is not a float.
func (v Value) AsFloat() (float64, bool) {
	if v.Kind() != KindFloat {
		return 0, false
	}
	return math.Float64frombits(v.w), true
}

// AsString returns the string payload; ok is false if the value is not a
// string.
func (v Value) AsString() (string, bool) {
	if v.Kind() != KindString {
		return "", false
	}
	return *v.p, true
}

// AsBool returns the boolean payload; ok is false if the value is not a bool.
func (v Value) AsBool() (bool, bool) {
	if v.Kind() != KindBool {
		return false, false
	}
	return v.w != 0, true
}

// Numeric reports whether the value is an int or a float, and returns its
// value as a float64 for mixed-mode arithmetic.
func (v Value) Numeric() (float64, bool) {
	switch v.Kind() {
	case KindInt:
		return float64(int64(v.w)), true
	case KindFloat:
		return math.Float64frombits(v.w), true
	default:
		return 0, false
	}
}

// Equal reports value equality. Unlike ==, Equal treats an int and a float
// holding the same mathematical value as equal (2 == 2.0), matching the
// paper's untyped treatment of numbers in queries. Within one kind Equal is
// ==, so a NaN equals itself and no int.
func (v Value) Equal(w Value) bool {
	if v == w {
		return true
	}
	if v.p == w.p { // one kind (or one text as atom and string): not equal
		return false
	}
	vn, vok := v.Numeric()
	wn, wok := w.Numeric()
	return vok && wok && vn == wn
}

// Compare orders two values. Numbers order numerically across int/float
// (NaN before every other number; two ints exactly, so ints beyond 2⁵³ that
// share a float64 still order apart, as Equal tells them apart); otherwise
// values order first by kind, then by payload. It returns -1, 0, or +1. A
// total order over all values is needed by ∀-transactions and by
// deterministic test fixtures.
func (v Value) Compare(w Value) int {
	if vi, ok := v.AsInt(); ok {
		if wi, ok := w.AsInt(); ok {
			return cmp.Compare(vi, wi)
		}
	}
	vn, vok := v.Numeric()
	wn, wok := w.Numeric()
	if vok && wok {
		switch {
		case vn < wn:
			return -1
		case vn > wn:
			return 1
		case vn == wn:
			return 0
		}
		// Unordered: at least one side is NaN.
		switch {
		case wn == wn:
			return -1
		case vn == vn:
			return 1
		default:
			return 0
		}
	}
	vk, wk := v.Kind(), w.Kind()
	if vk != wk {
		if vk < wk {
			return -1
		}
		return 1
	}
	switch vk {
	case KindAtom, KindString:
		return strings.Compare(*v.p, *w.p)
	case KindBool:
		switch {
		case v.w < w.w:
			return -1
		case v.w > w.w:
			return 1
		}
	}
	return 0
}

// String renders the value in SDL literal syntax: atoms bare, strings
// quoted, booleans as true/false.
func (v Value) String() string {
	switch v.Kind() {
	case KindAtom:
		return *v.p
	case KindInt:
		return strconv.FormatInt(int64(v.w), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.w), 'g', -1, 64)
	case KindString:
		return strconv.Quote(*v.p)
	case KindBool:
		if v.w != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// Of converts a native Go value into a dataspace Value. Supported inputs:
// Value (returned unchanged), int, int64, float64, string (becomes a string
// value; use Atom for atoms), and bool. It returns an error for anything
// else.
func Of(x any) (Value, error) {
	switch t := x.(type) {
	case Value:
		return t, nil
	case int:
		return Int(int64(t)), nil
	case int64:
		return Int(t), nil
	case float64:
		return Float(t), nil
	case string:
		return String(t), nil
	case bool:
		return Bool(t), nil
	default:
		return Value{}, fmt.Errorf("tuple: unsupported value type %T", x)
	}
}

// MustOf is Of but panics on unsupported types. It is intended for literals
// in tests and examples where the type is statically known.
func MustOf(x any) Value {
	v, err := Of(x)
	if err != nil {
		panic(err)
	}
	return v
}
