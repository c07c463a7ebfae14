// Package tuple defines the value domain and tuple model of the SDL shared
// dataspace: tuples are finite sequences of values (atoms, integers, floats,
// strings, booleans), each stored tuple instance carries a unique identifier
// and records the process that asserted it.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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
// Every scalar payload shares one 8-byte word, which keeps a Value at 32
// bytes (a 3-field tuple is one 96-byte block). Because == compares that
// word bit for bit, Float stores a canonical bit pattern: -0.0 is stored as
// +0.0 and every NaN as the one quiet NaN, so same-kind == agrees with
// numeric equality on zeros and a NaN equals itself (it can be found in,
// and deleted from, a map).
type Value struct {
	kind Kind
	num  uint64 // int (two's complement), float (canonical IEEE-754 bits) or bool (0/1) payload
	str  string // atom or string payload
}

// Atom returns an atom value. Atoms are symbolic constants such as `year`
// or `nil`; they compare equal iff their names are equal.
func Atom(name string) Value { return Value{kind: KindAtom, str: name} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating-point value, canonicalized so that == on Values
// is numeric equality: -0.0 becomes +0.0 and every NaN the same NaN.
func Float(v float64) Value {
	switch {
	case v == 0:
		v = 0 // drops the sign of -0.0
	case v != v:
		v = math.NaN()
	}
	return Value{kind: KindFloat, num: math.Float64bits(v)}
}

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, str: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value is well formed (not the zero Value).
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsAtom returns the atom name; ok is false if the value is not an atom.
func (v Value) AsAtom() (string, bool) { return v.str, v.kind == KindAtom }

// AsInt returns the integer payload; ok is false if the value is not an int.
func (v Value) AsInt() (int64, bool) { return int64(v.num), v.kind == KindInt }

// AsFloat returns the float payload; ok is false if the value is not a float.
func (v Value) AsFloat() (float64, bool) {
	return math.Float64frombits(v.num), v.kind == KindFloat
}

// AsString returns the string payload; ok is false if the value is not a
// string.
func (v Value) AsString() (string, bool) { return v.str, v.kind == KindString }

// AsBool returns the boolean payload; ok is false if the value is not a bool.
func (v Value) AsBool() (bool, bool) { return v.num != 0, v.kind == KindBool }

// Numeric reports whether the value is an int or a float, and returns its
// value as a float64 for mixed-mode arithmetic.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num)), true
	case KindFloat:
		return math.Float64frombits(v.num), true
	default:
		return 0, false
	}
}

// Equal reports value equality. Unlike ==, Equal treats an int and a float
// holding the same mathematical value as equal (2 == 2.0), matching the
// paper's untyped treatment of numbers in queries. Within one kind Equal is
// ==, so a NaN equals itself and no int.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		return v == w
	}
	vn, vok := v.Numeric()
	wn, wok := w.Numeric()
	return vok && wok && vn == wn
}

// Compare orders two values. Numbers order numerically across int/float
// (NaN before every other number); otherwise values order first by kind,
// then by payload. It returns -1, 0, or +1. A total order over all values
// is needed by ∀-transactions and by deterministic test fixtures.
func (v Value) Compare(w Value) int {
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
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindAtom, KindString:
		return strings.Compare(v.str, w.str)
	case KindBool:
		switch {
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		}
	}
	return 0
}

// String renders the value in SDL literal syntax: atoms bare, strings
// quoted, booleans as true/false.
func (v Value) String() string {
	switch v.kind {
	case KindAtom:
		return v.str
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str)
	case KindBool:
		if v.num != 0 {
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
