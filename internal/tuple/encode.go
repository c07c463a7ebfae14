package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Binary encoding of values and tuples. The dataspace itself is in-memory,
// but traces, checkpoints, and the bench harness persist tuples; the format
// is a compact length-prefixed encoding:
//
//	tuple  := uvarint(arity) value*
//	value  := kind-byte payload
//	payload:
//	  atom/string: uvarint(len) bytes
//	  int:         varint
//	  float:       8 bytes little-endian IEEE-754
//	  bool:        1 byte
var (
	// ErrCorrupt reports a malformed encoding.
	ErrCorrupt = errors.New("tuple: corrupt encoding")
)

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case KindAtom, KindString:
		dst = binary.AppendUvarint(dst, uint64(len(*v.p)))
		dst = append(dst, *v.p...)
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.w))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.w)
	case KindBool:
		dst = append(dst, byte(v.w))
	}
	return dst
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed. An atom's or string's text is interned straight from
// b: intern copies it only when it is new, and the Value keeps nothing of b.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, ErrCorrupt
	}
	kind := Kind(b[0])
	rest := b[1:]
	n := 1
	switch kind {
	case KindAtom, KindString:
		l, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < l {
			return Value{}, 0, ErrCorrupt
		}
		var s string
		if l > 0 {
			s = unsafe.String(&rest[w], int(l))
		}
		return Value{p: intern(s), w: uint64(kind)}, n + w + int(l), nil
	case KindInt:
		x, w := binary.Varint(rest)
		if w <= 0 {
			return Value{}, 0, ErrCorrupt
		}
		return Int(x), n + w, nil
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, ErrCorrupt
		}
		bits := binary.LittleEndian.Uint64(rest)
		return Float(math.Float64frombits(bits)), n + 8, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, ErrCorrupt
		}
		return Bool(rest[0] != 0), n + 1, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: kind %d", ErrCorrupt, kind)
	}
}

// AppendTuple appends the binary encoding of t to dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.n))
	for _, v := range t.fields() {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeTuple decodes one tuple from b, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) {
	arity, w := binary.Uvarint(b)
	if w <= 0 {
		return Tuple{}, 0, ErrCorrupt
	}
	n := w
	// A value encodes to at least two bytes, which bounds what a corrupt
	// arity can make us reserve.
	fields := make([]Value, 0, min(arity, uint64(len(b)-w)/2))
	for i := uint64(0); i < arity; i++ {
		v, vn, err := DecodeValue(b[n:])
		if err != nil {
			return Tuple{}, 0, err
		}
		fields = append(fields, v)
		n += vn
	}
	return Adopt(fields), n, nil
}
