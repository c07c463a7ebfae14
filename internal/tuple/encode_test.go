package tuple

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/sdl-lang/sdl/internal/race"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Atom("year"), Atom(""), Int(0), Int(-1), Int(1 << 40),
		Float(2.5), Float(-0.0), String("hello world"), String(""),
		Bool(true), Bool(false),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("decode %v consumed %d of %d bytes", v, n, len(buf))
		}
		if got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tuples := []Tuple{
		New(),
		New(Atom("year"), Int(87)),
		New(Int(1), Float(2.5), String("x"), Bool(true), Atom("nil")),
	}
	for _, tp := range tuples {
		buf := AppendTuple(nil, tp)
		got, n, err := DecodeTuple(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", tp, err)
		}
		if n != len(buf) {
			t.Errorf("decode %v consumed %d of %d bytes", tp, n, len(buf))
		}
		if !got.Equal(tp) || got.Arity() != tp.Arity() {
			t.Errorf("round trip %v -> %v", tp, got)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(KindAtom)},           // missing length
		{byte(KindAtom), 10, 'a'},  // truncated payload
		{byte(KindInt)},            // missing varint
		{byte(KindFloat), 1, 2, 3}, // short float
		{byte(KindBool)},           // missing bool byte
		{200},                      // unknown kind
	}
	for i, b := range cases {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("DecodeTuple(nil) should fail")
	}
	// Tuple claiming 3 fields but containing 1.
	buf := AppendTuple(nil, New(Atom("a")))
	buf[0] = 3
	if _, _, err := DecodeTuple(buf); err == nil {
		t.Error("truncated tuple should fail")
	}
	// A corrupt arity far beyond the input fails cleanly instead of
	// reserving room for it.
	huge := binary.AppendUvarint(nil, 1<<62)
	if _, _, err := DecodeTuple(append(huge, byte(KindBool), 1)); err == nil {
		t.Error("tuple with a 2^62 arity should fail")
	}
}

func TestQuickTupleEncodeRoundTrip(t *testing.T) {
	f := func(tp Tuple) bool {
		buf := AppendTuple(nil, tp)
		got, n, err := DecodeTuple(buf)
		return err == nil && n == len(buf) && got.Equal(tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendValueConcatenation(t *testing.T) {
	// Multiple values appended to one buffer decode in sequence.
	vals := []Value{Int(1), Atom("x"), Float(3.5)}
	var buf []byte
	for _, v := range vals {
		buf = AppendValue(buf, v)
	}
	off := 0
	for _, want := range vals {
		got, n, err := DecodeValue(buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %v want %v", got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d", off, len(buf))
	}
}

// TestDecodeTupleAllocatesOnlyItsFields: decoding text already interned
// allocates nothing for it, so a tuple costs its one fields block.
func TestDecodeTupleAllocatesOnlyItsFields(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	tp := New(Int(42), Atom("rec"), String("a string payload"), Float(2.5), Bool(true))
	buf := AppendTuple(nil, tp)
	if n := testing.AllocsPerRun(100, func() {
		got, _, err := DecodeTuple(buf)
		if err != nil || !got.Equal(tp) {
			t.Fatalf("decoded %v, %v", got, err)
		}
	}); n != 1 {
		t.Errorf("DecodeTuple allocates %v times, want 1 (the fields block)", n)
	}
	runtime.KeepAlive(tp)
}
