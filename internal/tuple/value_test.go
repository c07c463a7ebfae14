package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"github.com/sdl-lang/sdl/internal/race"
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

var sinkTuple Tuple

// TestValueLayout guards the resident size of a field: two words, the
// interned text or kind slot and the payload, so a 3-field tuple's fields
// block is one 48-byte allocation. A third word here is 8 bytes per stored
// field of every dataspace.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 1000
	fields := []Value{Int(1), Atom("rec"), Int(2)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkTuple = New(fields...)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got != 48 {
		t.Errorf("a 3-field New allocates %d bytes, want 48", got)
	}
}

var sinkValue Value

// TestValueConstructorsDoNotAllocate: scalars never allocate, and atoms and
// strings allocate only to intern text no Value holds yet.
func TestValueConstructorsDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	held := []Value{Atom("rec"), String("a string payload")}
	buf := []byte("rec")
	for name, f := range map[string]func(){
		"Int":              func() { sinkValue = Int(87) },
		"Float":            func() { sinkValue = Float(-0.0) },
		"Bool":             func() { sinkValue = Bool(true) },
		"Atom":             func() { sinkValue = Atom("rec") },
		"Atom(from bytes)": func() { sinkValue = Atom(string(buf)) },
		"String":           func() { sinkValue = String("a string payload") },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	runtime.KeepAlive(held)
}

// TestInternIsCanonical: equal text from different buffers interns to one
// copy, which aliases neither buffer; decoded and constructed text share it.
func TestInternIsCanonical(t *testing.T) {
	a, b := []byte("shared text"), []byte("shared text")
	p := intern(string(a))
	if q := intern(string(b)); q != p {
		t.Fatalf("equal text interned to %p and %p", p, q)
	}
	a[0], b[0] = 'X', 'X'
	if *p != "shared text" {
		t.Fatalf("the interned copy aliases its input: %q", *p)
	}
	v, _, err := DecodeValue(AppendValue(nil, String("shared text")))
	if err != nil || v != String("shared text") || v.p != p {
		t.Fatalf("decoded %v (%v), want the constructed value's copy", v, err)
	}
	if Atom("shared text") == String("shared text") {
		t.Fatal("an atom and a string of one text must differ")
	}
}

// TestInternConcurrent interns one set of texts from several goroutines at
// once, while texts are dropped and collected, and checks every goroutine
// holding a text got the one copy.
func TestInternConcurrent(t *testing.T) {
	const workers, texts, rounds = 8, 64, 50
	got := make([][texts]*string, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range got[w] {
					p := intern("shared " + strconv.Itoa(i))
					if got[w][i] == nil {
						got[w][i] = p
					} else if p != got[w][i] {
						t.Errorf("worker %d: text %d interned to a second copy", w, i)
						return
					}
					// Text no one keeps: its copies die and are replaced.
					_ = intern("dropped " + strconv.Itoa(r*texts+i))
				}
				if w == 0 && r%10 == 0 {
					runtime.GC()
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if got[w] != got[0] {
			t.Fatalf("worker %d holds other copies than worker 0", w)
		}
	}
}

// TestInternTableStaysBounded: text nobody keeps does not accumulate. Each
// cycle interns 10⁵ texts no Value holds and drops them; the sweeps after
// the collection cycles that follow take their entries out, so the table is
// back under the sweep floor before the next cycle interns more, however
// many cycles run.
func TestInternTableStaysBounded(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the cleanup the sweep runs from")
	}
	const batch, cycles = 100_000, 3
	size := func() (n int) {
		for i := range interned {
			sh := &interned[i]
			sh.RLock()
			n += len(sh.m)
			sh.RUnlock()
		}
		return n
	}
	const bound = internShards * minSweep
	for c := range cycles {
		for i := range batch {
			_ = intern("unkept " + strconv.Itoa(c*batch+i))
		}
		n := size()
		for deadline := time.Now().Add(10 * time.Second); n >= bound && time.Now().Before(deadline); n = size() {
			runtime.GC()
			time.Sleep(time.Millisecond) // lets the sweep run
		}
		if n >= bound {
			t.Fatalf("cycle %d: the table holds %d entries after %d dropped texts, want < %d", c, n, (c+1)*batch, bound)
		}
	}
}

// TestInternAllocations: a hit allocates nothing, and a miss at most three
// times: the copy's header, its bytes and its weak handle.
func TestInternAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	texts := make([]string, 201)
	for i := range texts {
		texts[i] = "miss " + strconv.Itoa(i)
	}
	held := make([]*string, 0, len(texts))
	next := 0
	miss := func() { held = append(held, intern(texts[next])); next++ }
	if n := testing.AllocsPerRun(200, miss); n > 3 {
		t.Errorf("a miss allocates %v times, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkString = intern(texts[7]) }); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
	runtime.KeepAlive(held)
}

var sinkString *string

// FuzzValue checks == against a model of what it must mean: two values are
// == exactly when their kinds and canonical payloads are equal. So an atom
// and a string of one text differ, no text equals a scalar whatever its
// payload (the kind tags included), Float folds −0 into +0 and every NaN
// into one, and Compare, Equal, Hash and the encoding agree with ==.
func FuzzValue(f *testing.F) {
	nan, negZero := math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1))
	for _, seed := range []struct {
		ka uint8
		wa uint64
		sa string
		kb uint8
		wb uint64
		sb string
	}{
		{0, 0, "x", 3, 0, "x"},                  // atom vs string
		{0, 0, "", 3, 0, ""},                    // empty atom vs empty string
		{0, 0, "x", 1, uint64(KindAtom), ""},    // atom vs int of its tag
		{3, 0, "x", 1, uint64(KindString), ""},  // string vs int of its tag
		{3, 0, "x", 2, uint64(KindString), ""},  // string vs float of its tag's bits
		{0, 0, "x", 4, uint64(KindAtom), ""},    // atom vs true
		{2, negZero, "", 2, 0, ""},              // −0 vs +0
		{2, nan, "", 2, 0x7ff8dead00000001, ""}, // two NaNs
		{1, 2, "", 2, math.Float64bits(2), ""},  // 2 vs 2.0
		{4, 1, "", 1, 1, ""},                    // true vs 1
		{0, 0, "héllo\x00", 0, 0, "héllo\x00"},  // one atom twice
		{3, 0, "a", 3, 0, "b"},                  // two strings
		{1, 1 << 63, "", 1, 1<<63 - 1, ""},      // int extremes
	} {
		f.Add(seed.ka, seed.wa, seed.sa, seed.kb, seed.wb, seed.sb)
	}
	f.Fuzz(func(t *testing.T, ka uint8, wa uint64, sa string, kb uint8, wb uint64, sb string) {
		a, ma := fuzzValue(ka, wa, sa)
		b, mb := fuzzValue(kb, wb, sb)
		if a.Kind() != ma.kind || b.Kind() != mb.kind {
			t.Fatalf("kinds %v, %v, want %v, %v", a.Kind(), b.Kind(), ma.kind, mb.kind)
		}
		if (a == b) != (ma == mb) {
			t.Fatalf("%v == %v is %v, want %v", a, b, a == b, ma == mb)
		}
		if a.Kind() == b.Kind() && a.Equal(b) != (a == b) {
			t.Fatalf("same-kind Equal(%v, %v) = %v disagrees with ==", a, b, a.Equal(b))
		}
		if (a.Compare(b) == 0) != a.Equal(b) || a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare(%v, %v) = %d, Equal %v", a, b, a.Compare(b), a.Equal(b))
		}
		if a.Equal(b) && New(a).Hash() != New(b).Hash() {
			t.Fatalf("Equal %v and %v hash apart", a, b)
		}
		if ma.kind == KindAtom || ma.kind == KindString {
			if Atom(sa) == String(sa) {
				t.Fatalf("Atom(%q) == String(%q)", sa, sa)
			}
		}
		for _, v := range []Value{a, b} {
			buf := AppendValue(nil, v)
			got, n, err := DecodeValue(buf)
			if err != nil || n != len(buf) || got != v {
				t.Fatalf("round trip %v -> %v, %d of %d bytes, %v", v, got, n, len(buf), err)
			}
		}
	})
}

// valueModel is what a Value means: its kind and canonical payload.
type valueModel struct {
	kind Kind
	num  uint64
	text string
}

// fuzzValue builds a Value of kind k%5 from a word and a text, and its model.
func fuzzValue(k uint8, w uint64, s string) (Value, valueModel) {
	switch k % 5 {
	case 0:
		return Atom(s), valueModel{kind: KindAtom, text: s}
	case 1:
		return Int(int64(w)), valueModel{kind: KindInt, num: w}
	case 2:
		m := valueModel{kind: KindFloat, num: w}
		switch x := math.Float64frombits(w); {
		case x == 0:
			m.num = 0
		case x != x:
			m.num = math.Float64bits(math.NaN())
		}
		return Float(math.Float64frombits(w)), m
	case 3:
		return String(s), valueModel{kind: KindString, text: s}
	default:
		return Bool(w&1 == 1), valueModel{kind: KindBool, num: w & 1}
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
