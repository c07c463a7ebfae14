// Package linda is an independent implementation of the Linda tuple-space
// kernel — the system the paper positions SDL against ("Linda provides
// processes with very simple dataspace access primitives: read, assert,
// and retract one tuple at a time").
//
// It provides the six classic primitives:
//
//	Out  — assert a tuple
//	In   — retract a matching tuple, blocking until one exists
//	Rd   — read a matching tuple, blocking until one exists
//	Inp  — non-blocking In (predicate form)
//	Rdp  — non-blocking Rd
//	Eval — spawn a goroutine that Outs its result (live tuple)
//
// The implementation is deliberately independent of the SDL packages (its
// own store, matching, and blocking machinery) so that experiment E7
// compares two genuinely distinct kernels: Linda's one-tuple-at-a-time
// primitives — where a compound read-modify-write needs an In/Out pair and
// a retry loop — against SDL's multi-pattern atomic transactions.
package linda

import (
	"context"
	"sync"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// Space is a Linda tuple space. The zero value is not usable; construct
// with NewSpace.
type Space struct {
	mu      sync.Mutex
	byLead  map[leadKey]map[int64]tuple.Tuple
	nextID  int64
	waiters map[chan struct{}]struct{} // one wake channel per blocked In/Rd
	outs    uint64
	ins     uint64
	rds     uint64

	wg sync.WaitGroup // Eval goroutines
}

// leadKey buckets tuples by arity and canonical leading value.
type leadKey struct {
	arity int
	kind  uint8
	num   float64
	str   string
}

func keyOf(t tuple.Tuple) leadKey {
	k := leadKey{arity: t.Arity()}
	if t.Arity() == 0 {
		return k
	}
	v := t.Field(0)
	if n, ok := v.Numeric(); ok {
		k.kind, k.num = 1, n
		return k
	}
	if a, ok := v.AsAtom(); ok {
		k.kind, k.str = 2, a
		return k
	}
	if s, ok := v.AsString(); ok {
		k.kind, k.str = 3, s
		return k
	}
	if b, ok := v.AsBool(); ok {
		k.kind = 4
		if b {
			k.num = 1
		}
	}
	return k
}

// NewSpace returns an empty tuple space.
func NewSpace() *Space {
	return &Space{
		byLead:  make(map[leadKey]map[int64]tuple.Tuple),
		waiters: make(map[chan struct{}]struct{}),
	}
}

// Template is an anti-tuple: a sequence of fields that are either actuals
// (concrete values) or formals (typed or untyped wildcards that receive
// the matched tuple's fields).
type Template struct {
	fields []tfield
}

type tfield struct {
	actual  bool
	value   tuple.Value
	kind    tuple.Kind // formal type constraint; KindInvalid = any
	varName string     // formal result name (informational)
}

// T starts building a template.
func T() Template { return Template{} }

// Actual appends an actual (constant) field.
func (t Template) Actual(v tuple.Value) Template {
	t.fields = append(t.fields, tfield{actual: true, value: v})
	return t
}

// Formal appends an untyped formal field (matches any value).
func (t Template) Formal(name string) Template {
	t.fields = append(t.fields, tfield{varName: name})
	return t
}

// FormalTyped appends a formal constrained to a value kind.
func (t Template) FormalTyped(name string, k tuple.Kind) Template {
	t.fields = append(t.fields, tfield{varName: name, kind: k})
	return t
}

// Arity returns the template length.
func (t Template) Arity() int { return len(t.fields) }

// match reports whether tp matches the template.
func (t Template) match(tp tuple.Tuple) bool {
	if tp.Arity() != len(t.fields) {
		return false
	}
	for i, f := range t.fields {
		fv := tp.Field(i)
		if f.actual {
			if !f.value.Equal(fv) {
				return false
			}
		} else if f.kind != tuple.KindInvalid && fv.Kind() != f.kind {
			return false
		}
	}
	return true
}

// lead returns the index key the template constrains, if its first field
// is an actual.
func (t Template) lead() (leadKey, bool) {
	if len(t.fields) == 0 || !t.fields[0].actual {
		return leadKey{}, false
	}
	probe := make([]tuple.Value, len(t.fields))
	probe[0] = t.fields[0].value
	for i := 1; i < len(probe); i++ {
		probe[i] = tuple.Int(0)
	}
	return keyOf(tuple.New(probe...)), true
}

// Out adds a tuple to the space.
func (s *Space) Out(t tuple.Tuple) {
	s.mu.Lock()
	s.nextID++
	k := keyOf(t)
	bucket := s.byLead[k]
	if bucket == nil {
		bucket = make(map[int64]tuple.Tuple)
		s.byLead[k] = bucket
	}
	bucket[s.nextID] = t
	s.outs++
	// Wake all waiters; each re-checks its own template. Linda's classic
	// implementations wake conservatively, as we do.
	for w := range s.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

// take searches for a match and (when remove is set) retracts it.
func (s *Space) take(t Template, remove bool) (tuple.Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	scan := func(k leadKey) (tuple.Tuple, bool) {
		for id, tp := range s.byLead[k] {
			if t.match(tp) {
				if remove {
					delete(s.byLead[k], id)
					if len(s.byLead[k]) == 0 {
						delete(s.byLead, k)
					}
					s.ins++
				} else {
					s.rds++
				}
				return tp, true
			}
		}
		return tuple.Tuple{}, false
	}
	if k, ok := t.lead(); ok {
		return scan(k)
	}
	for k := range s.byLead {
		if k.arity != t.Arity() {
			continue
		}
		if tp, ok := scan(k); ok {
			return tp, true
		}
	}
	return tuple.Tuple{}, false
}

// Inp retracts a matching tuple if one exists (non-blocking In).
func (s *Space) Inp(t Template) (tuple.Tuple, bool) { return s.take(t, true) }

// Rdp reads a matching tuple if one exists (non-blocking Rd).
func (s *Space) Rdp(t Template) (tuple.Tuple, bool) { return s.take(t, false) }

// blocking performs the wait loop shared by In and Rd.
func (s *Space) blocking(ctx context.Context, t Template, remove bool) (tuple.Tuple, error) {
	for {
		w := make(chan struct{}, 1)
		s.mu.Lock()
		s.waiters[w] = struct{}{}
		s.mu.Unlock()

		tp, ok := s.take(t, remove)
		if ok {
			s.dropWaiter(w)
			return tp, nil
		}
		select {
		case <-w:
			s.dropWaiter(w)
		case <-ctx.Done():
			s.dropWaiter(w)
			return tuple.Tuple{}, ctx.Err()
		}
	}
}

func (s *Space) dropWaiter(w chan struct{}) {
	s.mu.Lock()
	delete(s.waiters, w)
	s.mu.Unlock()
}

// In retracts a matching tuple, blocking until one exists.
func (s *Space) In(ctx context.Context, t Template) (tuple.Tuple, error) {
	return s.blocking(ctx, t, true)
}

// Rd reads a matching tuple, blocking until one exists.
func (s *Space) Rd(ctx context.Context, t Template) (tuple.Tuple, error) {
	return s.blocking(ctx, t, false)
}

// Eval spawns fn on its own goroutine and Outs its result when it
// completes — Linda's "live tuple". Wait blocks until all Evals finish.
func (s *Space) Eval(fn func() tuple.Tuple) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Out(fn())
	}()
}

// Wait blocks until all Eval goroutines have completed.
func (s *Space) Wait() { s.wg.Wait() }

// Len returns the number of tuples in the space.
func (s *Space) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.byLead {
		n += len(b)
	}
	return n
}

// Stats reports primitive-use counters: outs, ins (retractions), rds.
func (s *Space) Stats() (outs, ins, rds uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outs, s.ins, s.rds
}
