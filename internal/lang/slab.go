package lang

// slab hands out values of one type from a shared backing array, so a
// program costs one allocation per node or list type instead of one per
// node. The first array, cut on first use, holds hint values (the parser
// reads an upper bound off the token histogram; the compiler counts the
// AST); a further array is cut only when the hint fell short. Arrays are
// never grown in place, so pointers and slices already handed out stay
// valid.
type slab[T any] struct {
	buf  []T
	hint int
}

// make returns n zero values as a full slice (len == cap): an append to
// it reallocates instead of overwriting the slab's next value.
func (s *slab[T]) make(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, max(s.hint, n))
	}
	i := len(s.buf)
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// new stores v in the slab and returns a pointer to it.
func (s *slab[T]) new(v T) *T {
	p := &s.make(1)[0]
	*p = v
	return p
}

// cut moves the entries of a scratch stack above base into s at their
// exact size and pops them. The popped entries are zeroed, so a pooled
// stack holds no pointer into a finished program.
func cut[T any](s *slab[T], stack *[]T, base int) []T {
	top := (*stack)[base:]
	out := s.make(len(top))
	copy(out, top)
	clear(top)
	*stack = (*stack)[:base]
	return out
}
