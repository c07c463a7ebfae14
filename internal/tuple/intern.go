//go:build go1.24

package tuple

import (
	"runtime"
	"strings"
	"sync"
	"weak"
)

// interned maps each interned text to a weak pointer at its canonical copy.
// There is one table per process because == compares Values from anywhere
// in it.
var interned sync.Map // string → weak.Pointer[string]

// intern returns the canonical copy of text: every call with equal text
// returns the same pointer for as long as some Value holds it, so Values
// compare text by pointer. text is copied only when it is new, so it may
// alias a buffer the caller reuses.
//
// The table holds its copies weakly, and each copy's cleanup drops its
// entry once no Value holds the copy: text minted at run time (a
// concatenation in an expression) is collected, not accumulated. This is
// unique.Make's design as of Go 1.25; go1.24's unique instead drops dead
// entries by a walk that runs beside the mark phase and revives every entry
// it reaches there (on one CPU, 10⁵ dropped strings were all still held
// after 2 000 cycles).
//
// The go1.24 constraint is the floor of the weak package and
// runtime.AddCleanup; it also raises this one file's language version
// above go.mod's.
func intern(text string) *string {
	if wp, ok := interned.Load(text); ok {
		if p := wp.(weak.Pointer[string]).Value(); p != nil {
			return p
		}
	}
	p := new(string)
	*p = strings.Clone(text)
	wp := weak.Make(p)
	for {
		old, loaded := interned.LoadOrStore(*p, wp)
		if !loaded {
			break
		}
		if q := old.(weak.Pointer[string]).Value(); q != nil {
			return q // another goroutine interned text first
		}
		interned.CompareAndDelete(*p, old) // a dead copy whose cleanup is pending
	}
	runtime.AddCleanup(p, func(key string) { interned.CompareAndDelete(key, wp) }, *p)
	return p
}
