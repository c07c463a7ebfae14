//go:build go1.24

package lang

import (
	"sync"
	"weak"
)

// spare hands the scratch a parse left to the next parse, whichever
// goroutine or P that runs on: one slot, taken whole and refilled only when
// empty. The slot holds the scratch weakly; what keeps it alive is kept, a
// sync.Pool used only for the collector's ageing of pools — it drops what a
// pool holds two cycles after the last Put — so a program that stops
// parsing gives the memory back. (A pool's Get would not do as the cache:
// it keeps the one scratch in the private slot of the P that put it, which
// a parse on another P cannot take.) The go1.24 constraint is the floor of
// the weak package, as for the tuple package's intern table.
var spare struct {
	mu sync.Mutex
	s  weak.Pointer[scratch]
}

var kept sync.Pool

// takeScratch takes the spare scratch, or makes one.
func takeScratch() *scratch {
	spare.mu.Lock()
	s := spare.s.Value()
	spare.s = weak.Pointer[scratch]{}
	spare.mu.Unlock()
	if s == nil {
		s = new(scratch)
	}
	return s
}

// putScratch offers s, emptied, to the next parse, unless the slot holds
// another scratch already.
func putScratch(s *scratch) {
	spare.mu.Lock()
	free := spare.s.Value() == nil
	if free {
		spare.s = weak.Make(s)
	}
	spare.mu.Unlock()
	if free {
		kept.Get() // one keep-alive per P: s replaces what this P kept
		kept.Put(s)
	}
}
