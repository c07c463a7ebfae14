//go:build go1.24

package tuple

import (
	"hash/maphash"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"weak"
)

// interned maps each interned text to a weak pointer at its canonical copy.
// There is one table per process because == compares Values from anywhere
// in it. It is split into shards by a hash of the text, so a sweep locks
// one shard at a time and can stop after a bounded number of entries.
var interned [internShards]internShard

type internShard struct {
	sync.RWMutex
	m map[string]weak.Pointer[string]
}

const (
	internShards = 16
	// minSweep is the shard size below which a shard is not swept: a small
	// table's dead entries cost little, and text interned again replaces its
	// dead copy. So a table under internShards × minSweep = 1 024 entries
	// is not swept at all.
	minSweep = 64
	// sweepBudget bounds the entries one cycle's sweep visits.
	sweepBudget = 8192
)

var (
	internSeed = maphash.MakeSeed()
	sweepFrom  atomic.Uint32 // the shard the next sweep starts at
)

func init() {
	for i := range interned {
		interned[i].m = make(map[string]weak.Pointer[string])
	}
	everyCycle()
}

// intern returns the canonical copy of text: every call with equal text
// returns the same pointer for as long as some Value holds it, so Values
// compare text by pointer. text is copied only when it is new, so it may
// alias a buffer the caller reuses.
//
// The table holds its copies weakly, so text minted at run time (a
// concatenation in an expression) is collected, not accumulated. A copy
// dies only in a collection cycle, so one cleanup, re-armed every cycle,
// sweeps the table (sweepInterned) instead of one cleanup per copy: a hit
// allocates nothing, and a miss three times — the copy's header, its bytes
// and its weak handle. This is not go1.24's unique.Make: its dead entries
// are dropped by a walk beside the mark phase that revives every entry it
// reaches there (on one CPU, 10⁵ dropped strings were all still held after
// 2 000 cycles).
//
// The go1.24 constraint is the floor of the weak package and
// runtime.AddCleanup; it also raises this one file's language version
// above go.mod's.
func intern(text string) *string {
	sh := &interned[maphash.String(internSeed, text)%internShards]
	sh.RLock()
	wp, ok := sh.m[text]
	sh.RUnlock()
	if ok {
		if p := wp.Value(); p != nil {
			return p
		}
	}
	sh.Lock()
	defer sh.Unlock()
	if p := sh.m[text].Value(); p != nil {
		return p // another goroutine interned text first
	}
	p := new(string)
	*p = strings.Clone(text)
	sh.m[*p] = weak.Make(p)
	return p
}

// cycleMark is collected by the first collection cycle after it is made.
type cycleMark struct{ _ *byte }

// everyCycle sweeps the table after the next collection cycle, and arms
// itself again for the one after.
func everyCycle() {
	runtime.AddCleanup(&cycleMark{}, func(struct{}) {
		sweepInterned()
		everyCycle()
	}, struct{}{})
}

// sweepInterned sweeps shards in turn, from where the last sweep stopped,
// until it has visited sweepBudget entries or every shard. So one cycle's
// sweep costs at most the budget plus a shard, however large the table,
// and a dead copy's entry goes within len/sweepBudget + 1 cycles. It
// returns the entries it visited.
func sweepInterned() (visited int) {
	next := sweepFrom.Load()
	for i := 0; i < internShards && visited < sweepBudget; i++ {
		visited += interned[next].sweep()
		next = (next + 1) % internShards
	}
	sweepFrom.Store(next)
	return visited
}

// sweep drops the shard's entries whose copies were collected, unless it
// holds fewer than minSweep, and returns how many it held. It counts them
// under the read lock, beside hits, then deletes them in place, or, when
// they are half the shard or more, moves the live entries into a fresh map,
// so the table's memory follows what Values hold.
func (sh *internShard) sweep() int {
	sh.RLock()
	n, dead := len(sh.m), 0
	if n >= minSweep {
		for _, wp := range sh.m {
			if wp.Value() == nil {
				dead++
			}
		}
	}
	sh.RUnlock()
	if dead == 0 {
		return n
	}
	sh.Lock()
	defer sh.Unlock()
	fresh, live := 2*dead >= n, sh.m
	if fresh {
		live = make(map[string]weak.Pointer[string], n-dead)
	}
	for text, wp := range sh.m {
		switch alive := wp.Value() != nil; {
		case !alive && !fresh:
			delete(sh.m, text)
		case alive && fresh:
			live[text] = wp
		}
	}
	sh.m = live
	return n
}
