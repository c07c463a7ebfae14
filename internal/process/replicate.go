package process

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrReplicationGuard reports a replication whose guard is not immediate.
// The construct's unbounded copies are transactions that either succeed
// (spawning further copies) or terminate; a blocking guard would keep the
// construct alive forever. The paper's replication examples all use '→'.
var ErrReplicationGuard = errors.New("process: replication guards must be immediate")

// replication is one replication statement's state while it runs: the
// current round's copies and what they report.
type replication struct {
	r Replicate
	// parent is the replicating process, set once: the last copy of a
	// round reads it to wake the parent, which may already be starting
	// the next round.
	parent  *proc
	v0      uint64  // the dataspace version the round started at
	copies  []*proc // the round's copies, woken when the runtime is cancelled
	pending atomic.Int32
	// committed counts the round's committed guards.
	committed atomic.Uint64

	errMu    sync.Mutex
	firstErr error
}

// replicate runs a replication ('≋') round by round, or resumes it when its
// copies wake it. Operationally we follow the paper's second model: each
// guarded sequence starts concurrently — Workers copies per branch, each a
// record of its own on the worker pool — and every successful guard
// execution leads to further copies (the copy loops again); the construct
// terminates when all generated sequences have terminated — detected as a
// full round in which no guard committed and the dataspace version did not
// move. The replicating process parks while its copies run; the last copy
// to end wakes it.
func (p *proc) replicate(rep *replication) outcome {
	store := p.rt.engine.Store()
	for {
		if !p.waiting {
			if err := p.rt.ctx.Err(); err != nil {
				return p.raise(err)
			}
			p.startRound(rep)
		}
		p.armWake()
		if rep.pending.Load() > 0 {
			if p.rt.ctx.Err() != nil {
				// Cancelled: a copy parked in its body learns it from a wake.
				for _, c := range rep.copies {
					c.Wake()
				}
			}
			if p.park() {
				return parked
			}
			continue
		}
		p.waiting = false
		if rep.firstErr != nil {
			return p.raise(fmt.Errorf("replication: %w", rep.firstErr))
		}
		if err := p.rt.ctx.Err(); err != nil {
			return p.raise(err)
		}
		// Quiescence: nothing committed in this round and the configuration
		// did not change under us.
		if rep.committed.Load() == 0 && store.Version() == rep.v0 {
			p.pop()
			return boundary
		}
	}
}

// startRound starts a round of rep's copies and leaves p waiting on them.
func (p *proc) startRound(rep *replication) {
	workers := rep.r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep.v0 = p.rt.engine.Store().Version()
	rep.committed.Store(0)
	clear(rep.copies)
	rep.copies = rep.copies[:0]
	for bi := range rep.r.Branches {
		for w := 0; w < workers; w++ {
			// Each copy is a record of its own, its scope starting at the
			// replicating process's: a let in a copy extends that copy's
			// scope alone, so sibling copies neither see nor race with it.
			c := &proc{rt: p.rt, pid: p.pid, def: p.def, view: p.view, scope: p.scope, copyOf: rep}
			c.init(frame{kind: frameCopy, branches: rep.r.Branches[bi : bi+1]})
			rep.copies = append(rep.copies, c)
		}
	}
	rep.pending.Store(int32(len(rep.copies)))
	p.waiting = true
	for _, c := range rep.copies {
		p.rt.enqueue(c)
	}
}

// copyRound runs one pass of a replication copy's guarded sequence: its
// guard, and on success its actions and — pushed — its body, after which
// the copy loops. A failed guard or an exit ends the copy.
func (p *proc) copyRound(f *frame) outcome {
	if p.rt.ctx.Err() != nil {
		p.pop()
		return ended
	}
	b := &f.branches[0]
	a, err := p.immediate(b.Guard)
	if err != nil {
		return p.raise(err)
	}
	if !a.OK() {
		a.Release()
		p.pop()
		return ended // this copy terminates
	}
	p.copyOf.committed.Add(1)
	err = p.runActions(b.Guard.Actions, a)
	a.Release()
	if err != nil {
		return p.raise(err)
	}
	p.pushSeq(b.Body)
	return boundary
}

// done retires ended copy c, recording the error it ended with, and wakes
// the replicating process when c was the round's last.
func (rep *replication) done(c *proc) {
	if c.err != nil {
		rep.errMu.Lock()
		if rep.firstErr == nil {
			rep.firstErr = c.err
		}
		rep.errMu.Unlock()
	}
	if rep.pending.Add(-1) == 0 {
		rep.parent.Wake()
	}
}
