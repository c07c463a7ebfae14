package process

import (
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/txn"
)

// selection runs the selection of f's branches — a selection's or a
// repetition's — or, while it is waiting, resumes it after a wake. A branch
// selected runs its guard's actions and pushes its body; no branch
// selectable is the paper's "selection fails, modeled as skip" (and ends a
// repetition). Delayed and consensus guards make the selection park until
// one guard commits.
// Multiple consensus guards (as in Sum1's phase barrier) are offered as
// alternatives of a single consensus offer: when the set fires, the first
// guard whose query succeeds is the one selected.
//
// A blocking selection waits on the record's subscription, cut by its first
// wait and re-armed by every later one, with a nil filter
// (wake on any commit covering a guard pattern), armed before the guards are
// re-tried; every re-try is preceded by a Drain, so a commit racing with an
// evaluation wakes the record again rather than being lost. Its consensus
// guards are offered through the record's offer while it is parked, and
// withdrawn when it wakes for anything else.
func (p *proc) selection(f *frame) outcome {
	branches := f.branches
	if !p.waiting {
		// A repetition of immediate guards may never reach another
		// statement: it sees the runtime's cancellation here.
		if err := p.rt.ctx.Err(); err != nil {
			return p.raise(err)
		}
		// First pass: attempt every non-consensus guard once.
		idx, a, err := p.tryGuards(branches)
		switch {
		case err != nil:
			return p.raise(err)
		case idx >= 0:
			return p.selected(f, idx, a)
		case !blocking(branches):
			p.pop() // all guards immediate and all failed: skip
			return boundary
		}
		var keyBuf [8]dataspace.InterestKey
		p.rt.engine.Store().Arm(p.wait(), p, p.guardInterestKeys(branches, keyBuf[:0]), nil)
		p.waiting = true
	}
	for {
		if out, fired := p.unoffer(f); fired {
			return out
		}
		p.armWake()
		if err := p.rt.ctx.Err(); err != nil {
			p.endSelect()
			return p.raise(err)
		}
		p.sub.Drain()
		if idx, a, err := p.tryGuards(branches); err != nil || idx >= 0 {
			p.endSelect()
			if err != nil {
				return p.raise(err)
			}
			return p.selected(f, idx, a)
		}
		if err := p.offer(branches); err != nil {
			p.endSelect()
			return p.raise(err)
		}
		p.state.Store(int32(StateBlockedSelect))
		if p.park() {
			return parked
		}
	}
}

// blocking reports whether a selection over branches waits for a guard: it
// has a delayed or consensus one.
func blocking(branches []Branch) bool {
	for _, b := range branches {
		if b.Guard.Kind == Delayed || b.Guard.Kind == Consensus {
			return true
		}
	}
	return false
}

// offer arms the record's offer with the selection's consensus guards, as
// alternatives of one offer, if it has any. The offer copies the requests,
// so they are built in a stack array when they fit.
func (p *proc) offer(branches []Branch) error {
	var reqBuf [2]txn.Request
	reqs := reqBuf[:0]
	for _, b := range branches {
		if b.Guard.Kind == Consensus {
			reqs = append(reqs, p.request(b.Guard))
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	if err := p.rearm(reqs); err != nil {
		return err
	}
	p.offered = true
	return nil
}

// rearm arms the record's offer with reqs, off the pool's count: an offer
// that completes its set fires it, and the commit may wait for an fsync.
func (p *proc) rearm(reqs []txn.Request) error {
	syncing := p.rt.beginSync()
	err := p.rt.cons.Rearm(p.member.Offer(), reqs, p)
	if syncing {
		p.rt.endSync()
	}
	return err
}

// unoffer is a waiting selection's first act on every pass: it takes back
// the offer, if one is armed, unless it fired — the consensus is committed,
// so its guard is the one selected: the selection ends, and unoffer reports
// it with the outcome of running that branch. Either way the record is
// running again.
func (p *proc) unoffer(f *frame) (outcome, bool) {
	p.state.Store(int32(StateRunning))
	if !p.offered {
		return stepped, false
	}
	p.offered = false
	o := p.member.Offer()
	if !o.Fired() && o.Withdraw() {
		return stepped, false
	}
	p.endSelect()
	a, err := o.Answer()
	if err != nil {
		return p.raise(err), true
	}
	n := o.Chosen()
	for i, b := range f.branches {
		if b.Guard.Kind == Consensus {
			if n == 0 {
				return p.selected(f, i, a), true
			}
			n--
		}
	}
	panic("process: offer fired an alternative the selection does not have")
}

// endSelect ends a blocking selection's wait: its subscription is cancelled.
func (p *proc) endSelect() {
	p.sub.Cancel()
	p.waiting = false
	p.state.Store(int32(StateRunning))
}

// selected runs branch i of f, chosen with answer a: the guard's actions,
// which read and then release the answer, then — pushed, unless empty — the
// branch body.
func (p *proc) selected(f *frame, i int, a *txn.Answer) outcome {
	b := &f.branches[i]
	if f.kind == frameSelect {
		f.pc = 1
	}
	err := p.runActions(b.Guard.Actions, a)
	a.Release()
	if err != nil {
		return p.raise(err)
	}
	p.pushSeq(b.Body)
	return boundary
}

// tryGuards attempts each non-consensus guard once and returns the index
// and answer of the first that commits (-1 if none). The paper specifies
// that among several executable guards "an arbitrary one (but only one) is
// selected"; attempts start at a rotating offset so a repetition does not
// starve later guards whose earlier siblings are always enabled.
func (p *proc) tryGuards(branches []Branch) (int, *txn.Answer, error) {
	start := int(p.selSeq % uint32(len(branches)))
	p.selSeq++
	for off := 0; off < len(branches); off++ {
		i := (start + off) % len(branches)
		b := branches[i]
		if b.Guard.Kind == Consensus {
			continue
		}
		a, err := p.immediate(b.Guard)
		if err != nil {
			return -1, nil, err
		}
		if a.OK() {
			return i, a, nil
		}
		a.Release()
	}
	return -1, nil, nil
}

// guardInterestKeys unions the interest keys of every guard's query
// patterns (positive and negated), with leads pinned when determined by
// the process's scope, appending them to keys (the caller's stack
// buffer: Arm copies what it keeps).
func (p *proc) guardInterestKeys(branches []Branch, keys []dataspace.InterestKey) []dataspace.InterestKey {
	for _, b := range branches {
		for _, pat := range b.Guard.Query.Patterns {
			lead, known := pat.Lead(p.scope)
			keys = append(keys, dataspace.InterestOf(pat.Arity(), lead, known))
		}
	}
	return keys
}
