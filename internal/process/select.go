package process

import (
	"context"
	"errors"

	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/txn"
)

// runSelect executes the selection construct. It returns whether a branch
// was selected; false with a nil error is the paper's "selection fails,
// modeled as skip". Delayed and consensus guards make the selection block
// until one guard commits. Multiple consensus guards (as in Sum1's phase
// barrier) are offered as alternatives of a single consensus offer: when
// the set fires, the first guard whose query succeeds is the one selected.
func (p *proc) runSelect(ctx context.Context, branches []Branch, _ bool) (bool, error) {
	var consensusIdx []int
	hasBlocking := false
	for i, b := range branches {
		switch b.Guard.Kind {
		case Consensus:
			consensusIdx = append(consensusIdx, i)
			hasBlocking = true
		case Delayed:
			hasBlocking = true
		}
	}

	// First pass: attempt every non-consensus guard once.
	if idx, a, err := p.tryGuards(ctx, branches); err != nil {
		return false, err
	} else if idx >= 0 {
		return true, p.runBranch(ctx, branches[idx], a)
	}
	if !hasBlocking {
		return false, nil // all guards immediate and all failed: skip
	}

	idx, a, err := p.awaitGuard(ctx, branches, consensusIdx)
	if err != nil {
		return false, err
	}
	return true, p.runBranch(ctx, branches[idx], a)
}

// awaitGuard is the selection's blocking loop: it returns the index and
// answer of the first guard to commit. One nil-filter subscription (wake on
// any commit covering a guard pattern) and its one ready channel span the
// whole wait — the process's own, made by its first blocking selection and
// re-armed by every later one; it is armed before the guards are re-tried,
// and every later re-try is preceded by a Drain, so a commit racing with an
// evaluation readies the channel again rather than being lost.
func (p *proc) awaitGuard(ctx context.Context, branches []Branch, consensusIdx []int) (int, *txn.Answer, error) {
	var keyBuf [8]dataspace.InterestKey
	if p.sub == nil {
		p.sub = new(dataspace.Subscription)
	}
	sub := p.sub
	p.rt.engine.Store().Arm(sub, p.guardInterestKeys(branches, keyBuf[:0]), nil)
	defer sub.Cancel()
	for {
		if err := ctx.Err(); err != nil {
			return -1, nil, err
		}
		sub.Drain()
		if idx, a, err := p.tryGuards(ctx, branches); err != nil || idx >= 0 {
			return idx, a, err
		}

		// Offer the consensus guards (if any), as alternatives of a single
		// offer, while the process is otherwise idle. The offer copies the
		// requests, so they are built in a stack array when they fit.
		var offer *consensus.Offer
		var offerDone <-chan struct{}
		if len(consensusIdx) > 0 {
			var reqBuf [2]txn.Request
			reqs := reqBuf[:0]
			for _, bi := range consensusIdx {
				reqs = append(reqs, p.request(branches[bi].Guard))
			}
			o, err := p.rt.cons.StartOfferAlts(reqs)
			if err != nil {
				return -1, nil, err
			}
			offer = o
			offerDone = o.Done()
		}
		fired := func() (int, *txn.Answer, error) {
			a, err := offer.Answer()
			if err != nil {
				return -1, nil, err
			}
			return consensusIdx[offer.Chosen()], a, nil
		}
		// withdrawn reports whether the pending offer (if any) was taken
		// back; false means the consensus fired while we were withdrawing —
		// its effect is committed, so that guard is the selected one.
		withdrawn := func() bool {
			if offer == nil || offer.Withdraw() {
				return true
			}
			<-offer.Done()
			return false
		}

		restore := p.setState(StateBlockedSelect)
		select {
		case <-offerDone:
			restore()
			return fired()
		case <-sub.Ready():
			restore()
			if !withdrawn() {
				return fired()
			}
			// Dataspace changed: loop and re-try the guards.
		case <-ctx.Done():
			restore()
			if !withdrawn() {
				return fired()
			}
			return -1, nil, ctx.Err()
		}
	}
}

// tryGuards attempts each non-consensus guard once and returns the index
// and answer of the first that commits (-1 if none). The paper specifies
// that among several executable guards "an arbitrary one (but only one) is
// selected"; attempts start at a rotating offset so a repetition does not
// starve later guards whose earlier siblings are always enabled.
func (p *proc) tryGuards(ctx context.Context, branches []Branch) (int, *txn.Answer, error) {
	start := int(p.selSeq % uint64(len(branches)))
	p.selSeq++
	for off := 0; off < len(branches); off++ {
		i := (start + off) % len(branches)
		b := branches[i]
		if b.Guard.Kind == Consensus {
			continue
		}
		a, err := p.rt.engine.Run(ctx, p.request(b.Guard), metrics.TxnImmediate)
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

// runBranch executes a selected branch: the guard's actions, which read and
// then release its answer, then the branch body.
func (p *proc) runBranch(ctx context.Context, b Branch, a *txn.Answer) error {
	err := p.runActions(b.Guard.Actions, a)
	a.Release()
	if err != nil {
		return err
	}
	return p.runSeq(ctx, b.Body)
}

// guardInterestKeys unions the interest keys of every guard's query
// patterns (positive and negated), with leads pinned when determined by
// the process environment, appending them to keys (the caller's stack
// buffer: Subscribe copies what it keeps).
func (p *proc) guardInterestKeys(branches []Branch, keys []dataspace.InterestKey) []dataspace.InterestKey {
	for _, b := range branches {
		for _, pat := range b.Guard.Query.Patterns {
			lead, known := pat.Lead(p.env)
			keys = append(keys, dataspace.InterestOf(pat.Arity(), lead, known))
		}
	}
	return keys
}

// runRepeat executes the repetition construct: the selection restarts
// after each selected branch; a failed selection or an exit action
// terminates it.
func (p *proc) runRepeat(ctx context.Context, branches []Branch) error {
	for {
		selected, err := p.runSelect(ctx, branches, true)
		switch {
		case errors.Is(err, errExit):
			return nil // exit terminates the guarded sequence and the repetition
		case err != nil:
			return err
		case !selected:
			return nil // selection failed: repetition terminates
		}
	}
}
