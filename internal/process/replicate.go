package process

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sdl-lang/sdl/internal/metrics"
)

// ErrReplicationGuard reports a replication whose guard is not immediate.
// The construct's unbounded copies are transactions that either succeed
// (spawning further copies) or terminate; a blocking guard would keep the
// construct alive forever. The paper's replication examples all use '→'.
var ErrReplicationGuard = errors.New("process: replication guards must be immediate")

// runReplicate executes the replication construct ('≋'). Operationally we
// follow the paper's second model: each guarded sequence starts
// concurrently; every successful guard execution leads to further copies
// (the worker loops again); the construct terminates when all generated
// sequences have terminated — detected as a full round in which no guard
// committed and the dataspace version did not move.
func (p *proc) runReplicate(ctx context.Context, r Replicate) error {
	for _, b := range r.Branches {
		if b.Guard.Kind != Immediate {
			return ErrReplicationGuard
		}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	store := p.rt.engine.Store()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		v0 := store.Version()
		var (
			committed atomic.Uint64
			wg        sync.WaitGroup
			errMu     sync.Mutex
			firstErr  error
		)
		fail := func(err error) {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
		for bi := range r.Branches {
			b := r.Branches[bi]
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each copy runs on a clone so Let actions in the body
					// cannot race with sibling copies.
					copyProc := &proc{rt: p.rt, pid: p.pid, def: p.def, view: p.view, env: p.env}
					for {
						if ctx.Err() != nil {
							return
						}
						a, err := p.rt.engine.Run(ctx, copyProc.request(b.Guard), metrics.TxnImmediate)
						if err != nil {
							fail(err)
							return
						}
						if !a.OK() {
							a.Release()
							return // this copy terminates
						}
						committed.Add(1)
						if err := copyProc.runBranch(ctx, b, a); err != nil {
							if errors.Is(err, errExit) {
								return // exit ends this sequence copy
							}
							fail(err)
							return
						}
					}
				}()
			}
		}
		wg.Wait()
		if firstErr != nil {
			return fmt.Errorf("replication: %w", firstErr)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Quiescence: nothing committed in this round and the configuration
		// did not change under us.
		if committed.Load() == 0 && store.Version() == v0 {
			return nil
		}
	}
}
