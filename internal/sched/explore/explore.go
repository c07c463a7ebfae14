// Package explore drives the SDL runtime through adversarial schedules and
// checks every run against the reference semantics.
//
// For each (program, seed) pair it assembles a fresh system — store,
// transaction engine, consensus manager, process runtime — with a
// deterministic sched.Controller installed, runs the program to
// completion, and then verifies:
//
//   - serializability: the commit log's versions form the gap-free
//     sequence 1..n and replay cleanly through refmodel (every retraction
//     references an instance the equivalent serial history contains);
//   - state equivalence: the serial replay's final content multiset equals
//     the store's actual final contents;
//   - all-or-nothing consensus: every commit inserting a community's
//     marker tuples inserts the whole community's worth, never a partial
//     fire;
//   - the program's own final-state invariant.
//
// A failing seed is shrunk (Shrink) to the smallest active-decision budget
// that still fails, giving a minimal perturbation prefix to replay with
// `sdlexplore -seed N -limit L` (or `sdli -sched-seed N`).
package explore

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/trace"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/wal"
)

// Options configures an exploration campaign.
type Options struct {
	// Seeds is the number of seeds to explore per program (default 100).
	Seeds int
	// StartSeed is the first seed (campaigns partition the seed space by
	// starting at different offsets).
	StartSeed uint64
	// Faults is the perturbation profile (zero = schedule decisions are
	// drawn but no faults fire).
	Faults sched.Faults
	// Shards fixes the store's shard count; 0 derives it from the seed
	// (1, 2, 4, or 8 — reproducible, since it is a pure function of seed).
	Shards int
	// Timeout bounds one run (default 30s; runs normally take
	// milliseconds, so hitting it is itself a liveness failure).
	Timeout time.Duration
	// Programs selects the corpus (nil = Corpus()).
	Programs []Program
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// MaxFailures stops the campaign early after this many failures
	// (0 = collect them all).
	MaxFailures int
}

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 100
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Programs == nil {
		o.Programs = Corpus()
	}
	return o
}

// configPoint is the decision stream configFor hashes. It is frozen: the
// value is the ordinal the stream had when seeds were first assigned their
// configurations, so adding or retiring a sched.Point never reassigns a
// recorded seed's shards.
const configPoint sched.Point = 19

// configFor derives the per-seed shard count, a pure function of the seed,
// so a reported seed reproduces its configuration.
func configFor(seed uint64, o Options) int {
	if o.Shards != 0 {
		return o.Shards
	}
	return 1 << (sched.Decide(seed, configPoint, 0x5eed) % 4) // 1, 2, 4, 8
}

// Failure describes one failing (program, seed) pair.
type Failure struct {
	Program string
	Seed    uint64
	Shards  int
	Err     error
	// Decisions is the number of decisions the failing run drew.
	Decisions int64
	// MinLimit is the smallest active-decision budget that still fails
	// (-1 until Shrink has run).
	MinLimit int64
	// Trace is the active decision prefix of the shrunk failing run.
	Trace []sched.Decision
}

func (f Failure) String() string {
	s := fmt.Sprintf("%s: seed %d (shards=%d): %v", f.Program, f.Seed, f.Shards, f.Err)
	if f.MinLimit >= 0 {
		s += fmt.Sprintf("\n  shrunk to %d active decisions (of %d drawn); replay: sdlexplore -program %s -seed %d -limit %d",
			f.MinLimit, f.Decisions, f.Program, f.Seed, f.MinLimit)
		if sum := sched.TraceSummary(f.Trace); sum != "" {
			s += "\n  decisions: " + sum
		}
	}
	return s
}

// Report summarizes a campaign.
type Report struct {
	Runs     int
	Programs int
	Failures []Failure
}

// Run explores opts.Seeds seeds per corpus program. Every failing seed is
// shrunk before being reported.
func Run(opts Options) Report {
	opts = opts.withDefaults()
	rep := Report{Programs: len(opts.Programs)}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, p := range opts.Programs {
		failed := 0
		for i := 0; i < opts.Seeds; i++ {
			seed := opts.StartSeed + uint64(i)
			decisions, _, err := runOnce(p, seed, -1, false, opts)
			rep.Runs++
			if err == nil {
				continue
			}
			failed++
			f := Failure{Program: p.Name, Seed: seed, Shards: configFor(seed, opts),
				Err: err, Decisions: decisions, MinLimit: -1}
			logf("FAIL %s seed=%d: %v (shrinking...)", p.Name, seed, err)
			f = Shrink(p, f, opts)
			rep.Failures = append(rep.Failures, f)
			if opts.MaxFailures > 0 && len(rep.Failures) >= opts.MaxFailures {
				return rep
			}
		}
		if failed == 0 {
			logf("%-16s %d seeds ok (%d..%d)", p.Name, opts.Seeds, opts.StartSeed, opts.StartSeed+uint64(opts.Seeds)-1)
		} else {
			logf("%-16s %d/%d seeds FAILED (%d..%d)", p.Name, failed, opts.Seeds, opts.StartSeed, opts.StartSeed+uint64(opts.Seeds)-1)
		}
	}
	return rep
}

// RunSeed runs one (program, seed) pair with full verification. limit
// bounds the active decisions (< 0 = unlimited). It returns the number of
// decisions the run drew.
func RunSeed(p Program, seed uint64, limit int64, opts Options) (int64, error) {
	opts = opts.withDefaults()
	decisions, _, err := runOnce(p, seed, limit, false, opts)
	return decisions, err
}

// runOnce assembles a fresh system under a seed-deterministic controller,
// runs the program, and verifies the run.
func runOnce(p Program, seed uint64, limit int64, traced bool, opts Options) (int64, []sched.Decision, error) {
	shards := configFor(seed, opts)
	c := sched.New(seed, opts.Faults)
	if limit >= 0 {
		c.SetLimit(limit)
	}
	if traced {
		c.EnableTrace(0)
	}
	store := dataspace.New(dataspace.WithShards(shards), dataspace.WithScheduler(c))
	clog := trace.NewCommitLog()
	clog.Attach(store)

	// Durable programs run with a WAL attached; the sync mode is a pure
	// function of the seed so a reported seed reproduces its fsync timing.
	var (
		wlog   *wal.Log
		walDir string
	)
	if p.Durable {
		var err error
		walDir, err = os.MkdirTemp("", "sdl-explore-wal-")
		if err != nil {
			return 0, nil, fmt.Errorf("wal dir: %w", err)
		}
		defer os.RemoveAll(walDir)
		syncMode := wal.SyncMode(sched.Decide(seed, sched.PointWalSync, 0) % 2) // batch or interval
		wlog, err = wal.Open(walDir, wal.Options{Sync: syncMode})
		if err != nil {
			return 0, nil, fmt.Errorf("wal open: %w", err)
		}
		if _, err := wlog.Recover(store); err != nil {
			return 0, nil, fmt.Errorf("wal recover (empty): %w", err)
		}
		store.SetDurable(wlog)
	}

	engine := txn.New(store)
	rt := process.NewRuntime(engine, nil)

	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	runErr := func() error {
		prog, err := lang.Parse(p.Src)
		if err != nil {
			return err
		}
		compiled, err := lang.Compile(prog)
		if err != nil {
			return err
		}
		return compiled.Run(ctx, rt)
	}()
	cancel()
	rt.Shutdown()
	rt.Consensus().Close()

	var tr []sched.Decision
	if traced {
		tr = c.Trace()
	}
	if runErr != nil {
		if wlog != nil {
			wlog.Close()
		}
		return c.Decisions(), tr, fmt.Errorf("run: %w", runErr)
	}
	verr := verify(p, store, clog)
	if verr == nil && wlog != nil {
		verr = verifyDurable(seed, shards, wlog, walDir, clog)
	} else if wlog != nil {
		wlog.Close()
	}
	return c.Decisions(), tr, verr
}

// verifyDurable closes the log, simulates a crash by truncating the tail
// segment at a seed-derived byte offset (sched.PointWalCrash), and checks
// the durability contract on the damaged directory:
//
//   - every record ReadState returns must be byte-identical in effect to
//     the commit-log record holding the same version (the log never
//     invents or mangles history);
//   - the surviving versions are strictly increasing, and every version
//     missing below their maximum commuted out (enforced by ReplayFrom
//     replaying cleanly);
//   - recovering a fresh store from the damaged directory reproduces the
//     reference replay's multiset exactly.
func verifyDurable(seed uint64, shards int, wlog *wal.Log, dir string, clog *trace.CommitLog) error {
	if err := wlog.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	segs, err := wal.SegmentFiles(dir)
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("wal segments: %v (%d files)", err, len(segs))
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		return err
	}
	// Cut anywhere from "right after the header" to "no damage at all".
	span := info.Size() - wal.SegmentHeaderLen + 1
	cut := wal.SegmentHeaderLen + int64(sched.Decide(seed, sched.PointWalCrash, 0)%uint64(span))
	if err := os.Truncate(last, cut); err != nil {
		return fmt.Errorf("crash cut: %w", err)
	}

	st, err := wal.ReadState(dir)
	if err != nil {
		return fmt.Errorf("post-crash read: %w", err)
	}
	byVersion := map[uint64]dataspace.CommitRecord{}
	for _, rec := range clog.Commits() {
		byVersion[rec.Version] = rec
	}
	for _, rec := range st.Records {
		want, ok := byVersion[rec.Version]
		if !ok {
			return fmt.Errorf("durability: recovered version %d never committed", rec.Version)
		}
		if !sameEffects(rec, want) {
			return fmt.Errorf("durability: recovered version %d diverges from its commit record", rec.Version)
		}
	}
	model, err := refmodel.ReplayFrom(st.Base, st.CheckpointVersion, st.Records)
	if err != nil {
		return fmt.Errorf("durability: surviving log does not replay: %w", err)
	}

	s2 := dataspace.New(dataspace.WithShards(shards))
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("post-crash open: %w", err)
	}
	defer l2.Close()
	if _, err := l2.Recover(s2); err != nil {
		return fmt.Errorf("post-crash recover: %w", err)
	}
	if !refmodel.SameContent(model, s2) {
		return fmt.Errorf("durability: recovered store diverges from reference replay of the surviving log")
	}
	return nil
}

func sameEffects(a, b dataspace.CommitRecord) bool {
	if len(a.Inserted) != len(b.Inserted) || len(a.Deleted) != len(b.Deleted) {
		return false
	}
	for i := range a.Inserted {
		if a.Inserted[i].ID != b.Inserted[i].ID || !a.Inserted[i].Tuple.Equal(b.Inserted[i].Tuple) {
			return false
		}
	}
	for i := range a.Deleted {
		if a.Deleted[i].ID != b.Deleted[i].ID || !a.Deleted[i].Tuple.Equal(b.Deleted[i].Tuple) {
			return false
		}
	}
	return true
}

// verify runs the post-run checks described in the package comment.
func verify(p Program, store *dataspace.Store, clog *trace.CommitLog) error {
	recs := clog.Commits()
	model, err := refmodel.Replay(recs)
	if err != nil {
		return fmt.Errorf("serializability: %w", err)
	}
	if !refmodel.SameContent(model, store) {
		return fmt.Errorf("final state diverges from the serial replay of the commit log (store %d tuples, replay %d)",
			store.Len(), model.Len())
	}
	if p.MarkerLead != "" {
		for _, rec := range recs {
			n := 0
			for _, inst := range rec.Inserted {
				if isMarker(inst.Tuple, p.MarkerLead) {
					n++
				}
			}
			if n != 0 && n != p.MarkerCount {
				return fmt.Errorf("consensus fired partially: commit v%d inserts %d %q markers, want %d (all-or-nothing)",
					rec.Version, n, p.MarkerLead, p.MarkerCount)
			}
		}
	}
	if p.Check != nil {
		final := make([]tuple.Tuple, 0, store.Len())
		for _, inst := range store.All() {
			final = append(final, inst.Tuple)
		}
		if err := p.Check(final); err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
	}
	return nil
}

func isMarker(t tuple.Tuple, lead string) bool {
	if t.Arity() == 0 {
		return false
	}
	a, ok := t.Field(0).AsAtom()
	return ok && a == lead
}

// shrinkAttempts is how many runs vote on whether a budget still fails: the
// decision stream is deterministic, but the goroutine schedule consuming it
// is not, so which decisions land inside a budget varies a little from run
// to run.
const shrinkAttempts = 4

// Shrink minimizes a failing seed's active-decision budget: decisions
// beyond the budget return "no perturbation", so the smallest failing
// budget is the minimal perturbation prefix that still triggers the
// failure. Binary search over the budget, shrinkAttempts votes per probe: a
// budget counts as failing only when every vote fails, so the reported
// (seed, limit) pair replays reliably instead of sitting on the boundary
// where the failing decision is only sometimes inside the budget. A failure
// too racy for that — some vote passes even unshrunk — shrinks to the
// smallest budget at which any vote fails. The shrunk failure carries the
// failing prefix's decision trace.
func Shrink(p Program, f Failure, opts Options) Failure {
	opts = opts.withDefaults()
	every := true
	// fails reports the outcome the votes settle on: under every, the first
	// passing vote settles a pass; otherwise the first failing vote settles
	// a failure.
	fails := func(limit int64) (dec int64, tr []sched.Decision, err error) {
		for a := 0; a < shrinkAttempts; a++ {
			dec, tr, err = runOnce(p, f.Seed, limit, true, opts)
			if (err == nil) == every {
				break
			}
		}
		return dec, tr, err
	}

	// The failure was observed with an unlimited budget; bound the search
	// by the decisions that run drew. hi is always a budget seen failing.
	lo, hi := int64(0), f.Decisions
	dec, tr, err := fails(hi)
	if err == nil {
		every = false
		if dec, tr, err = fails(hi); err == nil {
			// The failure did not reproduce even unshrunk; report it as-is.
			return f
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if d, t, e := fails(mid); e != nil {
			hi, dec, tr, err = mid, d, t, e
		} else {
			lo = mid + 1
		}
	}
	f.MinLimit = hi
	f.Err = err
	// Decision counts vary slightly run to run (retries draw extra);
	// keep the largest observed so MinLimit <= Decisions always holds.
	if dec > f.Decisions {
		f.Decisions = dec
	}
	f.Trace = tr
	return f
}
