// Command sdlexplore drives the schedule-exploration harness: it runs the
// SDL example corpus (plus targeted micro-programs) across many seeds
// under a deterministic fault-injecting scheduler, replays every commit
// log through the reference model for serializability, and shrinks any
// failing seed to a minimal replayable decision budget.
//
// Usage:
//
//	sdlexplore [flags]
//
// Flags:
//
//	-seeds n        seeds to explore per program (default 100)
//	-start-seed n   first seed (default 0)
//	-seed n         replay exactly one seed (implies -seeds 1 -start-seed n)
//	-limit n        bound the active decisions when replaying (-1 = all);
//	                use the budget printed by a shrunk failure
//	-program name   restrict to one corpus program (see -list)
//	-faults p       fault profile: off, light (default), or heavy
//	-bug            enable the test-only racy-version ordering bug (proves
//	                the harness catches and shrinks real violations)
//	-shards n       fix the shard count (0 = derive from each seed)
//	-timeout d      per-run timeout (default 30s)
//	-trace          print the decision trace of failing runs
//	-list           list the corpus programs and exit
//
// Any failure prints a replay command with its seed and shrunk decision
// budget; the same seed always re-derives the same decision stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/sched/explore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdlexplore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdlexplore", flag.ContinueOnError)
	var (
		seeds     = fs.Int("seeds", 100, "seeds to explore per program")
		startSeed = fs.Uint64("start-seed", 0, "first seed")
		oneSeed   = fs.Int64("seed", -1, "replay exactly this seed (overrides -seeds/-start-seed)")
		limit     = fs.Int64("limit", -1, "active-decision budget for replay (-1 = unlimited)")
		program   = fs.String("program", "", "restrict to one corpus program")
		faults    = fs.String("faults", "light", "fault profile: off, light, or heavy")
		bug       = fs.Bool("bug", false, "enable the test-only racy-version ordering bug")
		shards    = fs.Int("shards", 0, "fix the shard count (0 = derive from each seed)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-run timeout")
		showTrace = fs.Bool("trace", false, "print the decision trace of failing runs")
		list      = fs.Bool("list", false, "list the corpus programs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, p := range explore.Corpus() {
			fmt.Println(p.Name)
		}
		return nil
	}

	var f sched.Faults
	switch *faults {
	case "off", "none":
		f = sched.NoFaults()
	case "light":
		f = sched.Light()
	case "heavy":
		f = sched.Heavy()
	default:
		return fmt.Errorf("unknown fault profile %q (off, light, heavy)", *faults)
	}
	if *bug {
		f.RacyVersionBug = 255
		if *shards == 0 {
			// The bug needs concurrent disjoint-footprint commits.
			*shards = 8
		}
	}

	opts := explore.Options{
		Seeds:     *seeds,
		StartSeed: *startSeed,
		Faults:    f,
		Shards:    *shards,
		Timeout:   *timeout,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if *program != "" {
		p, ok := explore.Find(*program)
		if !ok {
			return fmt.Errorf("unknown program %q (try -list)", *program)
		}
		opts.Programs = []explore.Program{p}
	}
	if *oneSeed >= 0 {
		opts.Seeds = 1
		opts.StartSeed = uint64(*oneSeed)
	}

	// Single-seed replay with an explicit budget goes through RunSeed so
	// the limit applies.
	if *oneSeed >= 0 && *limit >= 0 {
		if len(opts.Programs) != 1 {
			return fmt.Errorf("-limit replay needs -program")
		}
		p := opts.Programs[0]
		decisions, err := explore.RunSeed(p, opts.StartSeed, *limit, opts)
		if err != nil {
			fmt.Printf("FAIL %s seed=%d limit=%d (%d decisions): %v\n", p.Name, opts.StartSeed, *limit, decisions, err)
			return fmt.Errorf("replay failed (as expected for a reported seed)")
		}
		fmt.Printf("ok   %s seed=%d limit=%d (%d decisions)\n", p.Name, opts.StartSeed, *limit, decisions)
		return nil
	}

	start := time.Now()
	rep := explore.Run(opts)
	fmt.Printf("explored %d runs over %d program(s) in %v: %d failure(s)\n",
		rep.Runs, rep.Programs, time.Since(start).Round(time.Millisecond), len(rep.Failures))
	if len(rep.Failures) == 0 {
		return nil
	}
	for _, fl := range rep.Failures {
		fmt.Println(fl)
		if *showTrace && len(fl.Trace) > 0 {
			fmt.Print(sched.FormatTrace(fl.Trace))
		}
	}
	return fmt.Errorf("%d failing seed(s)", len(rep.Failures))
}
