// Command sdli runs SDL source programs: it parses one or more .sdl files
// (library files of process definitions plus one driver with the main
// block), compiles them onto the runtime, executes main, and waits for
// the process society to terminate.
//
// Usage:
//
//	sdli [flags] program.sdl [more.sdl ...]
//
// Flags:
//
//	-shards n                 dataspace shard count (0 = GOMAXPROCS default)
//	-timeout duration         abort the run after this long (default 1m);
//	                          on timeout, prints each live process's state
//	-dump                     print the final dataspace contents
//	-trace                    print the dataspace event log after the run
//	-stats                    print engine/runtime statistics and metrics
//	-metrics-addr host:port   serve the metrics snapshot over HTTP while
//	                          running (expvar, /debug/vars)
//	-sched-seed n             install the deterministic schedule controller
//	                          with this seed (-1 = off); replays the exact
//	                          decision stream a failing exploration reported
//	-sched-faults p           fault profile under -sched-seed: off, light
//	                          (default), or heavy
//	-watch duration           live snapshot sampling while running
//	-svg file                 write a tuple-lifetime timeline SVG
//	-checkpoint file          write the final dataspace to a checkpoint
//	-restore file             load a dataspace checkpoint before running
//	-wal-dir dir              durable mode: recover the dataspace from this
//	                          write-ahead-log directory, then log every
//	                          commit durably before it becomes visible; the
//	                          final state is checkpointed on exit
//	-wal-sync batch|interval
//	                          WAL fsync policy (default batch): durable
//	                          before visible, one fsync per group of
//	                          concurrent commits; or timer-driven
//	-fmt                      format the program to stdout instead
//	-vet                      run the static analyzer first and refuse to
//	                          run if it reports errors; -vet=warn reports
//	                          but runs anyway
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sdl-lang/sdl/internal/analysis"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/metrics"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/trace"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/vis"
	"github.com/sdl-lang/sdl/internal/wal"
)

// currentMetrics is the registry of the store the running program uses.
// expvar variables are process-global and can be published only once, so
// the published Func indirects through this pointer (tests call run
// repeatedly in one process).
var (
	currentMetrics atomic.Pointer[metrics.Registry]
	publishOnce    sync.Once
)

// serveMetrics publishes the registry under the expvar name "sdl" and
// serves the standard /debug/vars endpoint on addr. It returns the bound
// address (addr may use port 0) and a shutdown function.
func serveMetrics(addr string, reg *metrics.Registry) (string, func(), error) {
	currentMetrics.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("sdl", expvar.Func(func() any {
			if r := currentMetrics.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdli:", err)
		os.Exit(1)
	}
}

// vetFlag is the tri-state -vet flag: "off" (default), "on" (bare -vet:
// analyzer errors refuse the run), or "warn" (-vet=warn: report and run
// anyway).
type vetFlag struct{ mode string }

func (v *vetFlag) String() string { return v.mode }

func (v *vetFlag) Set(s string) error {
	switch s {
	case "true", "on":
		v.mode = "on"
	case "false", "off":
		v.mode = "off"
	case "warn":
		v.mode = "warn"
	default:
		return fmt.Errorf(`-vet accepts "on", "off", or "warn"`)
	}
	return nil
}

// IsBoolFlag lets bare -vet (no value) mean -vet=on.
func (v *vetFlag) IsBoolFlag() bool { return true }

// vetProgram runs the static analyzer over the merged program and prints
// warnings and errors to stderr. In "on" mode any error-severity finding
// (view soundness) refuses the run; "warn" mode reports and continues.
func vetProgram(prog *lang.Program, mode string) error {
	diags, err := analysis.Analyze(prog, analysis.Options{})
	if err != nil {
		return err
	}
	nerrs := 0
	for _, d := range diags {
		if d.Severity < analysis.Warn {
			continue
		}
		if d.Severity >= analysis.Error {
			nerrs++
		}
		fmt.Fprintf(os.Stderr, "sdli: vet: %s: %s\n", d.Severity, d)
	}
	if nerrs > 0 && mode != "warn" {
		return fmt.Errorf("vet reported %d error(s); fix them or run with -vet=warn", nerrs)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdli", flag.ContinueOnError)
	var (
		shards      = fs.Int("shards", 0, "dataspace shard count, rounded up to a power of two (0 = GOMAXPROCS default)")
		timeout     = fs.Duration("timeout", time.Minute, "abort the run after this long")
		dump        = fs.Bool("dump", false, "print the final dataspace contents")
		showTrace   = fs.Bool("trace", false, "print the dataspace event log")
		showStats   = fs.Bool("stats", false, "print engine/runtime statistics and metrics")
		metricsAddr = fs.String("metrics-addr", "", "serve the metrics snapshot over HTTP on this address (expvar, /debug/vars)")
		format      = fs.Bool("fmt", false, "format the program to stdout instead of running it")
		watch       = fs.Duration("watch", 0, "print dataspace size/version on this cadence while running")
		svgPath     = fs.String("svg", "", "write a tuple-lifetime timeline SVG to this file after the run")
		restore     = fs.String("restore", "", "load a dataspace checkpoint before running")
		ckptPath    = fs.String("checkpoint", "", "write the final dataspace to this checkpoint file")
		walDir      = fs.String("wal-dir", "", "recover from and durably log commits to this write-ahead-log directory")
		walSync     = fs.String("wal-sync", "batch", "WAL fsync policy: batch or interval")

		schedSeed   = fs.Int64("sched-seed", -1, "deterministic schedule-controller seed (-1 = off)")
		schedFaults = fs.String("sched-faults", "light", "fault profile under -sched-seed: off, light, or heavy")
	)
	vet := &vetFlag{mode: "off"}
	fs.Var(vet, "vet", `run the static analyzer first: "on" refuses to run on errors, "warn" reports and runs anyway`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: sdli [flags] program.sdl [more.sdl ...]")
	}
	progs := make([]*lang.Program, 0, fs.NArg())
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		progs = append(progs, prog)
	}
	prog, err := lang.Merge(progs...)
	if err != nil {
		return err
	}
	if *format {
		fmt.Print(lang.Format(prog))
		return nil
	}
	if vet.mode != "off" {
		if err := vetProgram(prog, vet.mode); err != nil {
			return err
		}
	}

	var sc *sched.Controller
	if *schedSeed >= 0 {
		var f sched.Faults
		switch *schedFaults {
		case "off", "none":
			f = sched.NoFaults()
		case "light":
			f = sched.Light()
		case "heavy":
			f = sched.Heavy()
		default:
			return fmt.Errorf("unknown -sched-faults profile %q (off, light, heavy)", *schedFaults)
		}
		sc = sched.New(uint64(*schedSeed), f)
	}

	store := dataspace.New(dataspace.WithShards(*shards), dataspace.WithScheduler(sc))
	var (
		wlog     *wal.Log
		recovery *wal.RecoveryStats
	)
	if *walDir != "" {
		if *restore != "" {
			return fmt.Errorf("-wal-dir and -restore are mutually exclusive: the WAL directory carries its own checkpoints")
		}
		syncMode, err := wal.ParseSyncMode(*walSync)
		if err != nil {
			return err
		}
		wlog, err = wal.Open(*walDir, wal.Options{Sync: syncMode, Metrics: store.Metrics()})
		if err != nil {
			return err
		}
		recovery, err = wlog.Recover(store)
		if err != nil {
			wlog.Close()
			return fmt.Errorf("wal recovery: %w", err)
		}
		if recovery.Replayed > 0 || recovery.CheckpointVersion > 0 {
			fmt.Printf("wal: recovered to version %d (checkpoint v%d + %d replayed records", recovery.Version, recovery.CheckpointVersion, recovery.Replayed)
			if recovery.TornSegments > 0 {
				fmt.Printf(", %d torn bytes discarded", recovery.TornBytes)
			}
			fmt.Printf(") in %v\n", recovery.Elapsed.Round(time.Microsecond))
		}
		store.SetDurable(wlog)
		defer func() {
			if err := wlog.Checkpoint(store); err != nil {
				fmt.Fprintln(os.Stderr, "sdli: wal checkpoint:", err)
			}
			if err := wlog.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sdli: wal close:", err)
			}
		}()
	}
	var rec *trace.Recorder
	if *showTrace || *svgPath != "" {
		rec = trace.NewRecorder(0)
		rec.Attach(store)
	}
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			return err
		}
		err = store.ReadCheckpoint(f)
		_ = f.Close()
		if err != nil {
			return err
		}
	}
	engine := txn.New(store)
	rt := process.NewRuntime(engine, nil)
	defer func() {
		rt.Shutdown()
		rt.Consensus().Close()
	}()

	if *metricsAddr != "" || *showStats {
		// An observer is attached: enable the gated instruments (latency,
		// footprint, fan-out histograms).
		store.Metrics().SetObserved(true)
	}
	if *metricsAddr != "" {
		bound, stopMetrics, err := serveMetrics(*metricsAddr, store.Metrics())
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Printf("metrics: http://%s/debug/vars\n", bound)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	if *watch > 0 {
		// A decoupled visualization process: it observes consistent
		// snapshots while the society runs.
		watcher := vis.NewWatcher(store, *watch, func(r dataspace.Reader) {
			fmt.Printf("watch: v%-6d %6d tuples  %4d processes\n",
				r.Version(), r.Len(), rt.Running())
		})
		defer watcher.Stop()
	}
	compiled, err := lang.Compile(prog)
	if err != nil {
		return err
	}
	if err := compiled.Run(ctx, rt); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Stall diagnosis: show what every live process was doing.
			fmt.Fprintln(os.Stderr, "sdli: timed out; society at timeout:")
			for _, p := range rt.Society() {
				fmt.Fprintf(os.Stderr, "  P%-4d %-20s %s\n", p.PID, p.Type, p.State)
			}
		}
		return err
	}
	elapsed := time.Since(start)

	if *dump {
		fmt.Println("-- dataspace --")
		all := store.All()
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		for _, inst := range all {
			fmt.Printf("  #%-6d P%-4d %s\n", inst.ID, inst.Owner, inst.Tuple)
		}
	}
	if *showTrace {
		fmt.Println("-- trace --")
		if err := rec.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if *svgPath != "" {
		svg := vis.RenderSVGTimeline(rec.Events(), 512)
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("timeline written to %s\n", *svgPath)
	}
	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			return err
		}
		werr := store.WriteCheckpoint(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("checkpoint written to %s (%d tuples)\n", *ckptPath, store.Len())
	}
	if *showStats {
		es := engine.Stats()
		ss := store.Stats()
		fmt.Println("-- stats --")
		fmt.Printf("  elapsed       %v\n", elapsed)
		fmt.Printf("  processes     %d spawned\n", rt.SpawnCount())
		fmt.Printf("  transactions  %d commits, %d failures, %d attempts, %d wakeups\n",
			es.Commits, es.Failures, es.Attempts, es.Wakeups)
		fmt.Printf("  dataspace     %d asserts, %d retracts, %d left, version %d\n",
			ss.Asserts, ss.Retracts, store.Len(), store.Version())
		fmt.Printf("  consensus     %d fires\n", rt.Consensus().Fires())
		snap := store.Metrics().Snapshot()
		printMetrics(snap)
		if recovery != nil {
			printRecovery(recovery)
		}
		printExplain(snap.Explain)
	}
	return nil
}

// printRecovery renders where the WAL open's recovery time went, phase by
// phase (wal.RecoveryStats).
func printRecovery(st *wal.RecoveryStats) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	fmt.Printf("  wal phases    decode %.1fms, restore %.1fms, replay %.1fms, verify %.1fms, re-anchor %.1fms of %.1fms\n",
		ms(st.Decode), ms(st.Restore), ms(st.Replay), ms(st.Verify), ms(st.Reanchor), ms(st.Elapsed))
}

// printExplain renders the explain records under the -stats dump: per
// transaction site (line:col), whether its executions planned — and, if
// not, the lead that blocked them — the rungs they committed or read on,
// and each matcher step in join order with its lead source, the access
// paths its scans took and the candidates they visited.
func printExplain(sites []metrics.ExplainSite) {
	if len(sites) == 0 {
		return
	}
	fmt.Println("-- explain --")
	for _, s := range sites {
		fmt.Printf("  %-8s %d execs: %d planned", s.Site, s.Planned+s.Unplanned, s.Planned)
		if s.Unplanned > 0 {
			fmt.Printf(", %d unplanned (%s)", s.Unplanned, s.Block)
		}
		fmt.Printf("; %s\n", nonzero[metrics.Rung](s.Rungs[:]))
		for _, st := range s.Steps {
			not := ""
			if st.Negated {
				not = "not "
			}
			fmt.Printf("    step %d: %spattern %d, lead %s; %s; %d visited, %d matched\n",
				st.Order+1, not, st.Pattern+1, st.Lead, nonzero[metrics.Path](st.Scans[:]), st.Visited, st.Matched)
		}
	}
}

// nonzero renders the nonzero counts, indexed by K, as "n name, …".
func nonzero[K interface {
	~uint8
	fmt.Stringer
}](counts []uint64) string {
	var parts []string
	for k, n := range counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, K(k)))
		}
	}
	return strings.Join(parts, ", ")
}

// printMetrics renders the metrics snapshot under the -stats dump.
func printMetrics(snap metrics.Snapshot) {
	fmt.Println("-- metrics --")
	reads, writes := snap.ShardLockTotals()
	fmt.Printf("  shards        %d shards, %d read locks, %d write locks, %d key latches, %d store commits\n",
		len(snap.Shards), reads, writes, snap.KeyLockTotal(), snap.StoreCommits)
	for _, kind := range []string{"immediate", "delayed", "consensus"} {
		c := snap.Txn[kind]
		if c.Attempts == 0 && c.Blocks == 0 {
			continue
		}
		lat := snap.TxnLatency[kind]
		fmt.Printf("  txn %-9s %d attempts, %d commits, %d retries, %d blocks, mean %.1fµs\n",
			kind, c.Attempts, c.Commits, c.Retries, c.Blocks, lat.Mean()/1e3)
	}
	fmt.Printf("  footprint     mean %.2f shards/update\n", snap.Footprint.Mean())
	fmt.Printf("  commit paths  %d key-latched, %d shard fallbacks, %d coarse\n",
		snap.KeyCommits, snap.ShardFallbacks, snap.CoarseCommits)
	fmt.Printf("  planner       %d planned, %d unplanned executions\n",
		snap.FootprintPlanned, snap.FootprintUnplanned)
	fmt.Printf("  shared reads  %d executions without an exclusive lock (%d epoch reads, %d torn)\n",
		snap.SharedReads, snap.EpochReads, snap.EpochFallbacks)
	fmt.Printf("  wakeups       mean fan-out %.2f, %d live subscriptions\n",
		snap.WakeupFanout.Mean(), snap.ReactiveSubscriptions)
	if snap.ReactiveSignals > 0 || snap.ReactiveEvals > 0 {
		fmt.Printf("  reactive      %d signals (%d suppressed), %d evals (%d delta hits, %d full re-queries, %d wasted), %d consensus kicks suppressed\n",
			snap.ReactiveSignals, snap.ReactiveSuppressed, snap.ReactiveEvals,
			snap.ReactiveHits, snap.ReactiveFallbacks, snap.ReactiveWasted, snap.ConsensusKicksSuppressed)
	}
	fmt.Printf("  society       %d processes spawned, %d live\n", snap.ProcessesSpawned, snap.ProcessesLive)
	if snap.SecondaryFieldScans > 0 {
		fmt.Printf("  sec index     %d field scans (%d indexed, %d arity walks), %d tuples visited, %d promotions, %d demotions\n",
			snap.SecondaryFieldScans, snap.SecondaryIndexedScans, snap.SecondaryArityScans,
			snap.SecondaryTuplesVisited, snap.SecondaryPromotions, snap.SecondaryDemotions)
	}
	fmt.Printf("  consensus     %d detection rounds, mean community %.1f\n",
		snap.ConsensusRounds, snap.ConsensusCommunity.Mean())
	if snap.CheckpointWrite.Count > 0 || snap.CheckpointRead.Count > 0 {
		fmt.Printf("  checkpoints   %d writes (mean %.1fms), %d reads (mean %.1fms)\n",
			snap.CheckpointWrite.Count, snap.CheckpointWrite.Mean()/1e6,
			snap.CheckpointRead.Count, snap.CheckpointRead.Mean()/1e6)
	}
	if snap.WalAppends > 0 || snap.WalRecoveries > 0 {
		fmt.Printf("  wal           %d appends (%d bytes), %d fsyncs (mean cover %.1f records), %d segments\n",
			snap.WalAppends, snap.WalAppendBytes, snap.WalSyncs, snap.WalSyncCover.Mean(), snap.WalSegments)
		fmt.Printf("  wal recovery  %d recoveries, %d records replayed, %d version gaps, mean %.1fms\n",
			snap.WalRecoveries, snap.WalRecovered, snap.WalDiscarded, snap.WalRecoveryTime.Mean()/1e6)
	}
}
