// Command sdlperf is the end-to-end benchmark of the SDL runtime: four
// workloads, fixed-work windows, a traced mode for per-layer metrics and an
// A/A calibration mode. See perf/README.md.
//
//	sdlperf [-workload W] [-seed S] [-seconds N] [-trace 0|1] [-out DIR]
//	sdlperf -calibrate N [-workload W] [-seconds N]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// workload's invariants do not hold or an operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/sdl-lang/sdl/perf/harness"
	"github.com/sdl-lang/sdl/perf/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "time box for the fixed-work windows")
		trace     = flag.Int("trace", 0, "1 records spans, runs the layer probes and prints the per-layer metrics")
		out       = flag.String("out", "out", "directory for reports, traces and the scratch WAL")
		calibrate = flag.Int("calibrate", 0, "run N full runs of each workload and print the A/A statistics")
	)
	flag.Parse()
	// The benchmark's host shape: two cores, whatever the machine has.
	runtime.GOMAXPROCS(2)

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads.All {
			names = append(names, w.Name)
		}
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fatal(err)
	}
	if *calibrate > 0 {
		if err := calibrateRuns(names, *calibrate, *seed, *seconds, *out); err != nil {
			fatal(err)
		}
		return
	}

	ok := true
	for _, name := range names {
		w, err := workloads.New(name, *seed, workloads.Full, *out)
		if err != nil {
			fatal(err)
		}
		cfg := harness.Config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0}
		if cfg.Trace {
			cfg.TraceOut = filepath.Join(*out, "trace-"+name+".json")
		}
		rep, err := harness.Run(w, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep.Print(os.Stdout)
		full, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*out, "report-"+name+".json"), full, 0o644); err != nil {
			fatal(err)
		}
		if !rep.Correct {
			fmt.Printf("CHECK FAILED %s: %s\n", name, rep.CheckError)
		}
		if !rep.Correct || rep.Failed > 0 {
			ok = false
		}
		line, err := json.Marshal(rep.Contract())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdlperf:", err)
	os.Exit(2)
}

// calibrateRuns is the A/A mode: n untraced runs of every workload, each a
// fresh process with its own seed (seed, seed+1, ...) exactly as the driver
// runs them. It prints per workload and end-to-end metric the median, the
// quartiles, their spread as a share of the median (the driver's acceptance
// measure) and the gap between the medians of the odd and the even runs:
// first the gated metrics, then the as-clocked ones, so that each
// normalized metric can be held against its as-clocked twin. The last
// table is the evidence for the host-speed model per workload: the slope
// and correlation of log time against log host factor, over every kept
// window of every run and over the runs' medians.
func calibrateRuns(names []string, n int, seed uint64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var metrics []string
	for _, d := range harness.EndToEnd {
		metrics = append(metrics, d.Name)
	}
	clocked := []string{"throughput_ops_s", "latency_p50_us", "latency_p90_us", "latency_p99_us", "setup_clocked_s"}
	metrics = append(metrics, clocked...)
	values := map[string]map[string][]float64{}                          // workload -> metric -> per run
	logFactor, logWall := map[string][]float64{}, map[string][]float64{} // per kept window
	runFactor, runTime := map[string][]float64{}, map[string][]float64{} // per run
	states := map[string]int{}
	fmt.Printf("calibration: %d runs x %d workloads, seeds %d..%d, %.0f s each, started %s\n\n",
		n, len(names), seed, seed+uint64(n)-1, seconds, time.Now().UTC().Format(time.RFC3339))
	for run := 1; run <= n; run++ {
		for _, name := range names {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed+uint64(run)-1, 10), "-seconds", fmt.Sprint(seconds), "-out", out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of %s: %w", run, name, err)
			}
			raw, err := os.ReadFile(filepath.Join(out, "report-"+name+".json"))
			if err != nil {
				return err
			}
			var rep harness.Report
			if err := json.Unmarshal(raw, &rep); err != nil {
				return fmt.Errorf("run %d of %s: report: %w", run, name, err)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			states[rep.Stability()]++
			for _, w := range rep.Windows {
				if w.Kept {
					logFactor[name] = append(logFactor[name], math.Log(w.Factor))
					logWall[name] = append(logWall[name], math.Log(w.WallS))
				}
			}
			runFactor[name] = append(runFactor[name], math.Log(rep.HostFactor))
			runTime[name] = append(runTime[name], -math.Log(rep.Clocked["throughput_ops_s"]))
			fmt.Printf("run %2d %-15s host_factor=%.3f drift=%.3f %s", run, name, rep.HostFactor, rep.Drift, rep.Stability())
			for _, m := range metrics {
				v, ok := rep.EndToEnd[m]
				if !ok {
					v = rep.Clocked[m]
				}
				values[name][m] = append(values[name][m], v)
				fmt.Printf(" %s=%.6g", m, v)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\nruns stable=%d unstable=%d unassessed=%d\n\n", states["stable"], states["unstable"], states["unassessed"])
	fmt.Printf("%-15s %-22s %14s %14s %14s %9s %9s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "odd/even")
	for _, name := range names {
		for _, m := range metrics {
			xs := values[name][m]
			var odd, even []float64
			for i, x := range xs {
				if i%2 == 0 {
					odd = append(odd, x)
				} else {
					even = append(even, x)
				}
			}
			med := harness.Median(xs)
			q1, q3 := harness.Quartiles(xs)
			gap := 0.0
			if len(even) > 0 {
				gap = math.Abs(harness.Median(odd)-harness.Median(even)) / med
			}
			fmt.Printf("%-15s %-22s %14.6g %14.6g %14.6g %9.4f %9.4f\n", name, m, med, q1, q3, (q3-q1)/med, gap)
		}
	}
	// Window level the factor's own noise pulls the slope towards 0; run
	// level (medians over some 25 windows) it does not, but the points are
	// few.
	fmt.Printf("\nlog time against log host factor (the model assumes slope 1)\n%-15s %8s %8s %8s %8s %8s %8s\n",
		"workload", "windows", "slope", "r", "runs", "slope", "r")
	for _, name := range names {
		slope, r := harness.Fit(logFactor[name], logWall[name])
		runSlope, runR := harness.Fit(runFactor[name], runTime[name])
		fmt.Printf("%-15s %8d %8.3f %8.3f %8d %8.3f %8.3f\n", name, len(logFactor[name]), slope, r, len(runFactor[name]), runSlope, runR)
	}
	return nil
}
