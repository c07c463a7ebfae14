// Command benchgate is the CI performance-regression gate. It compares a
// freshly measured BENCH_<rev>.json (written by sdlbench -json, in the
// github-action-benchmark data.js shape) against a committed baseline run
// and exits nonzero when any gated metric regressed by more than the
// threshold — by default 30% on the E1/E12/E13/E14/E15/E16/E17 series, wide enough to
// ride out shared-runner noise while still catching a 2x cliff.
//
// Metric direction is taken from each bench entry's unit (kops/s up is
// good, ms and locks/op down is good), so the gate handles throughput and
// latency series alike. Metrics present in only one of the two files are
// reported but never fail the gate (sweep shapes may evolve).
//
// Usage:
//
//	benchgate -new BENCH_ci.json [-threshold 0.30] [-experiments E1,E12,E13] baseline.json...
//
// Multiple baseline candidates may be given (e.g. a BENCH_*.json glob); the
// most recent run among them — excluding the -new file itself — is the
// baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/sdl-lang/sdl/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		newPath   = fs.String("new", "", "freshly measured BENCH_<rev>.json (required)")
		threshold = fs.Float64("threshold", 0.30, "maximum tolerated fractional regression")
		expList   = fs.String("experiments", "E1,E12,E13,E14,E15,E16,E17", "comma-separated gated experiment ids")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *newPath == "" {
		return fmt.Errorf("-new is required")
	}
	gated := map[string]bool{}
	for _, id := range strings.Split(*expList, ",") {
		gated[strings.ToUpper(strings.TrimSpace(id))] = true
	}

	fresh, err := readRun(*newPath)
	if err != nil {
		return fmt.Errorf("new run: %w", err)
	}
	base, basePath, err := pickBaseline(fs.Args(), *newPath)
	if err != nil {
		return err
	}
	fmt.Printf("benchgate: %s (rev %s) vs baseline %s (rev %s)\n",
		*newPath, fresh.Commit.ID, basePath, base.Commit.ID)

	baseline := make(map[string]bench.BenchEntry, len(base.Benches))
	for _, b := range base.Benches {
		baseline[b.Name] = b
	}
	var failures []string
	compared := 0
	for _, b := range fresh.Benches {
		id, _, _ := strings.Cut(b.Name, " ")
		if !gated[strings.ToUpper(id)] {
			continue
		}
		old, ok := baseline[b.Name]
		if !ok {
			fmt.Printf("  new metric (not gated): %s = %.3g %s\n", b.Name, b.Value, b.Unit)
			continue
		}
		compared++
		reg := regression(old.Value, b.Value, bench.BiggerIsBetter(b.Unit))
		if reg > *threshold {
			failures = append(failures, fmt.Sprintf(
				"%s: %.3g -> %.3g %s (%.0f%% regression, threshold %.0f%%)",
				b.Name, old.Value, b.Value, b.Unit, reg*100, *threshold*100))
		}
	}
	if compared == 0 {
		return fmt.Errorf("no gated metrics in common between %s and %s", *newPath, basePath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: REGRESSION "+f)
		}
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%", len(failures), *threshold*100)
	}
	fmt.Printf("benchgate: OK — %d gated metrics within %.0f%%\n", compared, *threshold*100)
	return nil
}

// regression returns the fractional worsening from old to new given the
// metric's improvement direction; improvements and zero baselines yield 0.
func regression(old, new float64, biggerIsBetter bool) float64 {
	if old == 0 {
		return 0
	}
	if biggerIsBetter {
		return (old - new) / old
	}
	return (new - old) / old
}

// readRun loads the latest run from one trajectory file.
func readRun(path string) (bench.BenchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return bench.BenchRun{}, err
	}
	defer f.Close()
	run, err := bench.ReadTrajectory(f)
	if err != nil {
		return bench.BenchRun{}, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}

// pickBaseline selects the most recent run among the candidate paths,
// skipping the new file itself and unreadable candidates.
func pickBaseline(candidates []string, newPath string) (bench.BenchRun, string, error) {
	newAbs, _ := filepath.Abs(newPath)
	var (
		best     bench.BenchRun
		bestPath string
	)
	for _, path := range candidates {
		abs, _ := filepath.Abs(path)
		if abs == newAbs {
			continue
		}
		run, err := readRun(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: skipping baseline candidate %s: %v\n", path, err)
			continue
		}
		if bestPath == "" || run.Date > best.Date {
			best, bestPath = run, path
		}
	}
	if bestPath == "" {
		return bench.BenchRun{}, "", fmt.Errorf("no usable baseline among %v", candidates)
	}
	return best, bestPath, nil
}
