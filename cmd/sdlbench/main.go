// Command sdlbench runs the paper-reproduction experiments (E1–E17 but the
// retired E9 and E15, see DESIGN.md §4) as full parameter sweeps and
// prints one table per experiment. EXPERIMENTS.md records a reference run; `make sweep`
// regenerates bench_sweep.txt. The tables are not a regression gate — the
// end-to-end benchmark is perf/ (BENCHMARK.json).
//
// Usage:
//
//	sdlbench [-run E1,E4] [-quick] [-timeout 10m]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sdl-lang/sdl/internal/bench"
)

type experiment struct {
	id    string
	quick func(ctx context.Context) (*bench.Table, error)
	full  func(ctx context.Context) (*bench.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"E1",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E1ArraySum(ctx, []int{16, 64, 256})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E1ArraySum(ctx, []int{16, 64, 256, 1024, 4096})
			}},
		{"E2",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E2PropertyList(ctx, []int{16, 128})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E2PropertyList(ctx, []int{16, 64, 256, 1024, 4096})
			}},
		{"E3",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E3SortConsensus(ctx, []int{8, 16})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E3SortConsensus(ctx, []int{8, 16, 32, 64, 128})
			}},
		{"E4",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E4RegionLabel(ctx, []int{8})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E4RegionLabel(ctx, []int{8, 12, 16, 24, 32})
			}},
		{"E5",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E5ViewScoping(ctx, []int{1000, 10000})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E5ViewScoping(ctx, []int{100, 1000, 10000, 100000})
			}},
		{"E6",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E6ConsensusScale(ctx, []int{8, 64})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E6ConsensusScale(ctx, []int{2, 8, 32, 128, 512, 2048})
			}},
		{"E7",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E7LindaVsSDL(ctx, []int{2, 8})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E7LindaVsSDL(ctx, []int{1, 2, 4, 8, 16})
			}},
		{"E8",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E8SocietyScale(ctx, []int{500})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E8SocietyScale(ctx, []int{100, 1000, 5000, 10000, 100000})
			}},
		{"E10",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E10WakeupIndex(ctx, []int{100})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E10WakeupIndex(ctx, []int{50, 200, 800})
			}},
		{"E11",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E11JoinPlanner(ctx, []int{100, 1000})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E11JoinPlanner(ctx, []int{100, 1000, 10000, 50000})
			}},
		{"E12",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E12ShardScaling(ctx, []int{256})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E12ShardScaling(ctx, []int{1024, 4096})
			}},
		{"E13",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E13CommutingUpserts(ctx, []int{8})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E13CommutingUpserts(ctx, []int{2, 8, 64})
			}},
		{"E14",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E14DurableUpserts(ctx, []int{250})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E14DurableUpserts(ctx, []int{250, 1000})
			}},
		{"E16",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E16ReactiveWakeups(ctx, []int{100})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E16ReactiveWakeups(ctx, []int{50, 200, 800})
			}},
		{"E17",
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E17SecondaryIndex(ctx, []int{20000})
			},
			func(ctx context.Context) (*bench.Table, error) {
				return bench.E17SecondaryIndex(ctx, []int{10000, 100000, 400000})
			}},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdlbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdlbench", flag.ContinueOnError)
	var (
		only    = fs.String("run", "", "comma-separated experiment ids (default: all)")
		quick   = fs.Bool("quick", false, "small parameter sweeps")
		timeout = fs.Duration("timeout", 15*time.Minute, "total time budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	for _, ex := range experiments() {
		if len(selected) > 0 && !selected[ex.id] {
			continue
		}
		runFn := ex.full
		if *quick {
			runFn = ex.quick
		}
		start := time.Now()
		tbl, err := runFn(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.id, err)
		}
		if err := tbl.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("   (%s took %v)\n\n", ex.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
