package sdl

// One testing.B benchmark per experiment (E1–E12). The paper reports no
// measured tables, so these regenerate its worked examples and performance
// claims; the full parameter sweeps live in cmd/sdlbench. Each benchmark
// iteration runs one complete experiment configuration, so ns/op is the
// end-to-end time of that configuration.

import (
	"context"
	"fmt"
	"testing"

	"github.com/sdl-lang/sdl/internal/bench"
)

func benchExperiment(b *testing.B, run func(ctx context.Context) error) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1ArraySumSum1(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E1ArraySum(ctx, []int{64})
		return err
	})
}

func BenchmarkE1ArraySumAllVariants(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E1ArraySum(ctx, []int{16, 64})
		return err
	})
}

func BenchmarkE2PropertyList(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E2PropertyList(ctx, []int{256})
		return err
	})
}

func BenchmarkE3SortConsensus(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E3SortConsensus(ctx, []int{16})
		return err
	})
}

func BenchmarkE4RegionLabel(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E4RegionLabel(ctx, []int{12})
		return err
	})
}

func BenchmarkE5ViewScoping(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E5ViewScoping(ctx, []int{10000})
		return err
	})
}

func BenchmarkE6ConsensusScale(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E6ConsensusScale(ctx, []int{64})
		return err
	})
}

func BenchmarkE7LindaVsSDL(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E7LindaVsSDL(ctx, []int{4})
		return err
	})
}

func BenchmarkE8SocietyScale(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E8SocietyScale(ctx, []int{1000})
		return err
	})
}

func BenchmarkE10WakeupIndex(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E10WakeupIndex(ctx, []int{100})
		return err
	})
}

func BenchmarkE11JoinPlanner(b *testing.B) {
	benchExperiment(b, func(ctx context.Context) error {
		_, err := bench.E11JoinPlanner(ctx, []int{1000})
		return err
	})
}

// BenchmarkE12ShardScaling runs the keyed RMW workload once per iteration
// at each shard count; compare the sub-benchmarks' ns/op to see the
// per-shard-lock scaling (flat at GOMAXPROCS=1, diverging with cores).
func BenchmarkE12ShardScaling(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchExperiment(b, func(context.Context) error {
				return bench.ShardedRMW(shards, 1024)
			})
		})
	}
}

// BenchmarkE13CommutingUpserts runs the disjoint-key upsert workload once
// per iteration, through the engine's commutativity-aware commit path (key
// latches + group commit) or the shard-mutex baseline (Store.UpdateKeys) at
// each shard count. Compare commute=true against commute=false at the same
// shard count for the commit-path speedup;
// divergence requires hardware parallelism (flat at GOMAXPROCS=1).
func BenchmarkE13CommutingUpserts(b *testing.B) {
	for _, shards := range []int{1, 8} {
		for _, commuting := range []bool{false, true} {
			b.Run(fmt.Sprintf("shards=%d/commute=%v", shards, commuting), func(b *testing.B) {
				benchExperiment(b, func(context.Context) error {
					return bench.CommutingUpserts(shards, commuting)
				})
			})
		}
	}
}

// BenchmarkE15RefinedAdmission runs the view-restricted disjoint-key upsert
// workload once per iteration, with the footprint class the interprocedural
// refiner proves (refined=true, the key-latch path) or the unrefined
// default (refined=false, every commit under the full lock set). The
// admission split is deterministic; the throughput gap needs hardware
// parallelism, like E13.
func BenchmarkE15RefinedAdmission(b *testing.B) {
	for _, refined := range []bool{false, true} {
		b.Run(fmt.Sprintf("refined=%v", refined), func(b *testing.B) {
			benchExperiment(b, func(context.Context) error {
				return bench.RefinedUpserts(refined)
			})
		})
	}
}

// BenchmarkE16ReactiveWakeups runs the shared-bucket wakeup workload once
// per iteration: P waiters blocked on delta-safe constant guards while 300
// unrelated commits land in their index bucket, then one batched release.
// The publisher-side delta filters suppress every noise wakeup.
func BenchmarkE16ReactiveWakeups(b *testing.B) {
	for _, waiters := range []int{50, 200} {
		b.Run(fmt.Sprintf("waiters=%d", waiters), func(b *testing.B) {
			benchExperiment(b, func(ctx context.Context) error {
				return bench.ReactiveWakeups(ctx, waiters)
			})
		})
	}
}

// BenchmarkE17SecondaryIndex runs the field-addressed lookup workload once
// per iteration: n records keyed by a non-lead group field, then ∀ group
// fetches and two-leg joins that address them by that field. With
// secondary=true the scanned shape promotes an adaptive field index and
// lookups visit only its value buckets; secondary=false walks the arity
// population.
func BenchmarkE17SecondaryIndex(b *testing.B) {
	for _, n := range []int{20000} {
		for _, secondary := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/secondary=%v", n, secondary), func(b *testing.B) {
				benchExperiment(b, func(context.Context) error {
					return bench.SecondaryLookups(n, secondary)
				})
			})
		}
	}
}
