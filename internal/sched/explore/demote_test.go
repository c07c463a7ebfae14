package explore

import (
	"context"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
)

// TestMicroDemoteWalksTheLifecycle: micro-demote does what its corpus entry
// says under schedule faults — the tag's shape is promoted and then demoted
// on the read path while the Churners write — at each seed's shard count,
// and the run still ends in the program's final state.
func TestMicroDemoteWalksTheLifecycle(t *testing.T) {
	p, ok := Find("micro-demote")
	if !ok {
		t.Fatal("micro-demote is not in the corpus")
	}
	prog, err := lang.Parse(p.Src)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < uint64(2*testSeeds(t)); seed++ {
		for _, faults := range []sched.Faults{sched.Light(), sched.Heavy()} {
			shards := configFor(seed, Options{})
			store := dataspace.New(dataspace.WithShards(shards), dataspace.WithScheduler(sched.New(seed, faults)))
			rt := process.NewRuntime(txn.New(store), nil)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err := compiled.Run(ctx, rt)
			cancel()
			rt.Shutdown()
			rt.Consensus().Close()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var final []tuple.Tuple
			for _, inst := range store.All() {
				final = append(final, inst.Tuple)
			}
			if err := p.Check(final); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			if m := store.Metrics().Snapshot(); m.SecondaryPromotions < 2 || m.SecondaryDemotions == 0 {
				t.Errorf("seed %d, %d shards: %d promotions, %d demotions; want both shapes promoted and one demoted",
					seed, shards, m.SecondaryPromotions, m.SecondaryDemotions)
			}
		}
	}
}
