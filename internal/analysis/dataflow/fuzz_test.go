package dataflow

import (
	"math/rand"
	"testing"

	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/lang/langtest"
)

// FuzzDataflow drives the interprocedural analysis over randomly
// generated programs (the same generator as the analyzer's and the
// front-end's fuzz targets). Properties:
//
//   - Analyze never panics, on synthetic ASTs and parsed round trips;
//   - the fixpoint converges within its round budget (or reports that it
//     did not — it must never claim convergence after the cap);
//   - every judgment is internally consistent: it annotates the
//     transaction it is filed under, and every lead it reports has a
//     positive index and a witness.
func FuzzDataflow(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := langtest.NewGen(rand.New(rand.NewSource(seed)))
		prog := g.Program()

		check := func(prog *lang.Program, label string) {
			res := Analyze(prog)
			if res == nil {
				t.Fatalf("%s: nil result", label)
			}
			if res.Rounds > maxRounds {
				t.Fatalf("%s: fixpoint ran %d rounds, cap is %d", label, res.Rounds, maxRounds)
			}
			if !res.Converged && res.Rounds < maxRounds {
				t.Fatalf("%s: reported non-convergence after only %d rounds", label, res.Rounds)
			}
			for txn, j := range res.Judgments {
				if txn == nil || j == nil {
					t.Fatalf("%s: nil judgment entry", label)
				}
				if j.Node != txn {
					t.Errorf("%s: judgment node mismatch", label)
				}
				for _, ld := range j.Leads {
					if ld.Index < 1 {
						t.Errorf("%s: lead with index %d", label, ld.Index)
					}
					if ld.Why == "" {
						t.Errorf("%s: lead with no witness in %s", label, j.Proc)
					}
				}
			}
		}

		// Synthetic AST (zero positions — worst case for bookkeeping).
		check(prog, "synthetic")

		src := lang.Format(prog)
		parsed, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("formatted program does not parse: %v\n%s", err, src)
		}
		check(parsed, "parsed")
	})
}
