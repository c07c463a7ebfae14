package sdl

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/metrics"
)

// runObserved runs an SDL program to completion on a fresh four-shard
// system whose registry is observed from the start, and returns the system.
func runObserved(t *testing.T, src string) *System {
	t.Helper()
	sys := New(Options{Shards: 4})
	t.Cleanup(func() { sys.Close() })
	sys.Metrics().SetObserved(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := lang.LoadAndRun(ctx, sys.Runtime, src); err != nil {
		t.Fatal(err)
	}
	return sys
}

func readExample(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile("examples/sdl/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// Static notes and their run-time counterparts. sdlvet's former dataflow
// pass reported two kinds of note on a transaction: footprint-blocked (a
// lead no spawn environment grounds keeps the footprint unbounded) and
// scan-heavy (a query pattern whose lead never grounds walks its whole
// arity, through the secondary field indexes when a non-lead field is
// constant). Over the shipped examples it reported 3 footprint-blocked and
// 4 scan-heavy notes, and its goldens 3 and 2 more. Each must show in the
// explain record of the transaction's site: the same blocking lead, and the
// scan-heavy pattern's step taking the field indexes or the arity scan.
func TestExplainCoversDataflowNotes(t *testing.T) {
	type scanHeavy struct {
		pattern int // from 0
		path    metrics.Path
	}
	type note struct {
		site    string
		blocked *metrics.Block // a footprint-blocked note's lead; planned when the pass kept silent
		scans   []scanHeavy    // scan-heavy notes (and, for a silent site, its lead-bucket scans)
	}
	wildcard := func(i int) *metrics.Block { return &metrics.Block{Cause: metrics.CauseWildcard, Index: i} }
	queryVar := func(i int) *metrics.Block { return &metrics.Block{Cause: metrics.CauseQueryVar, Index: i} }
	planned := &metrics.Block{} // a site the pass kept silent on
	// Find's second guard runs only when its first fails: a second Find, on
	// a property no node has, makes it run.
	proplist := strings.Replace(readExample(t, "proplist.sdl"), "spawn Find(size)", "spawn Find(size), spawn Find(shape)", 1)
	for _, tc := range []struct {
		name  string
		src   string
		notes []note
	}{
		{"proplist", proplist, []note{
			{"20:5", wildcard(0), []scanHeavy{{0, metrics.PathField}}},
			{"21:5", wildcard(0), []scanHeavy{{0, metrics.PathField}}},
		}},
		{"sum3", readExample(t, "sum3.sdl"), []note{
			{"11:5", queryVar(0), []scanHeavy{{0, metrics.PathArity}, {1, metrics.PathArity}}},
		}},
		{"dataflow", dataflowSrc, []note{
			{"8:5", planned, nil},
			{"15:3", &metrics.Block{Cause: metrics.CauseQueryVar, Assert: true}, nil},
		}},
		{"scanheavy", scanHeavySrc, []note{
			{"5:3", queryVar(0), []scanHeavy{{0, metrics.PathField}}},
			{"10:3", queryVar(0), []scanHeavy{{0, metrics.PathArity}}},
			{"15:3", planned, []scanHeavy{{0, metrics.PathLead}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sites := map[string]metrics.ExplainSite{}
			for _, s := range runObserved(t, tc.src).Snapshot().Explain {
				sites[s.Site] = s
			}
			for _, n := range tc.notes {
				s, ok := sites[n.site]
				if !ok {
					t.Errorf("%s: no explain record", n.site)
					continue
				}
				if (s.Unplanned == 0) != (*n.blocked == metrics.Block{}) || s.Block != *n.blocked {
					t.Errorf("%s: %d unplanned, blocked by %v; want %v", n.site, s.Unplanned, s.Block, *n.blocked)
				}
				for _, sh := range n.scans {
					var scans uint64
					for _, st := range s.Steps {
						if st.Pattern == sh.pattern {
							scans += st.Scans[sh.path]
						}
					}
					if scans == 0 {
						t.Errorf("%s: pattern %d never scanned on path %d; steps %+v", n.site, sh.pattern+1, sh.path, s.Steps)
					}
				}
			}
		})
	}
}

// dataflowSrc is the former dataflow golden's program. Relay's assertion
// lead is query-bound; Pair's leads are its parameters and main's are
// constants, so both plan.
const dataflowSrc = `// Relay's assertion lead is bound by the query.

process Pair(a, b)
import <a, *>; <b, *>
export <a, *>; <b, *>
behavior
  rep {
    <a, ?x>!, <b, ?y>! where ?x > ?y -> <a, ?y>, <b, ?x>
  | -> exit
  }
end

process Relay()
behavior
  exists c, v: <chan, ?c>, <item, ?v> -> <?c, ?v>
end

main
  -> <chan, left>, <chan, right>, <item, 5>;
  -> <1, 40>, <2, 10>, <3, 30>;
  spawn Pair(1, 2), spawn Pair(2, 3), spawn Relay()
end
`

// scanHeavySrc is the former scan-heavy golden's program. Finder's lead is
// its own variable, but its constant size field keys the secondary index;
// Sweep's pattern has no constant field at all; Keyed's lead is its
// parameter.
const scanHeavySrc = `// Finder and Sweep address their data by content.

process Finder()
behavior
  exists id, v: <?id, size, ?v> -> <found, ?id>
end

process Sweep()
behavior
  exists a, b: <?a, ?b>! -> <pair, ?a>
end

process Keyed(k)
behavior
  exists v: <k, ?v> -> <seen, k>
end

main
  -> <1, size, 42>, <2, size, 7>, <3, weight, 9>;
  -> <left, right>;
  spawn Finder(), spawn Sweep(), spawn Keyed(1)
end
`
