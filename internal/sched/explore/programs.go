package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/sdl-lang/sdl/internal/tuple"
)

// Program is one exploration subject: an SDL source plus the invariants a
// run must satisfy on top of the universal serializability checks.
type Program struct {
	// Name identifies the program in reports and -program selectors.
	Name string
	// Src is the SDL source.
	Src string
	// Check validates the final dataspace contents (nil = no content check
	// beyond the refmodel multiset comparison).
	Check func(final []tuple.Tuple) error
	// MarkerLead and MarkerCount configure the all-or-nothing consensus
	// check: every commit inserting any tuple whose leading field is the
	// atom MarkerLead must insert exactly MarkerCount of them — the
	// composite fire of a whole community, never a partial one. Empty
	// MarkerLead disables the check.
	MarkerLead  string
	MarkerCount int
	// Durable runs the program with a write-ahead log attached and, after
	// the normal verification, simulates a crash: the log's tail is
	// truncated at a seed-derived cut (sched.PointWalCrash), the surviving
	// records are checked to be a consistent subset of the commit log, and
	// recovery from the damaged directory must reproduce their reference
	// replay exactly.
	Durable bool
}

// exact returns a Check asserting the final contents equal want, a
// multiset keyed by the tuple rendering (e.g. "<ready, 3>" → 1).
func exact(want map[string]int) func(final []tuple.Tuple) error {
	return func(final []tuple.Tuple) error {
		got := make(map[string]int, len(final))
		for _, t := range final {
			got[t.String()]++
		}
		for k, n := range want {
			if got[k] != n {
				return fmt.Errorf("final state has %d of %s, want %d%s", got[k], k, n, diffSuffix(got, want))
			}
		}
		for k := range got {
			if want[k] == 0 {
				return fmt.Errorf("final state has unexpected %s%s", k, diffSuffix(got, want))
			}
		}
		return nil
	}
}

func diffSuffix(got, want map[string]int) string {
	render := func(m map[string]int) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, fmt.Sprintf("%s×%d", k, m[k]))
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	return fmt.Sprintf("\n  got:  %s\n  want: %s", render(got), render(want))
}

// exampleDir locates examples/sdl relative to this source file, so the
// corpus works from any test or binary working directory within the repo.
func exampleDir() string {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return filepath.Join("examples", "sdl")
	}
	return filepath.Join(filepath.Dir(self), "..", "..", "..", "examples", "sdl")
}

func mustRead(name string) string {
	data, err := os.ReadFile(filepath.Join(exampleDir(), name))
	if err != nil {
		panic(fmt.Sprintf("explore: corpus program %s: %v", name, err))
	}
	return string(data)
}

// Micro-programs: targeted stressors for the retract, consensus, and
// parallel-commit paths, with fully deterministic final states.
const (
	// microUpsertSrc contends on one counter bucket: three processes each
	// perform three retract-and-reassert increments of the same tuple. Any
	// lost update (the classic optimistic-validation bug) shows up as a
	// final count below 9.
	microUpsertSrc = `
process Inc()
behavior
  exists v: <c, ?v>! => <c, ?v + 1>;
  exists v: <c, ?v>! => <c, ?v + 1>;
  exists v: <c, ?v>! => <c, ?v + 1>
end

main
  -> <c, 0>;
  spawn Inc(), spawn Inc(), spawn Inc()
end
`

	// microCommuteSrc upserts three disjoint counters concurrently: each
	// process owns one key, so every pair of transactions commutes and the
	// run exercises the commutativity-aware commit path (key latches and
	// group commit) rather than shard contention. The per-key invariant —
	// every counter ends at exactly 3, total 9 — catches any cross-key
	// interference or lost update the batched publication could introduce.
	microCommuteSrc = `
process Bump(k)
behavior
  exists v: <k, ?v>! => <k, ?v + 1>;
  exists v: <k, ?v>! => <k, ?v + 1>;
  exists v: <k, ?v>! => <k, ?v + 1>
end

main
  -> <11, 0>, <12, 0>, <13, 0>;
  spawn Bump(11), spawn Bump(12), spawn Bump(13)
end
`

	// microTransferSrc moves value around a three-account cycle; each hop
	// retracts both balances and reasserts them atomically. Conservation
	// (and the guard ?a > 0, which forces movers to block on depleted
	// sources) pins the atomicity of two-retract transactions.
	microTransferSrc = `
process Mover(src, dst)
behavior
  exists a, b: <acct, src, ?a>!, <acct, dst, ?b>! where ?a > 0 => <acct, src, ?a - 1>, <acct, dst, ?b + 1>;
  exists a, b: <acct, src, ?a>!, <acct, dst, ?b>! where ?a > 0 => <acct, src, ?a - 1>, <acct, dst, ?b + 1>;
  exists a, b: <acct, src, ?a>!, <acct, dst, ?b>! where ?a > 0 => <acct, src, ?a - 1>, <acct, dst, ?b + 1>
end

main
  -> <acct, 1, 3>, <acct, 2, 3>, <acct, 3, 3>;
  spawn Mover(1, 2), spawn Mover(2, 3), spawn Mover(3, 1)
end
`

	// microConsensusSrc builds two disjoint three-member communities
	// (param-restricted imports over distinct leads) whose consensus fires
	// assert per-member <fired, g, id> markers — the all-or-nothing check
	// demands each firing commit carries exactly three.
	microConsensusSrc = `
process Member(g, id)
import <g, *>
behavior
  -> <g, id>;
  <g, 1>, <g, 2>, <g, 3> @> <fired, g, id>
end

main
  spawn Member(1, 1), spawn Member(1, 2), spawn Member(1, 3),
  spawn Member(2, 1), spawn Member(2, 2), spawn Member(2, 3)
end
`

	// microParallelSrc commits from six processes into six distinct index
	// buckets, so with several shards the commits run concurrently with
	// disjoint footprints — the workload that exposes the injected
	// racy-version ordering bug as duplicate serialization positions.
	microParallelSrc = `
process Put(k)
behavior
  -> <k, 1>; -> <k, 2>; -> <k, 3>; -> <k, 4>
end

main
  spawn Put(1), spawn Put(2), spawn Put(3), spawn Put(4), spawn Put(5), spawn Put(6)
end
`

	// microDurableSrc mixes the two commit paths the WAL must order — the
	// key-latch upsert path (Bump, contended read-modify-write) and plain
	// disjoint asserts (Put) — so the appended record stream interleaves
	// commuting and conflicting commits. The durability harness then cuts
	// the log at a seed-chosen byte and recovery must reconstruct a
	// consistent prefix-equivalent of the committed history.
	microDurableSrc = `
process Bump(k)
behavior
  exists v: <k, ?v>! => <k, ?v + 1>;
  exists v: <k, ?v>! => <k, ?v + 1>
end

process Put(k)
behavior
  -> <log, k>
end

main
  -> <21, 0>, <22, 0>;
  spawn Bump(21), spawn Bump(22), spawn Put(1), spawn Put(2)
end
`

	// microFairSrc pins weak fairness: the Waiter's delayed transaction is
	// enabled from the first configuration and stays enabled (nothing
	// retracts <go, 1>), so under every explored schedule — spurious
	// wakeups, delayed signals, and all — it must commit.
	microFairSrc = `
process Waiter()
behavior
  <go, 1> => <done, 1>
end

process Noise(k)
behavior
  -> <n, k>;
  -> <n, k + 100>
end

main
  -> <go, 1>;
  spawn Waiter(), spawn Noise(1), spawn Noise(2)
end
`

	// microReactiveSrc stresses the delta-driven wakeup paths. Waiter's
	// pure-positive constant guard is delta-safe: the noise commits land in
	// its own <job, ...> index bucket but never match, so the publisher
	// suppresses those wakeups outright. Taker's
	// retract guard is NOT delta-safe — its nil filter pins the
	// full-re-query fallback under the same churn. Release unblocks both.
	microReactiveSrc = `
process Waiter(i)
behavior
  <job, i, 1> => <done, i>
end

process Taker(i)
behavior
  exists v: <job, i, ?v>! where ?v == 2 => <took, i>
end

process Noise(k)
behavior
  -> <job, k, 0>;
  -> <job, k + 10, 0>
end

process Release(i)
behavior
  -> <job, i, 1>;
  -> <job, i + 1, 2>
end

main
  spawn Waiter(1), spawn Taker(2), spawn Noise(3), spawn Noise(4), spawn Release(1)
end
`

	// microIndexSrc stresses the adaptive secondary-index lifecycle. Finder
	// guards are wildcard-lead with only non-lead constants to select on, so
	// the repeated full-arity scans push the (arity-3, field) shapes past the
	// promotion bar mid-run — while Churners retract and re-assert rows of
	// the same shape, driving incremental maintenance of the hot buckets and
	// write-pressure demotion. Every shape starts cold, so each run also
	// serves its first scans by the arity-scan fallback, and every schedule
	// must reach the same final state.
	microIndexSrc = `
process Find(g, n)
behavior
  <*, rec, g> => <hit, g, n>;
  <*, rec, g> => <hit, g, n + 1>;
  <*, rec, g> => <hit, g, n + 2>
end

process Churn(i)
behavior
  exists g: <i, rec, ?g>! => <i, rec, ?g>;
  exists g: <i, rec, ?g>! => <i, rec, ?g>;
  exists g: <i, rec, ?g>! => <i, rec, ?g>
end

main
  -> <1, rec, 1>, <2, rec, 1>, <3, rec, 2>, <4, rec, 2>;
  spawn Find(1, 1), spawn Find(2, 1), spawn Churn(1), spawn Churn(3)
end
`

	// microDemoteSrc walks a shape through promotion and demotion while its
	// neighbour's buckets churn. Main files 24 <hub, rec, k>, so
	// the hub's lead bucket is wide and every scan of <hub, rec, ...>
	// consults the field indexes of its shard. The tag's bucket (field 1)
	// holds the whole lead bucket, so it never serves. Main's tag-only
	// scans promote it (the promotion is a scheduler decision, so it may
	// take several); then the Finders' and Churners' <hub, rec, g> scans,
	// served the wide lead bucket, promote the group's shape (field 2),
	// whose bucket serves every later scan, while the tag's only loses the
	// comparison until those lost comparisons and the Churners' writes
	// debit it to the floor and demote it. A narrow group bucket
	// then serves each scan, which charges no cold shape, so the tag stays
	// cold. Meanwhile the Churners retract and re-assert their group's hub
	// record, so the group index is maintained through commits that race
	// the scans, the promotion and the demotion. The counters are pairs, so
	// their commits are no writes to the arity-3 shapes. Every schedule must
	// reach the same final state.
	microDemoteSrc = `
process Find(g, n)
behavior
  rep {
    <g, ?k>!, <hub, rec, g> where ?k > 0 -> <g, ?k - 1>
  | <g, 0>! -> <hit, g, n>, exit
  }
end

process Churn(i, c)
behavior
  rep {
    <c, ?k>!, <hub, rec, i>! where ?k > 0 -> <c, ?k - 1>, <hub, rec, i>
  | <c, 0>! -> exit
  }
end

main
  -> <fill, 24>, <warm, 20>, <1, 200>, <2, 200>, <11, 24>, <12, 24>;
  rep {
    <fill, ?k>! where ?k > 0 -> <hub, rec, ?k>, <fill, ?k - 1>
  };
  rep {
    <warm, ?k>!, <hub, rec, *> where ?k > 0 -> <warm, ?k - 1>
  };
  <fill, 0>!, <warm, 0>! -> skip;
  spawn Find(1, 1), spawn Find(2, 1), spawn Churn(1, 11), spawn Churn(2, 12)
end
`

	// fanoutSrc is the perf benchmark's fan-out program at P=6: every Waiter
	// blocks on its own <job, i, 1> in ONE index bucket, so their delta
	// subscriptions are filed under (field 1 = i); main waits until all are
	// past their first statement, streams noise into the bucket — a tuple
	// nobody's selector matches, a near miss that shares Waiter 3's selector
	// value, and a batch that makes the bucket wide enough for the waiters'
	// re-evaluations to go through the in-bucket field lookup — then
	// releases everyone in one commit. A subscription filed under the wrong
	// value, or a wakeup dropped by the indexed lookup, leaves a Waiter
	// blocked and the run times out.
	fanoutSrc = `
process Waiter(i)
behavior
  <pending, i>! -> skip;
  <job, i, 1> => <woke, i>
end

main
  -> <pending, 0>, <pending, 1>, <pending, 2>, <pending, 3>, <pending, 4>, <pending, 5>;
  spawn Waiter(0), spawn Waiter(1), spawn Waiter(2), spawn Waiter(3), spawn Waiter(4), spawn Waiter(5);
  not <pending, *> => skip;
  -> <job, 106, 0>;
  -> <job, 3, 0>;
  -> <job, 10, 0>, <job, 11, 0>, <job, 12, 0>, <job, 13, 0>, <job, 14, 0>, <job, 15, 0>,
     <job, 16, 0>, <job, 17, 0>, <job, 18, 0>, <job, 19, 0>, <job, 20, 0>, <job, 21, 0>;
  -> <job, 0, 1>, <job, 1, 1>, <job, 2, 1>, <job, 3, 1>, <job, 4, 1>, <job, 5, 1>
end
`

	// microSharedConsensusSrc is one consensus set in which three Readers
	// issue one statement, two of them under the same binding of g: the
	// fire evaluates that query once for both and copies the solution. The
	// third reads another g and evaluates on its own, and the Taker's
	// retracting query is never shared. Claim order is explored: a Taker
	// claimed between the two sharing Readers hides the token the first one
	// saw, so the second must evaluate afresh. The marker check pins every
	// <fired, ...> commit to the whole set of four.
	microSharedConsensusSrc = `
process Reader(id, g)
behavior
  <go, g>, <tok, ?t> @> <fired, id>, <saw, id, ?t>
end

process Taker()
behavior
  <tok, ?t>! @> <fired, 0>, <took, ?t>
end

main
  -> <go, 1>, <go, 2>, <tok, 1>, <tok, 2>;
  spawn Reader(1, 1), spawn Reader(2, 1), spawn Reader(3, 2), spawn Taker()
end
`

	// twoCommunitiesSrc exercises the consensus gate's partition upkeep: two
	// disjoint three-member communities (group 1 is two Members plus Edge,
	// group 2 three Members), and a Drifter whose community changes when a
	// bucket empties. While <x, 0> exists Edge and Drifter both import it, so
	// Drifter belongs to group 1's consensus set and — its guard demanding x
	// be gone — blocks it; when Drain retracts the tuple the x bucket's
	// emptiness flips, Drifter becomes a singleton set and fires alone, and
	// group 1 fires through Edge's second alternative. Edge's first
	// alternative (x still there) can only ever fire under a stale partition
	// that left Drifter out: it plants <sawx, 1>, which the final-state check
	// rejects. The marker check pins every <fired, ...> commit to a whole
	// community of three.
	twoCommunitiesSrc = `
process Member(g, id)
import <g, *>
behavior
  -> <g, id>;
  <g, 1>, <g, 2> @> <fired, g, id>
end

process Edge()
import <1, *>; <x, *>
behavior
  sel {
    <1, 1>, <1, 2>, <x, 0> @> <sawx, 1>, <fired, 1, 3>
  | <1, 1>, <1, 2>, not <x, *> @> <fired, 1, 3>
  }
end

process Drifter()
import <x, *>
behavior
  not <x, *> @> <free, 1>
end

process Drain()
behavior
  <x, 0>! -> skip
end

main
  -> <x, 0>;
  spawn Member(1, 1), spawn Member(1, 2), spawn Edge(),
  spawn Member(2, 1), spawn Member(2, 2), spawn Member(2, 3),
  spawn Drifter(), spawn Drain()
end
`
)

// Corpus returns the exploration corpus: the seven examples/sdl programs
// plus the targeted micro-programs and the two coordination-path programs,
// each with its final-state invariant.
func Corpus() []Program {
	phil := map[string]int{}
	for id := 1; id <= 5; id++ {
		phil[fmt.Sprintf("<meal, %d>", id)] = 3
		phil[fmt.Sprintf("<fork, %d>", id)] = 1
	}
	return []Program{
		{
			Name: "barrier",
			Src:  mustRead("barrier.sdl"),
			Check: exact(map[string]int{
				"<seed, 0>":  1,
				"<ready, 1>": 1, "<ready, 2>": 1, "<ready, 3>": 1,
				"<passed, 1>": 1, "<passed, 2>": 1, "<passed, 3>": 1,
			}),
			MarkerLead:  "passed",
			MarkerCount: 3,
		},
		{
			Name: "pairing",
			Src:  mustRead("pairing.sdl"),
			Check: exact(map[string]int{
				"<paired, 2>": 1, "<paired, 5>": 1, "<paired, 9>": 1,
			}),
		},
		{
			Name:  "philosophers",
			Src:   mustRead("philosophers.sdl"),
			Check: exact(phil),
		},
		{
			Name: "proplist",
			Src:  mustRead("proplist.sdl"),
			Check: exact(map[string]int{
				"<1, color, 7, 2>":       1,
				"<2, size, 42, 3>":       1,
				"<3, weight, 99, nil>":   1,
				"<found_fast, size, 42>": 1,
				"<result, weight, 99>":   1,
			}),
		},
		{
			Name: "sort",
			Src:  mustRead("sort.sdl"),
			Check: exact(map[string]int{
				"<1, alpha, 10, 2>":   1,
				"<2, beta, 20, 3>":    1,
				"<3, gamma, 30, 4>":   1,
				"<4, delta, 40, nil>": 1,
			}),
		},
		{
			Name:  "sum1",
			Src:   mustRead("sum1.sdl"),
			Check: exact(map[string]int{"<8, 36>": 1}),
		},
		{
			Name: "sum3",
			Src:  mustRead("sum3.sdl"),
			// The surviving lead is schedule-dependent (the last pair
			// combined); only the count and the total are invariant.
			Check: func(final []tuple.Tuple) error {
				if len(final) != 1 {
					return fmt.Errorf("final state has %d tuples, want 1: %v", len(final), final)
				}
				t := final[0]
				if t.Arity() != 2 {
					return fmt.Errorf("final tuple %s has arity %d, want 2", t, t.Arity())
				}
				if n, ok := t.Field(1).Numeric(); !ok || n != 360 {
					return fmt.Errorf("final tuple %s does not total 360", t)
				}
				return nil
			},
		},
		{
			Name:  "micro-upsert",
			Src:   microUpsertSrc,
			Check: exact(map[string]int{"<c, 9>": 1}),
		},
		{
			Name: "micro-commute",
			Src:  microCommuteSrc,
			// Disjoint-key sum invariant: three increments land on each
			// counter, never on a neighbour.
			Check: exact(map[string]int{
				"<11, 3>": 1, "<12, 3>": 1, "<13, 3>": 1,
			}),
		},
		{
			Name: "micro-transfer",
			Src:  microTransferSrc,
			// Each account sends 3 and receives 3; balances return to 3.
			Check: exact(map[string]int{
				"<acct, 1, 3>": 1, "<acct, 2, 3>": 1, "<acct, 3, 3>": 1,
			}),
		},
		{
			Name: "micro-consensus",
			Src:  microConsensusSrc,
			Check: exact(map[string]int{
				"<1, 1>": 1, "<1, 2>": 1, "<1, 3>": 1,
				"<2, 1>": 1, "<2, 2>": 1, "<2, 3>": 1,
				"<fired, 1, 1>": 1, "<fired, 1, 2>": 1, "<fired, 1, 3>": 1,
				"<fired, 2, 1>": 1, "<fired, 2, 2>": 1, "<fired, 2, 3>": 1,
			}),
			MarkerLead:  "fired",
			MarkerCount: 3,
		},
		{
			Name: "micro-parallel",
			Src:  microParallelSrc,
			Check: func(final []tuple.Tuple) error {
				if len(final) != 24 {
					return fmt.Errorf("final state has %d tuples, want 24", len(final))
				}
				return nil
			},
		},
		{
			Name: "micro-durable",
			Src:  microDurableSrc,
			Check: exact(map[string]int{
				"<21, 2>": 1, "<22, 2>": 1,
				"<log, 1>": 1, "<log, 2>": 1,
			}),
			Durable: true,
		},
		{
			Name: "micro-fair",
			Src:  microFairSrc,
			Check: exact(map[string]int{
				"<go, 1>": 1, "<done, 1>": 1,
				"<n, 1>": 1, "<n, 101>": 1, "<n, 2>": 1, "<n, 102>": 1,
			}),
		},
		{
			Name: "micro-reactive",
			Src:  microReactiveSrc,
			Check: exact(map[string]int{
				"<job, 1, 1>": 1, "<done, 1>": 1, "<took, 2>": 1,
				"<job, 3, 0>": 1, "<job, 13, 0>": 1,
				"<job, 4, 0>": 1, "<job, 14, 0>": 1,
			}),
		},
		{
			Name: "fanout",
			Src:  fanoutSrc,
			Check: exact(map[string]int{
				"<woke, 0>": 1, "<woke, 1>": 1, "<woke, 2>": 1, "<woke, 3>": 1, "<woke, 4>": 1, "<woke, 5>": 1,
				"<job, 0, 1>": 1, "<job, 1, 1>": 1, "<job, 2, 1>": 1, "<job, 3, 1>": 1, "<job, 4, 1>": 1, "<job, 5, 1>": 1,
				"<job, 106, 0>": 1, "<job, 3, 0>": 1,
				"<job, 10, 0>": 1, "<job, 11, 0>": 1, "<job, 12, 0>": 1, "<job, 13, 0>": 1, "<job, 14, 0>": 1, "<job, 15, 0>": 1,
				"<job, 16, 0>": 1, "<job, 17, 0>": 1, "<job, 18, 0>": 1, "<job, 19, 0>": 1, "<job, 20, 0>": 1, "<job, 21, 0>": 1,
			}),
		},
		{
			Name: "two-communities",
			Src:  twoCommunitiesSrc,
			Check: exact(map[string]int{
				"<1, 1>": 1, "<1, 2>": 1,
				"<2, 1>": 1, "<2, 2>": 1, "<2, 3>": 1,
				"<fired, 1, 1>": 1, "<fired, 1, 2>": 1, "<fired, 1, 3>": 1,
				"<fired, 2, 1>": 1, "<fired, 2, 2>": 1, "<fired, 2, 3>": 1,
				"<free, 1>": 1,
			}),
			MarkerLead:  "fired",
			MarkerCount: 3,
		},
		{
			Name:        "micro-shared-consensus",
			Src:         microSharedConsensusSrc,
			Check:       sharedConsensusCheck,
			MarkerLead:  "fired",
			MarkerCount: 4,
		},
		{
			Name: "micro-index",
			Src:  microIndexSrc,
			Check: exact(map[string]int{
				"<1, rec, 1>": 1, "<2, rec, 1>": 1,
				"<3, rec, 2>": 1, "<4, rec, 2>": 1,
				"<hit, 1, 1>": 1, "<hit, 1, 2>": 1, "<hit, 1, 3>": 1,
				"<hit, 2, 1>": 1, "<hit, 2, 2>": 1, "<hit, 2, 3>": 1,
			}),
		},
		{
			Name:  "micro-demote",
			Src:   microDemoteSrc,
			Check: exact(demoteFinal()),
		},
	}
}

// demoteFinal is micro-demote's final state: the hub records main filed
// and each Finder's hit.
func demoteFinal() map[string]int {
	want := map[string]int{"<hit, 1, 1>": 1, "<hit, 2, 1>": 1}
	for k := 1; k <= 24; k++ {
		want[fmt.Sprintf("<hub, rec, %d>", k)] = 1
	}
	return want
}

// sharedConsensusCheck is micro-shared-consensus's final state: both <go>
// tuples, the four members' markers, one token taken and the other left,
// and each Reader's sighting of one of the two tokens.
func sharedConsensusCheck(final []tuple.Tuple) error {
	got := make(map[string]int, len(final))
	for _, t := range final {
		got[t.String()]++
	}
	want := map[string]int{"<go, 1>": 1, "<go, 2>": 1,
		"<fired, 0>": 1, "<fired, 1>": 1, "<fired, 2>": 1, "<fired, 3>": 1}
	switch {
	case got["<took, 1>"] == 1 && got["<tok, 2>"] == 1:
		want["<took, 1>"], want["<tok, 2>"] = 1, 1
	case got["<took, 2>"] == 1 && got["<tok, 1>"] == 1:
		want["<took, 2>"], want["<tok, 1>"] = 1, 1
	default:
		return fmt.Errorf("want one token taken and the other left%s", diffSuffix(got, want))
	}
	for id := 1; id <= 3; id++ {
		one, two := fmt.Sprintf("<saw, %d, 1>", id), fmt.Sprintf("<saw, %d, 2>", id)
		if got[one]+got[two] != 1 {
			return fmt.Errorf("reader %d saw %d tokens, want 1%s", id, got[one]+got[two], diffSuffix(got, want))
		}
		want[one], want[two] = got[one], got[two]
	}
	return exact(want)(final)
}

// Find returns the corpus program with the given name.
func Find(name string) (Program, bool) {
	for _, p := range Corpus() {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}
