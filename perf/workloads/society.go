package workloads

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	sdl "github.com/sdl-lang/sdl"
	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/perf/harness"
)

// RoundTimeout fails a society round that runs longer.
const RoundTimeout = 30 * time.Second

// The four programs of a society round, in run order.
var programs = [...]string{"sort", "fanout", "barrier", "sum3"}

// round is one generated operation: four SDL sources plus what each must
// produce.
type round struct {
	src     [len(programs)]string
	sortVal []int64 // the multiset the sort must preserve
	sum     int64   // the total sum3 must reach
}

// Society is the full-stack workload: one driver runs rounds; each round
// parses, compiles and runs four generated SDL programs to completion, each
// on a fresh sdl.System. The society of processes is the concurrency.
type Society struct {
	seed uint64
	sc   Scale

	window   int
	prepared []round
	observed bool

	kept, total counters // summed over every finished system
	progTime    [len(programs)]time.Duration
	progRuns    int
}

func (s *Society) Name() string      { return "society" }
func (s *Society) Clients() int      { return 1 }
func (s *Society) OpsPerWindow() int { return s.sc.Rounds }
func (s *Society) PoolTail() bool    { return true }
func (s *Society) LiveTuples() int   { return 0 }
func (s *Society) Close() error      { return nil }
func (s *Society) SetTracing(on bool) {
	s.observed = on
}

// setupRounds is how many rounds a set-up runs.
const setupRounds = 12

// Setup is the cold start: from nothing to setupRounds generated, run and
// verified rounds. The society has no store to load, so what a user waits
// for before steady state is the language front end, the process runtime
// and the consensus detector warming up.
func (s *Society) Setup() error {
	r := stream(s.seed, s.Name(), 0)
	for i := 0; i < setupRounds; i++ {
		rd := s.generate(r)
		for p := range programs {
			if err := s.runProgram(p, rd, nil, 0, -1); err != nil {
				return fmt.Errorf("%s: %w", programs[p], err)
			}
		}
	}
	return nil
}

func (s *Society) Prepare(w int) {
	s.window = w
	r := stream(s.seed, s.Name(), 1, uint64(w+1))
	s.prepared = make([]round, s.sc.Rounds)
	for i := range s.prepared {
		s.prepared[i] = s.generate(r)
	}
}

// generate writes one round's four programs.
func (s *Society) generate(r *rand.Rand) round {
	var rd round
	var b strings.Builder

	// sort: the paper's section 3.2, one Sort process per adjacent pair,
	// terminated by one consensus over the whole community.
	n := s.sc.SortLen
	rd.sortVal = make([]int64, n)
	for i, p := range r.Perm(n) {
		rd.sortVal[i] = int64(10 * (p + 1))
	}
	b.WriteString(`process Sort(a, b)
import <a, *, *, *>; <b, *, *, *>
export <a, *, *, *>; <b, *, *, *>
behavior
  rep {
    <a, ?n1, ?v1, ?x>!, <b, ?n2, ?v2, ?y>! where ?v1 > ?v2
      -> <a, ?n2, ?v2, ?x>, <b, ?n1, ?v1, ?y>
  | <a, *, ?v1, *>, <b, *, ?v2, *> where ?v1 <= ?v2
      @> exit
  }
end
main
  -> `)
	for i := 1; i <= n; i++ {
		next := fmt.Sprint(i + 1)
		if i == n {
			next = "nil"
		}
		fmt.Fprintf(&b, "<%d, n%d, %d, %s>", i, i, rd.sortVal[i-1], next)
		b.WriteString(sep(i, n, ", ", ";\n  "))
	}
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "spawn Sort(%d, %d)", i, i+1)
		b.WriteString(sep(i, n-1, ", ", "\nend\n"))
	}
	rd.src[0] = b.String()

	// fanout: Waiters processes block on delayed guards in ONE index bucket;
	// main waits until all are parked, streams noise commits into that
	// bucket that match none of them, then releases all in one commit.
	b.Reset()
	p := s.sc.Waiters
	b.WriteString(`process Waiter(i)
behavior
  <pending, i>! -> skip;
  <job, i, 1> => skip
end
main
  -> `)
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "<pending, %d>", i)
		b.WriteString(sep(i+1, p, ", ", ";\n  "))
	}
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "spawn Waiter(%d)", i)
		b.WriteString(sep(i+1, p, ", ", ";\n  "))
	}
	b.WriteString("not <pending, *> => skip;\n")
	for i := 0; i < s.sc.Noise; i++ {
		fmt.Fprintf(&b, "  -> <job, %d, 0>;\n", p+r.Intn(1<<20))
	}
	b.WriteString("  -> ")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "<job, %d, 1>", i)
		b.WriteString(sep(i+1, p, ", ", "\nend\n"))
	}
	rd.src[1] = b.String()

	// barrier: an n-way consensus barrier.
	b.Reset()
	k := s.sc.BarrierProcs
	b.WriteString("process Worker(id)\nbehavior\n  -> <ready, id>;\n  ")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "<ready, %d>", i)
		b.WriteString(sep(i, k, ", ", " @> <passed, id>\nend\nmain\n  "))
	}
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "spawn Worker(%d)", i)
		b.WriteString(sep(i, k, ", ", "\nend\n"))
	}
	rd.src[2] = b.String()

	// sum3: the paper's section 3.1 replicated summation.
	b.Reset()
	b.WriteString(`process Sum3()
behavior
  par {
    <?n, ?a>!, <?m, ?b>! where ?n != ?m -> <?m, ?a + ?b>
  }
end
main
  -> `)
	m := s.sc.SumLen
	for i := 1; i <= m; i++ {
		v := int64(1 + r.Intn(1000))
		rd.sum += v
		fmt.Fprintf(&b, "<%d, %d>", i, v)
		b.WriteString(sep(i, m, ", ", ";\n  spawn Sum3()\nend\n"))
	}
	rd.src[3] = b.String()
	return rd
}

// sep is last when i is the final index n, mid otherwise.
func sep(i, n int, mid, last string) string {
	if i == n {
		return last
	}
	return mid
}

func (s *Society) Run(_ int, lat []int64, lane *harness.Lane) (failed int) {
	for i, rd := range s.prepared {
		op := opID(s.window, 0, i)
		root := int32(-1)
		if lane != nil {
			root = lane.Begin("op", op, -1)
		}
		t0 := time.Now()
		var err error
		for p := range programs {
			if err = s.runProgram(p, rd, lane, op, root); err != nil {
				err = fmt.Errorf("%s: %w", programs[p], err)
				break
			}
		}
		lat[i] = int64(time.Since(t0))
		if lane != nil {
			lane.End(root)
		}
		if err != nil || lat[i] > int64(RoundTimeout) {
			failed++
		}
	}
	return failed
}

// runProgram parses, compiles, installs and runs program p of the round on
// a fresh system, then checks what it left behind.
func (s *Society) runProgram(p int, rd round, lane *harness.Lane, op int64, root int32) error {
	span := func(name string) func() {
		if lane == nil {
			return func() {}
		}
		i := lane.Begin(name, op, root)
		return func() { lane.End(i) }
	}
	sys := sdl.New(sdl.Options{})
	defer func() {
		sys.Close()
		s.total.add(countersOf(sys.Snapshot()))
	}()
	sys.Metrics().SetObserved(s.observed)

	end := span("lang.parse")
	prog, err := lang.Parse(rd.src[p])
	end()
	if err != nil {
		return err
	}
	end = span("lang.compile")
	compiled, err := lang.CompileWith(prog, lang.CompileOptions{})
	if err == nil {
		err = compiled.Install(sys.Runtime)
	}
	end()
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), RoundTimeout)
	defer cancel()
	end = span("process.run." + programs[p])
	t0 := time.Now()
	if _, err = sys.Runtime.Spawn(lang.MainProcess); err == nil {
		err = sys.Runtime.WaitCtx(ctx)
	}
	s.progTime[p] += time.Since(t0)
	if p == 0 {
		s.progRuns++
	}
	end()
	if err != nil {
		return err
	}
	if errs := sys.Runtime.Errors(); len(errs) > 0 {
		return fmt.Errorf("%d process errors, first: %w", len(errs), errs[0])
	}
	if n := sys.Runtime.Running(); n != 0 {
		return fmt.Errorf("%d processes still running", n)
	}
	return s.check(p, rd, sys)
}

// check verifies one finished program's dataspace and consensus count.
func (s *Society) check(p int, rd round, sys *sdl.System) error {
	fires := sys.Cons.Fires()
	all := sys.Store.All()
	switch programs[p] {
	case "sort":
		if fires != 1 {
			return fmt.Errorf("%d consensus fires, want 1", fires)
		}
		got := make([]int64, len(rd.sortVal))
		if len(all) != len(got) {
			return fmt.Errorf("%d nodes left, want %d", len(all), len(got))
		}
		for _, inst := range all {
			id, _ := inst.Tuple.Field(0).AsInt()
			got[id-1], _ = inst.Tuple.Field(2).AsInt()
		}
		want := append([]int64(nil), rd.sortVal...)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("node %d holds %d, want %d", i+1, got[i], want[i])
			}
		}
	case "fanout":
		if want := s.sc.Waiters + s.sc.Noise; len(all) != want || fires != 0 {
			return fmt.Errorf("%d tuples and %d fires left, want %d and 0", len(all), fires, want)
		}
	case "barrier":
		passed := 0
		for _, inst := range all {
			if inst.Tuple.Field(0).Equal(sdl.Atom("passed")) {
				passed++
			}
		}
		if passed != s.sc.BarrierProcs || fires != 1 {
			return fmt.Errorf("%d passed with %d fires, want %d with 1", passed, fires, s.sc.BarrierProcs)
		}
	case "sum3":
		if len(all) != 1 {
			return fmt.Errorf("%d tuples left, want 1", len(all))
		}
		if v, _ := all[0].Tuple.Field(1).AsInt(); v != rd.sum {
			return fmt.Errorf("sum %d, want %d", v, rd.sum)
		}
	}
	return nil
}

func (s *Society) MarkKept() {
	s.kept = s.total
	s.progTime = [len(programs)]time.Duration{}
	s.progRuns = 0
}

// Verify has nothing left to check: every round verified its own programs.
func (s *Society) Verify() error { return nil }

// LayerMetrics reports the kept rounds' spans and counters and runs three
// probes at the Go API: spawning through the process runtime, a consensus
// fire through Manager.Offer, and the fan-out's release-to-return latency
// through Engine.Delayed.
func (s *Society) LayerMetrics(k harness.Kept) (map[string]float64, error) {
	m := map[string]float64{}
	layerCounts(m, s.kept, s.total, k.Ops)
	m["lang.parse_us"] = k.Spans["lang.parse"].MeanUS()
	m["lang.compile_us"] = k.Spans["lang.compile"].MeanUS()
	for p, name := range programs {
		if s.progRuns > 0 {
			m["process."+name+"_ms"] = float64(s.progTime[p]) / float64(s.progRuns) / 1e6
		}
	}
	var err error
	if m["process.spawn_us_per_proc"], err = probeSpawn(s.sc.Waiters); err != nil {
		return nil, fmt.Errorf("spawn probe: %w", err)
	}
	if m["consensus.fire_ms"], err = probeConsensus(s.sc.BarrierProcs); err != nil {
		return nil, fmt.Errorf("consensus probe: %w", err)
	}
	if m["txn.delayed_wake_us"], err = probeWake(s.sc.Waiters, s.sc.Noise); err != nil {
		return nil, fmt.Errorf("wake probe: %w", err)
	}
	return m, nil
}

const probeReps = 5

// probeSpawn is the mean time to spawn one trivial process and see it exit.
func probeSpawn(n int) (float64, error) {
	prog, err := lang.Parse("process Nop(i)\nbehavior\n  -> skip\nend\n")
	if err != nil {
		return 0, err
	}
	compiled, err := lang.Compile(prog)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for rep := 0; rep < probeReps; rep++ {
		sys := sdl.New(sdl.Options{})
		if err := compiled.Install(sys.Runtime); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := sys.Runtime.Spawn("Nop", sdl.Int(int64(i))); err != nil {
				return 0, err
			}
		}
		sys.Runtime.Wait()
		total += time.Since(t0)
		sys.Close()
	}
	return meanUS(total, probeReps*n), nil
}

// probeConsensus times one n-member consensus fire: every member offers a
// satisfiable query through Manager.Offer; the clock stops when all
// returned.
func probeConsensus(n int) (float64, error) {
	var total time.Duration
	ready := sdl.Atom("ready")
	for rep := 0; rep < probeReps; rep++ {
		sys := sdl.New(sdl.Options{})
		for i := 1; i <= n; i++ {
			sys.Store.Assert(sdl.Environment, sdl.NewTuple(ready, sdl.Int(int64(i))))
			sys.Cons.Register(sdl.ProcessID(i), sdl.Universal(), nil)
		}
		errs := make(chan error, n)
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := 1; i <= n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := sys.Cons.Offer(context.Background(), sdl.Request{
					Proc: sdl.ProcessID(i), View: sdl.Universal(),
					Query: sdl.Q(sdl.P(sdl.C(ready), sdl.C(sdl.Int(int64(i))))),
				})
				if err == nil && !res.OK {
					err = fmt.Errorf("member %d's offer did not commit", i)
				}
				errs <- err
			}(i)
		}
		wg.Wait()
		total += time.Since(t0)
		close(errs)
		for err := range errs {
			if err != nil {
				sys.Close()
				return 0, err
			}
		}
		if f := sys.Cons.Fires(); f != 1 {
			sys.Close()
			return 0, fmt.Errorf("%d fires, want 1", f)
		}
		sys.Close()
	}
	return float64(total) / probeReps / 1e6, nil
}

// probeWake is the fan-out at the Go API: p delayed transactions block on
// <job, i, 1>, noise commits hit their bucket, one commit releases them
// all. It returns the mean time from the start of the releasing commit to
// each Delayed call's return.
func probeWake(p, noise int) (float64, error) {
	job := sdl.Atom("job")
	var total time.Duration
	for rep := 0; rep < probeReps; rep++ {
		sys := sdl.New(sdl.Options{})
		returned := make([]time.Time, p)
		errs := make(chan error, p)
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := sys.Delayed(context.Background(), sdl.Request{
					Proc: sdl.ProcessID(i + 1), View: sdl.Universal(),
					Query: sdl.Q(sdl.P(sdl.C(job), sdl.C(sdl.Int(int64(i))), sdl.C(sdl.Int(1)))),
				})
				returned[i] = time.Now()
				errs <- err
			}(i)
		}
		// Let every waiter run its first, failing evaluation and block.
		for sys.Engine.Stats().Attempts < uint64(p) {
			time.Sleep(100 * time.Microsecond)
		}
		for i := 0; i < noise; i++ {
			sys.Store.Assert(sdl.Environment, sdl.NewTuple(job, sdl.Int(int64(p+i)), sdl.Int(0)))
		}
		batch := make([]sdl.Tuple, p)
		for i := range batch {
			batch[i] = sdl.NewTuple(job, sdl.Int(int64(i)), sdl.Int(1))
		}
		release := time.Now()
		sys.Store.Assert(sdl.Environment, batch...)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				sys.Close()
				return 0, err
			}
		}
		for _, t := range returned {
			total += t.Sub(release)
		}
		sys.Close()
	}
	return meanUS(total, probeReps*p), nil
}
