package process

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
)

// settle polls cond until it holds, failing the test after d.
func settle(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after %v", what, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockedProcessesHoldNoGoroutines: a blocked process is its record,
// not a goroutine. Ten thousand processes parked on delayed guards raise the
// goroutine count by at most the worker pool (GOMAXPROCS); one releasing
// commit finishes all of them, and once the runtime and its manager are
// closed the count is back where it started — no worker leaks.
func TestBlockedProcessesHoldNoGoroutines(t *testing.T) {
	const n = 10000
	base := runtime.NumGoroutine()
	s := dataspace.New()
	rt := NewRuntime(txn.New(s), nil)
	closed := false
	defer func() {
		if !closed {
			rt.Shutdown()
			rt.Consensus().Close()
		}
	}()
	if err := rt.Define(&Definition{
		Name:   "Waiter",
		Params: []string{"i"},
		Body: []Stmt{Transact{
			Kind:    Delayed,
			Query:   pattern.Q(pattern.R(pattern.V("i"), pattern.C(atom("go")))),
			Asserts: []pattern.Pattern{pattern.P(pattern.V("i"), pattern.C(atom("done")))},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := rt.Spawn("Waiter", tuple.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, 30*time.Second, "every waiter blocked", func() bool {
		return s.Metrics().SubscriptionsLive().Value() == n
	})
	const slack = 2
	if got, max := runtime.NumGoroutine()-base, runtime.GOMAXPROCS(0)+slack; got > max {
		t.Errorf("%d blocked processes hold %d goroutines, want <= %d (the pool and slack)", n, got, max)
	}
	batch := make([]tuple.Tuple, n)
	for i := range batch {
		batch[i] = tuple.New(tuple.Int(int64(i)), atom("go"))
	}
	s.Assert(tuple.Environment, batch...)
	waitDone(t, rt, 30*time.Second)
	if got := s.Len(); got != n {
		t.Errorf("%d done tuples, want %d", got, n)
	}
	rt.Shutdown()
	rt.Consensus().Close()
	closed = true
	settle(t, 5*time.Second, "goroutines back to the count before the runtime", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestBusyProcessesDoNotStarveWokenProcess: weak fairness without
// preemption. Twice as many processes as workers spin in repetitions whose
// immediate guard always commits; a process whose delayed guard a commit
// enables must still run, because a process yields its worker at every
// transaction boundary while others are queued.
func TestBusyProcessesDoNotStarveWokenProcess(t *testing.T) {
	s, rt := newRuntime(t)
	s.Assert(tuple.Environment, tuple.New(atom("tick")))
	if err := rt.Define(&Definition{
		Name: "Spinner",
		Body: []Stmt{Repeat{Branches: []Branch{
			{Guard: Transact{Kind: Immediate, Query: pattern.Q(pattern.P(pattern.C(atom("tick"))))}},
			{Guard: Transact{Kind: Immediate, Query: pattern.Q(pattern.P(pattern.C(atom("stop")))),
				Actions: []Action{Exit{}}}},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Define(&Definition{
		Name: "Waiter",
		Body: []Stmt{Transact{
			Kind:    Delayed,
			Query:   pattern.Q(pattern.R(pattern.C(atom("go")))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(atom("went")))},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		if _, err := rt.Spawn("Spinner"); err != nil {
			t.Fatal(err)
		}
	}
	pid, err := rt.Spawn("Waiter")
	if err != nil {
		t.Fatal(err)
	}
	state := func() State {
		for _, pi := range rt.Society() {
			if pi.PID == pid {
				return pi.State
			}
		}
		return 0
	}
	settle(t, 10*time.Second, "the waiter blocked among the spinners", func() bool { return state() == StateBlockedDelayed })
	s.Assert(tuple.Environment, tuple.New(atom("go")))
	settle(t, 10*time.Second, "the woken waiter committed among the spinners", func() bool {
		n := 0
		s.Snapshot(func(r dataspace.Reader) {
			r.Scan(1, atom("went"), true, func(tuple.ID, tuple.Tuple) bool { n++; return true })
		})
		return n == 1
	})
	s.Assert(tuple.Environment, tuple.New(atom("stop")))
	waitDone(t, rt, 10*time.Second)
}

// barrierSink is a durable sink whose WaitDurable returns only once want
// commits wait in it together: a group fsync that needs all of them.
type barrierSink struct {
	mu      sync.Mutex
	cond    sync.Cond
	lsn     uint64
	waiting int
	want    int
}

func newBarrierSink(want int) *barrierSink {
	b := &barrierSink{want: want}
	b.cond.L = &b.mu
	return b
}

func (b *barrierSink) Append(dataspace.CommitRecord) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lsn++
	return b.lsn
}

func (b *barrierSink) WaitDurable(uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	b.cond.Broadcast()
	for b.waiting < b.want {
		b.cond.Wait()
	}
}

func (b *barrierSink) Blocking() bool { return true }

// release lets every wait through.
func (b *barrierSink) release() {
	b.mu.Lock()
	b.want = 0
	b.cond.Broadcast()
	b.mu.Unlock()
}

// TestSyncWaitDoesNotHoldWorkers: on a store whose commits wait for an
// fsync, a worker waiting for one does not hold up the queued processes,
// whose commits can then share the fsync. Each of 2·GOMAXPROCS+1 processes
// commits once into a sink that syncs only when all of them wait in it at
// once, which they can only if stand-in workers run the rest.
func TestSyncWaitDoesNotHoldWorkers(t *testing.T) {
	s, rt := newRuntime(t)
	s.Assert(tuple.Environment, tuple.New(atom("seed")))
	n := 2*runtime.GOMAXPROCS(0) + 1
	sink := newBarrierSink(n)
	s.SetDurable(sink)
	t.Cleanup(sink.release) // before the runtime's Shutdown, should the test fail
	if err := rt.Define(&Definition{
		Name:   "Committer",
		Params: []string{"i"},
		Body: []Stmt{Transact{
			Kind:    Immediate,
			Query:   pattern.Q(pattern.P(pattern.C(atom("seed")))),
			Asserts: []pattern.Pattern{pattern.P(pattern.V("i"), pattern.C(atom("done")))},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := rt.Spawn("Committer", tuple.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, rt, 10*time.Second)
	if got := s.Len(); got != n+1 {
		t.Errorf("%d tuples, want %d done and the seed", got, n+1)
	}
}
