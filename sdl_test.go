package sdl

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestSystemQuickFlow(t *testing.T) {
	sys := New(Options{Trace: -1})
	defer sys.Close()

	sys.Store.Assert(Environment, NewTuple(Atom("year"), Int(85)), NewTuple(Atom("year"), Int(90)))

	// The paper's immediate transaction through the facade.
	res, err := sys.Immediate(Request{
		Proc: 1,
		View: Universal(),
		Query: Q(R(C(Atom("year")), V("a"))).
			Where(Gt(X("a"), Lit(Int(87)))),
		Asserts: []Pattern{P(C(Atom("found")), V("a"))},
	})
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	found := sys.CollectInt(Atom("found"))
	if len(found) != 1 || found[0] != 90 {
		t.Errorf("found = %v", found)
	}
	if sys.Recorder == nil || sys.Recorder.Len() == 0 {
		t.Error("recorder did not observe the run")
	}
}

func TestSystemRunProcess(t *testing.T) {
	sys := New(Options{})
	defer sys.Close()

	if err := sys.Define(&Definition{
		Name:   "Emit",
		Params: []string{"n"},
		Body: []Stmt{Transact{
			Kind:    Immediate,
			Query:   Query{Quant: Exists},
			Asserts: []Pattern{P(C(Atom("out")), V("n"))},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sys.Run(ctx, "Emit", Int(7)); err != nil {
		t.Fatal(err)
	}
	got := sys.CollectInt(Atom("out"))
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("out = %v", got)
	}
}

func TestSystemDelayedFacade(t *testing.T) {
	sys := New(Options{})
	defer sys.Close()

	done := make(chan []int64, 1)
	go func() {
		res, err := sys.Delayed(context.Background(), Request{
			Proc:  2,
			View:  Universal(),
			Query: Q(R(C(Atom("in")), V("x"))),
			Asserts: []Pattern{P(C(Atom("echo")),
				E(Mul(X("x"), Lit(Int(2)))))},
		})
		if err != nil || !res.OK {
			t.Errorf("res=%+v err=%v", res, err)
		}
		done <- sys.CollectInt(Atom("echo"))
	}()
	time.Sleep(10 * time.Millisecond)
	sys.Store.Assert(Environment, NewTuple(Atom("in"), Int(21)))
	select {
	case got := <-done:
		if len(got) != 1 || got[0] != 42 {
			t.Errorf("echo = %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed transaction never fired")
	}
}

func TestSystemMultipleDefinitionsAndCollect(t *testing.T) {
	sys := New(Options{})
	defer sys.Close()

	emit := func(name string, v int64) *Definition {
		return &Definition{
			Name: name,
			Body: []Stmt{Transact{
				Kind:    Immediate,
				Query:   Query{Quant: Exists},
				Asserts: []Pattern{P(C(Atom("out")), C(Int(v)))},
			}},
		}
	}
	if err := sys.Define(emit("A", 1), emit("B", 2)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Define(emit("A", 9)); err == nil {
		t.Error("duplicate definition should fail")
	}
	if _, err := sys.SpawnVals("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SpawnVals("B"); err != nil {
		t.Fatal(err)
	}
	sys.Runtime.Wait()
	got := sys.CollectInt(Atom("out"))
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("out = %v", got)
	}
}

func TestSystemCloseReleasesGoroutines(t *testing.T) {
	// Creating and closing many systems must not leak goroutines
	// (process workers, watcher loops).
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		sys := New(Options{Trace: 16})
		_ = sys.Define(&Definition{
			Name: "P",
			Body: []Stmt{Transact{
				Kind:  Delayed,
				Query: Q(P(C(Atom("never")))),
			}},
		})
		_, _ = sys.SpawnVals("P")
		w := NewWatcher(sys.Store, time.Millisecond, func(Reader) {})
		time.Sleep(time.Millisecond)
		w.Stop()
		sys.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: base=%d now=%d", base, runtime.NumGoroutine())
}
