package lang

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
)

// runFile executes one shipped .sdl example end to end and returns the
// final store.
func runFile(t *testing.T, path string) *dataspace.Store {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := dataspace.New()
	rt := process.NewRuntime(txn.New(s), nil)
	t.Cleanup(func() {
		rt.Shutdown()
		rt.Consensus().Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := LoadAndRun(ctx, rt, string(src)); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

func countLead(s *dataspace.Store, arity int, lead tuple.Value) int {
	n := 0
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(arity, lead, true, func(tuple.ID, tuple.Tuple) bool {
			n++
			return true
		})
	})
	return n
}

// Golden outcomes for every shipped example program.

func TestGoldenSum3(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "sum3.sdl"))
	if s.Len() != 1 {
		t.Fatalf("tuples left = %d", s.Len())
	}
	var sum int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			sum, _ = inst.Tuple.Field(1).AsInt()
			return false
		})
	})
	if sum != 360 {
		t.Errorf("sum = %d, want 360", sum)
	}
}

func TestGoldenProplist(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "proplist.sdl"))
	found := map[string]int64{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			tp := inst.Tuple
			if tp.Arity() != 3 {
				return true
			}
			tag, _ := tp.Field(0).AsAtom()
			if tag == "result" || tag == "found_fast" {
				prop, _ := tp.Field(1).AsAtom()
				v, _ := tp.Field(2).AsInt()
				found[tag+"/"+prop] = v
			}
			return true
		})
	})
	if found["result/weight"] != 99 {
		t.Errorf("Search result = %v", found)
	}
	if found["found_fast/size"] != 42 {
		t.Errorf("Find result = %v", found)
	}
}

func TestGoldenBarrier(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "barrier.sdl"))
	if got := countLead(s, 2, tuple.Atom("passed")); got != 3 {
		t.Errorf("passed tuples = %d, want 3", got)
	}
	// Every worker left its ready marker (the consensus reads, not
	// retracts, them).
	if got := countLead(s, 2, tuple.Atom("ready")); got != 3 {
		t.Errorf("ready tuples = %d, want 3", got)
	}
}

func TestGoldenPairing(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "pairing.sdl"))
	if got := countLead(s, 2, tuple.Atom("paired")); got != 3 {
		t.Errorf("paired = %d, want 3", got)
	}
	if got := countLead(s, 2, tuple.Atom("index")); got != 0 {
		t.Errorf("index left = %d, want 0", got)
	}
}

func TestGoldenSum1(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "sum1.sdl"))
	if s.Len() != 1 {
		t.Fatalf("tuples left = %d", s.Len())
	}
	var k, sum int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			k, _ = inst.Tuple.Field(0).AsInt()
			sum, _ = inst.Tuple.Field(1).AsInt()
			return false
		})
	})
	if k != 8 || sum != 36 {
		t.Errorf("result = <%d, %d>, want <8, 36>", k, sum)
	}
}

func TestGoldenSort(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "sort.sdl"))
	vals := map[int64]int64{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			if inst.Tuple.Arity() == 4 {
				id, _ := inst.Tuple.Field(0).AsInt()
				v, _ := inst.Tuple.Field(2).AsInt()
				vals[id] = v
			}
			return true
		})
	})
	if len(vals) != 4 {
		t.Fatalf("nodes = %d", len(vals))
	}
	for i := int64(1); i < 4; i++ {
		if vals[i] > vals[i+1] {
			t.Errorf("not sorted: %v", vals)
		}
	}
}

func TestGoldenPhilosophers(t *testing.T) {
	s := runFile(t, filepath.Join("..", "..", "examples", "sdl", "philosophers.sdl"))
	meals := map[int64]int{}
	s.Snapshot(func(r dataspace.Reader) {
		r.Scan(2, tuple.Atom("meal"), true, func(_ tuple.ID, tp tuple.Tuple) bool {
			id, _ := tp.Field(1).AsInt()
			meals[id]++
			return true
		})
	})
	if len(meals) != 5 {
		t.Fatalf("philosophers who ate = %d, want 5", len(meals))
	}
	for id, n := range meals {
		if n != 3 {
			t.Errorf("philosopher %d ate %d times, want 3", id, n)
		}
	}
	// All five forks are back on the table.
	if got := countLead(s, 2, tuple.Atom("fork")); got != 5 {
		t.Errorf("forks = %d, want 5", got)
	}
}
