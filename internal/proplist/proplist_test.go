package proplist

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/workload"
)

func newRT(t *testing.T) (*dataspace.Store, *process.Runtime) {
	t.Helper()
	s := dataspace.New()
	rt := process.NewRuntime(txn.New(s), nil)
	t.Cleanup(func() {
		rt.Shutdown()
		rt.Consensus().Close()
	})
	return s, rt
}

func waitRT(t *testing.T, rt *process.Runtime) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.WaitCtx(ctx); err != nil {
		t.Fatalf("wait: %v (running=%d)", err, rt.Running())
	}
	for _, err := range rt.Errors() {
		t.Errorf("process error: %v", err)
	}
}

func TestSearchFindsProperty(t *testing.T) {
	s, rt := newRT(t)
	nodes := workload.PropertyList(12, 3)
	workload.LoadPropertyList(s, nodes)
	if err := rt.Define(SearchDef()); err != nil {
		t.Fatal(err)
	}
	target := nodes[9]
	if _, err := rt.Spawn("Search", tuple.Int(nodes[0].ID), tuple.Atom(target.Name)); err != nil {
		t.Fatal(err)
	}
	waitRT(t, rt)
	val, found, present := Result(s, target.Name)
	if !present || !found || val != target.Value {
		t.Errorf("result = %d found=%v present=%v, want %d", val, found, present, target.Value)
	}
	// One process per visited node: 10 hops to reach node 10.
	if rt.SpawnCount() != 10 {
		t.Errorf("spawned = %d, want 10", rt.SpawnCount())
	}
}

func TestSearchNotFound(t *testing.T) {
	s, rt := newRT(t)
	nodes := workload.PropertyList(5, 3)
	workload.LoadPropertyList(s, nodes)
	if err := rt.Define(SearchDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Search", tuple.Int(1), tuple.Atom("nosuch")); err != nil {
		t.Fatal(err)
	}
	waitRT(t, rt)
	_, found, present := Result(s, "nosuch")
	if !present || found {
		t.Errorf("found=%v present=%v, want not_found", found, present)
	}
}

func TestFindContentAddressable(t *testing.T) {
	s, rt := newRT(t)
	nodes := workload.PropertyList(12, 3)
	workload.LoadPropertyList(s, nodes)
	if err := rt.Define(FindDef()); err != nil {
		t.Fatal(err)
	}
	target := nodes[7]
	if _, err := rt.Spawn("Find", tuple.Atom(target.Name)); err != nil {
		t.Fatal(err)
	}
	waitRT(t, rt)
	val, found, present := Result(s, target.Name)
	if !present || !found || val != target.Value {
		t.Errorf("result = %d, want %d", val, target.Value)
	}
	if rt.SpawnCount() != 1 {
		t.Errorf("spawned = %d, want 1 (no traversal)", rt.SpawnCount())
	}
}

func TestFindNotFound(t *testing.T) {
	s, rt := newRT(t)
	workload.LoadPropertyList(s, workload.PropertyList(4, 3))
	if err := rt.Define(FindDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Spawn("Find", tuple.Atom("missing")); err != nil {
		t.Fatal(err)
	}
	waitRT(t, rt)
	_, found, present := Result(s, "missing")
	if !present || found {
		t.Errorf("found=%v present=%v", found, present)
	}
}

func TestSortOrdersValuesAndTerminates(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16} {
		n := n
		t.Run(string(rune('a'+n%26)), func(t *testing.T) {
			s, rt := newRT(t)
			nodes := workload.PropertyList(n, int64(n)*7)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := RunSort(ctx, rt, nodes); err != nil {
				t.Fatal(err)
			}
			got, err := Values(s, n)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, n)
			copy(want, got)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("not sorted: %v", got)
				}
			}
			// The payload multiset must be preserved.
			orig := make([]int64, 0, n)
			for _, nd := range nodes {
				orig = append(orig, nd.Value)
			}
			sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
			for i := range orig {
				if orig[i] != want[i] {
					t.Fatalf("values changed: got %v want %v", want, orig)
				}
			}
			if fires := rt.Consensus().Fires(); n > 1 && fires != 1 {
				t.Errorf("consensus fires = %d, want 1", fires)
			}
		})
	}
}

func TestValuesErrorOnMissingNodes(t *testing.T) {
	s, _ := newRT(t)
	if _, err := Values(s, 3); err == nil {
		t.Error("Values on empty store should fail")
	}
}
