package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/sdl-lang/sdl/internal/arraysum"
	"github.com/sdl-lang/sdl/internal/consensus"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/linda"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/proplist"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/regionlabel"
	"github.com/sdl-lang/sdl/internal/sched"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
	"github.com/sdl-lang/sdl/internal/wal"
	"github.com/sdl-lang/sdl/internal/workload"
)

const seed = 1988 // the paper's year, used as the global workload seed

func newRT() *process.Runtime {
	return process.NewRuntime(txn.New(dataspace.New()), nil)
}

func closeRT(rt *process.Runtime) {
	rt.Shutdown()
	rt.Consensus().Close()
}

// E1ArraySum compares the three §3.1 summation programs.
func E1ArraySum(ctx context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "array summation: Sum1 (consensus phases) vs Sum2 (delayed) vs Sum3 (replication)",
		Note:  `"We find the third solution preferable … minimal control constraints"`,
	}
	type variant struct {
		name string
		run  func(context.Context, *process.Runtime, int, int64) (int64, error)
	}
	variants := []variant{
		{"Sum1", arraysum.RunSum1},
		{"Sum2", arraysum.RunSum2},
		{"Sum3", arraysum.RunSum3},
	}
	for _, n := range sizes {
		row := Row{Config: fmt.Sprintf("n=%d", n)}
		_, want := workload.Array(n, seed)
		for _, v := range variants {
			rt := newRT()
			var got int64
			d, err := timeIt(func() error {
				var err error
				got, err = v.run(ctx, rt, n, seed)
				return err
			})
			closeRT(rt)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", v.name, n, err)
			}
			if got != want {
				return nil, fmt.Errorf("E1 %s n=%d: sum %d, want %d", v.name, n, got, want)
			}
			row.Metrics = append(row.Metrics, Ms(v.name, d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E2PropertyList compares Search (process-per-hop traversal) against Find
// (content-addressable lookup) for the last property of the list.
func E2PropertyList(ctx context.Context, lengths []int) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "property list: Search (simulated recursion) vs Find (content-addressable)",
		Note:  `"It is unlikely the programmer would simulate the recursion when the language permits one to address data by contents"`,
	}
	for _, l := range lengths {
		nodes := workload.PropertyList(l, seed)
		target := nodes[l-1] // worst case: tail of the list
		row := Row{Config: fmt.Sprintf("L=%d", l)}

		for _, variant := range []string{"Search", "Find"} {
			rt := newRT()
			workload.LoadPropertyList(rt.Engine().Store(), nodes)
			var def *process.Definition
			var args []tuple.Value
			if variant == "Search" {
				def = proplist.SearchDef()
				args = []tuple.Value{tuple.Int(nodes[0].ID), tuple.Atom(target.Name)}
			} else {
				def = proplist.FindDef()
				args = []tuple.Value{tuple.Atom(target.Name)}
			}
			if err := rt.Define(def); err != nil {
				closeRT(rt)
				return nil, err
			}
			d, err := timeIt(func() error {
				if _, err := rt.Spawn(def.Name, args...); err != nil {
					return err
				}
				return rt.WaitCtx(ctx)
			})
			if err == nil {
				if errs := rt.Errors(); len(errs) > 0 {
					err = errs[0]
				}
			}
			if err == nil {
				val, found, present := proplist.Result(rt.Engine().Store(), target.Name)
				if !present || !found || val != target.Value {
					err = fmt.Errorf("wrong result %d/%v/%v", val, found, present)
				}
			}
			spawned := rt.SpawnCount()
			closeRT(rt)
			if err != nil {
				return nil, fmt.Errorf("E2 %s L=%d: %w", variant, l, err)
			}
			row.Metrics = append(row.Metrics, Ms(variant, d))
			if variant == "Search" {
				row.Metrics = append(row.Metrics, Count("Search procs", float64(spawned), "procs"))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E3SortConsensus measures the distributed sort with consensus-detected
// termination.
func E3SortConsensus(ctx context.Context, lengths []int) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "property-list sort with consensus termination",
		Note:  `"the consensus transaction … specifies the termination of a distributed computation"`,
	}
	for _, l := range lengths {
		nodes := workload.PropertyList(l, seed)
		rt := newRT()
		d, err := timeIt(func() error {
			return proplist.RunSort(ctx, rt, nodes)
		})
		if err == nil {
			if _, verr := proplist.Values(rt.Engine().Store(), l); verr != nil {
				err = verr
			}
		}
		fires := rt.Consensus().Fires()
		closeRT(rt)
		if err != nil {
			return nil, fmt.Errorf("E3 L=%d: %w", l, err)
		}
		t.Rows = append(t.Rows, Row{
			Config: fmt.Sprintf("L=%d", l),
			Metrics: []Metric{
				Ms("sort", d),
				Count("consensus fires", float64(fires), "fires"),
			},
		})
	}
	return t, nil
}

// E4RegionLabel compares the worker and community labeling models.
func E4RegionLabel(ctx context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "region labeling: worker model vs community model",
		Note:  `"labeled regions are not available … until the entire program completes" (worker); the community model signals per-region completion`,
	}
	const cut = 100
	for _, w := range sizes {
		im := workload.GenImage(w, w, 3, seed)
		ref := workload.ReferenceLabels(im, cut)
		row := Row{Config: fmt.Sprintf("%dx%d (%d regions)", w, w, workload.RegionCount(ref))}

		rtW := newRT()
		resW, err := regionlabel.RunWorker(ctx, rtW, im, cut)
		closeRT(rtW)
		if err != nil {
			return nil, fmt.Errorf("E4 worker %d: %w", w, err)
		}
		rtC := newRT()
		resC, err := regionlabel.RunCommunity(ctx, rtC, im, cut)
		closeRT(rtC)
		if err != nil {
			return nil, fmt.Errorf("E4 community %d: %w", w, err)
		}
		for _, run := range []struct {
			model  string
			labels []int64
		}{{"worker", resW.Labels}, {"community", resC.Labels}} {
			for p := range ref {
				if run.labels[p] != ref[p] {
					return nil, fmt.Errorf("E4 %d: %s model labeling mismatch at pixel %d\n  got  %v\n  want %v",
						w, run.model, p, run.labels, ref)
				}
			}
		}
		row.Metrics = append(row.Metrics,
			Ms("worker total", resW.Total),
			Ms("community total", resC.Total),
			Ms("worker first-region", resW.FirstRegion),
			Ms("community first-region", resC.FirstRegion),
		)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E5ViewScoping measures transaction latency with and without a
// lead-bounded view while the dataspace fills with irrelevant tuples.
func E5ViewScoping(_ context.Context, backgroundSizes []int) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "view-bounded transaction scope vs dataspace size",
		Note:  `"the view also provides bounds on the scope of the transactions which, in turn, reduce the transaction execution time"`,
	}
	const workSet = 64
	const reps = 200
	restricted := view.New(
		view.Union(view.Pat(pattern.P(pattern.C(tuple.Atom("work")), pattern.W()))),
		view.Everything(),
	)
	// The query's leading field is a variable, so without a view the scan
	// covers the whole arity-2 population.
	query := pattern.Q(pattern.P(pattern.V("tag"), pattern.V("v"))).
		Where(expr.Eq(expr.V("tag"), expr.Const(tuple.Atom("work"))))

	for _, bg := range backgroundSizes {
		s := dataspace.New()
		e := txn.New(s)
		for i := 0; i < workSet; i++ {
			s.Assert(tuple.Environment, tuple.New(tuple.Atom("work"), tuple.Int(int64(i))))
		}
		for i := 0; i < bg; i++ {
			s.Assert(tuple.Environment, tuple.New(tuple.Atom(fmt.Sprintf("noise%d", i%997)), tuple.Int(int64(i))))
		}
		measure := func(v view.View) (time.Duration, error) {
			return timeIt(func() error {
				for i := 0; i < reps; i++ {
					res, err := e.Immediate(txn.Request{Proc: 1, View: v, Query: query})
					if err != nil {
						return err
					}
					if !res.OK {
						return fmt.Errorf("query failed")
					}
				}
				return nil
			})
		}
		full, err := measure(view.Universal())
		if err != nil {
			return nil, fmt.Errorf("E5 full bg=%d: %w", bg, err)
		}
		bounded, err := measure(restricted)
		if err != nil {
			return nil, fmt.Errorf("E5 view bg=%d: %w", bg, err)
		}
		t.Rows = append(t.Rows, Row{
			Config: fmt.Sprintf("|D|=%d", bg+workSet),
			Metrics: []Metric{
				{Name: "full view", Value: float64(full.Microseconds()) / reps, Unit: "us/txn"},
				{Name: "bounded view", Value: float64(bounded.Microseconds()) / reps, Unit: "us/txn"},
				{Name: "speedup", Value: float64(full) / float64(bounded), Unit: "x"},
			},
		})
	}
	return t, nil
}

// E6ConsensusScale measures the time to detect and fire an all-process
// consensus as the society grows.
func E6ConsensusScale(ctx context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "consensus (quiescence) detection vs society size",
		Note:  `"Determination that consensus has been reached is very similar to the quiescence detection problem"`,
	}
	for _, p := range sizes {
		s := dataspace.New()
		e := txn.New(s)
		m := consensus.NewManager(e)
		s.Assert(tuple.Environment, tuple.New(tuple.Atom("shared"), tuple.Int(1)))
		for i := 1; i <= p; i++ {
			m.Register(tuple.ProcessID(i), view.Universal(), nil)
		}
		var wg sync.WaitGroup
		var firstErr error
		var mu sync.Mutex
		d, err := timeIt(func() error {
			for i := 1; i <= p; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, err := m.Offer(ctx, txn.Request{
						Proc:  tuple.ProcessID(i),
						View:  view.Universal(),
						Query: pattern.Query{Quant: pattern.Exists},
					})
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}(i)
			}
			wg.Wait()
			return firstErr
		})
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("E6 p=%d: %w", p, err)
		}
		snap := s.Metrics().Snapshot()
		t.Rows = append(t.Rows, Row{
			Config: fmt.Sprintf("P=%d", p),
			Metrics: []Metric{
				Ms("barrier", d),
				Count("detect rounds", float64(snap.ConsensusRounds), "rounds"),
				Count("community", snap.ConsensusCommunity.Mean(), "procs"),
			},
		})
	}
	return t, nil
}

// E7LindaVsSDL compares compound read-modify-write throughput: Linda's
// in/out composition against one SDL transaction, under contention.
func E7LindaVsSDL(ctx context.Context, workerCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Linda in/out composition vs one SDL transaction (counter RMW)",
		Note:  `"Linda provides processes with very simple dataspace access primitives (read, assert, and retract one tuple at a time)"`,
	}
	const opsPerWorker = 500
	ctr := tuple.Atom("counter")
	for _, workers := range workerCounts {
		total := int64(workers * opsPerWorker)

		// Linda: In (blocks/retracts) then Out.
		sp := linda.NewSpace()
		sp.Out(tuple.New(ctr, tuple.Int(0)))
		dLinda, err := timeIt(func() error {
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tmpl := linda.T().Actual(ctr).Formal("n")
					for i := 0; i < opsPerWorker; i++ {
						tp, err := sp.In(ctx, tmpl)
						if err != nil {
							errCh <- err
							return
						}
						n, _ := tp.Field(1).AsInt()
						sp.Out(tuple.New(ctr, tuple.Int(n+1)))
					}
				}()
			}
			wg.Wait()
			close(errCh)
			return <-errCh
		})
		if err != nil {
			return nil, fmt.Errorf("E7 linda w=%d: %w", workers, err)
		}
		if got, ok := sp.Inp(linda.T().Actual(ctr).Formal("n")); !ok {
			return nil, fmt.Errorf("E7 linda: counter missing")
		} else if n, _ := got.Field(1).AsInt(); n != total {
			return nil, fmt.Errorf("E7 linda: counter %d, want %d", n, total)
		}

		// SDL: one atomic transaction per increment.
		s := dataspace.New()
		e := txn.New(s)
		s.Assert(tuple.Environment, tuple.New(ctr, tuple.Int(0)))
		req := txn.Request{
			Proc:  1,
			View:  view.Universal(),
			Query: pattern.Q(pattern.R(pattern.C(ctr), pattern.V("n"))),
			Asserts: []pattern.Pattern{pattern.P(pattern.C(ctr),
				pattern.E(expr.Add(expr.V("n"), expr.Const(tuple.Int(1)))))},
		}
		dSDL, err := timeIt(func() error {
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						if _, err := e.Delayed(ctx, req); err != nil {
							errCh <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			return <-errCh
		})
		if err != nil {
			return nil, fmt.Errorf("E7 sdl w=%d: %w", workers, err)
		}
		// Compound atomicity: transfer between two of 16 account tuples.
		// Linda must retract both (acquiring in account order to avoid
		// deadlock) and re-assert both — four primitives and a locking
		// discipline; SDL is one two-pattern transaction.
		const accounts = 16
		acct := tuple.Atom("acct")
		spT := linda.NewSpace()
		for i := 0; i < accounts; i++ {
			spT.Out(tuple.New(acct, tuple.Int(int64(i)), tuple.Int(100)))
		}
		dLindaT, err := timeIt(func() error {
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						a := int64((w + i) % accounts)
						b := int64((w + i + 1 + i%7) % accounts)
						if a == b {
							continue
						}
						lo, hi := a, b
						if lo > hi {
							lo, hi = hi, lo
						}
						t1, err := spT.In(ctx, linda.T().Actual(acct).Actual(tuple.Int(lo)).Formal("x"))
						if err != nil {
							errCh <- err
							return
						}
						t2, err := spT.In(ctx, linda.T().Actual(acct).Actual(tuple.Int(hi)).Formal("y"))
						if err != nil {
							errCh <- err
							return
						}
						v1, _ := t1.Field(2).AsInt()
						v2, _ := t2.Field(2).AsInt()
						if lo == a {
							v1, v2 = v1-1, v2+1
						} else {
							v1, v2 = v1+1, v2-1
						}
						spT.Out(tuple.New(acct, tuple.Int(lo), tuple.Int(v1)))
						spT.Out(tuple.New(acct, tuple.Int(hi), tuple.Int(v2)))
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			return <-errCh
		})
		if err != nil {
			return nil, fmt.Errorf("E7 linda transfer w=%d: %w", workers, err)
		}

		sT := dataspace.New()
		eT := txn.New(sT)
		for i := 0; i < accounts; i++ {
			sT.Assert(tuple.Environment, tuple.New(acct, tuple.Int(int64(i)), tuple.Int(100)))
		}
		dSDLT, err := timeIt(func() error {
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						a := int64((w + i) % accounts)
						b := int64((w + i + 1 + i%7) % accounts)
						if a == b {
							continue
						}
						_, err := eT.Delayed(ctx, txn.Request{
							Proc: tuple.ProcessID(w + 1),
							View: view.Universal(),
							Query: pattern.Q(
								pattern.R(pattern.C(acct), pattern.C(tuple.Int(a)), pattern.V("x")),
								pattern.R(pattern.C(acct), pattern.C(tuple.Int(b)), pattern.V("y")),
							),
							Asserts: []pattern.Pattern{
								pattern.P(pattern.C(acct), pattern.C(tuple.Int(a)),
									pattern.E(expr.Sub(expr.V("x"), expr.Const(tuple.Int(1))))),
								pattern.P(pattern.C(acct), pattern.C(tuple.Int(b)),
									pattern.E(expr.Add(expr.V("y"), expr.Const(tuple.Int(1))))),
							},
						})
						if err != nil {
							errCh <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			return <-errCh
		})
		if err != nil {
			return nil, fmt.Errorf("E7 sdl transfer w=%d: %w", workers, err)
		}
		// Conservation check on both kernels.
		var lindaSum, sdlSum int64
		for i := 0; i < accounts; i++ {
			tp, ok := spT.Inp(linda.T().Actual(acct).Actual(tuple.Int(int64(i))).Formal("v"))
			if !ok {
				return nil, fmt.Errorf("E7 linda transfer: account %d missing", i)
			}
			v, _ := tp.Field(2).AsInt()
			lindaSum += v
		}
		sT.Snapshot(func(r dataspace.Reader) {
			r.Each(func(inst dataspace.Instance) bool {
				v, _ := inst.Tuple.Field(2).AsInt()
				sdlSum += v
				return true
			})
		})
		if lindaSum != accounts*100 || sdlSum != accounts*100 {
			return nil, fmt.Errorf("E7 transfer: money not conserved (linda=%d sdl=%d)", lindaSum, sdlSum)
		}

		t.Rows = append(t.Rows, Row{
			Config: fmt.Sprintf("workers=%d ops=%d", workers, total),
			Metrics: []Metric{
				{Name: "Linda ctr", Value: float64(total) / dLinda.Seconds() / 1000, Unit: "kops/s"},
				{Name: "SDL ctr", Value: float64(total) / dSDL.Seconds() / 1000, Unit: "kops/s"},
				{Name: "Linda xfer", Value: float64(total) / dLindaT.Seconds() / 1000, Unit: "kops/s"},
				{Name: "SDL xfer", Value: float64(total) / dSDLT.Seconds() / 1000, Unit: "kops/s"},
			},
		})
	}
	return t, nil
}

// E8SocietyScale measures spawning and waking large societies of blocked
// processes — the paper's "many thousands of concurrent processes". A
// blocked process costs its heap: its record, its answer and the answer's
// armed subscription. It holds no goroutine; the stack column, the growth
// of goroutine stacks over the spawn phase, shows the worker pool's few.
func E8SocietyScale(ctx context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "society scale: blocked-process count vs spawn time, wake time, heap and stack per process",
		Note:  `"programs involving many thousands of concurrent processes"`,
	}
	for _, p := range sizes {
		rt := newRT()
		// Waiter(i): one delayed transaction on its own key.
		if err := rt.Define(&process.Definition{
			Name:   "Waiter",
			Params: []string{"i"},
			Body: []process.Stmt{process.Transact{
				Kind:  process.Delayed,
				Query: pattern.Q(pattern.R(pattern.V("i"), pattern.C(tuple.Atom("go")))),
				Asserts: []pattern.Pattern{pattern.P(
					pattern.V("i"), pattern.C(tuple.Atom("done")))},
			}},
		}); err != nil {
			closeRT(rt)
			return nil, err
		}
		// Each heap reading follows two collections: the first moves what
		// the pools keep (sync.Pool) to their victim caches and the second
		// frees it, so neither reading counts a pool's spares — before the
		// spawn, the previous size's released answers.
		var before, after runtime.MemStats
		collect := func(ms *runtime.MemStats) {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(ms)
		}
		collect(&before)
		dSpawn, err := timeIt(func() error {
			for i := 0; i < p; i++ {
				if _, err := rt.Spawn("Waiter", tuple.Int(int64(i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			closeRT(rt)
			return nil, fmt.Errorf("E8 spawn p=%d: %w", p, err)
		}
		// Let the society block: every Waiter has armed its wait's
		// subscription, so that the heap column is what a blocked society
		// keeps live.
		for subs := rt.Engine().Metrics().SubscriptionsLive(); subs.Value() != int64(p); {
			if err := ctx.Err(); err != nil {
				closeRT(rt)
				return nil, fmt.Errorf("E8 block p=%d: %w", p, err)
			}
			runtime.Gosched()
		}
		collect(&after)
		heap := float64(after.HeapAlloc-before.HeapAlloc) / float64(p)
		stack := float64(after.StackInuse-before.StackInuse) / float64(p)

		s := rt.Engine().Store()
		dWake, err := timeIt(func() error {
			batch := make([]tuple.Tuple, 0, p)
			for i := 0; i < p; i++ {
				batch = append(batch, tuple.New(tuple.Int(int64(i)), tuple.Atom("go")))
			}
			s.Assert(tuple.Environment, batch...)
			return rt.WaitCtx(ctx)
		})
		if err != nil {
			closeRT(rt)
			return nil, fmt.Errorf("E8 wake p=%d: %w", p, err)
		}
		if s.Len() != p {
			closeRT(rt)
			return nil, fmt.Errorf("E8 p=%d: %d done tuples, want %d", p, s.Len(), p)
		}
		closeRT(rt)
		t.Rows = append(t.Rows, Row{
			Config: fmt.Sprintf("P=%d", p),
			Metrics: []Metric{
				Ms("spawn all", dSpawn),
				Ms("wake+drain all", dWake),
				{Name: "heap/proc", Value: heap / 1024, Unit: "KiB"},
				{Name: "stack/proc", Value: stack / 1024, Unit: "KiB"},
				{Name: "heap+stack/proc", Value: (heap + stack) / 1024, Unit: "KiB"},
			},
		})
	}
	return t, nil
}

// E10WakeupIndex is the ablation for DESIGN.md decision 2: interest-keyed
// wakeups vs waking every blocked transaction on every commit. P processes
// block on distinct keys while a writer commits `noise` unrelated tuples;
// keyed wakeups should leave the waiters asleep (zero spurious
// re-evaluations), while broad wakeups re-evaluate all P waiters on every
// commit. The broad arm is the spurious-wakeup fault at probability
// 255/256, which wakes every subscription in every shard for a re-query.
func E10WakeupIndex(ctx context.Context, waiterCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "ablation: interest-keyed vs broad delayed-transaction wakeups",
		Note:  "design decision 2 in DESIGN.md; broad = the spurious-wakeup fault on (nearly) every commit",
	}
	const noise = 300
	for _, p := range waiterCounts {
		row := Row{Config: fmt.Sprintf("waiters=%d noise=%d", p, noise)}
		for _, sc := range []*sched.Controller{nil, sched.New(seed, sched.Faults{SpuriousWakeup: 255})} {
			broad := sc != nil
			s := dataspace.New(dataspace.WithScheduler(sc))
			// Both variants observed, so the gated fan-out histogram records
			// and the timing handicap (one clock-free histogram update per
			// commit) is identical on each side of the ablation.
			s.Metrics().SetObserved(true)
			e := txn.New(s)
			var wg sync.WaitGroup
			errCh := make(chan error, p)
			for i := 0; i < p; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, err := e.Delayed(ctx, txn.Request{
						Proc:  tuple.ProcessID(i + 1),
						View:  view.Universal(),
						Query: pattern.Q(pattern.R(pattern.C(tuple.Int(int64(i))), pattern.C(tuple.Atom("go")))),
					})
					if err != nil {
						errCh <- err
					}
				}(i)
			}
			// Let every waiter evaluate, fail and block. A block is counted
			// once the waiter's first read is done; an attempt is counted
			// before it reads, and a waiter descheduled there would read
			// after the release. No commit precedes the noise, so the broad
			// arm's spurious wakeups cannot add blocks before then.
			for s.Metrics().Snapshot().Txn["delayed"].Blocks < uint64(p) {
				runtime.Gosched()
			}
			d, err := timeIt(func() error {
				for i := 0; i < noise; i++ {
					s.Assert(tuple.Environment, tuple.New(tuple.Atom("noise"), tuple.Int(int64(i))))
					// Let woken waiters re-register between commits, as
					// they would under real interleaving.
					runtime.Gosched()
				}
				// Release everyone and drain.
				batch := make([]tuple.Tuple, 0, p)
				for i := 0; i < p; i++ {
					batch = append(batch, tuple.New(tuple.Int(int64(i)), tuple.Atom("go")))
				}
				s.Assert(tuple.Environment, batch...)
				wg.Wait()
				close(errCh)
				return <-errCh
			})
			if err != nil {
				return nil, fmt.Errorf("E10 broad=%v p=%d: %w", broad, p, err)
			}
			name := "keyed"
			if broad {
				name = "broad"
			}
			st := e.Stats()
			row.Metrics = append(row.Metrics,
				Ms(name, d),
				Count(name+" wakeups", float64(st.Wakeups), "wakeups"),
				Count(name+" fan-out", s.Metrics().Snapshot().WakeupFanout.Mean(), "waiters"),
			)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E11JoinPlanner is the ablation for the query matcher's join planner: a
// region-labeling-style propagation query written in an unfavourable order
// (the unbounded label scan first, the parameter-led pattern last) is
// issued against stores of growing size, planned by the engine and in
// written order by refmodel.Solutions over the same instances. That
// enumerator clones an environment for about 2n² candidates here, so it
// runs only up to writtenMaxN.
func E11JoinPlanner(_ context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "ablation: join planner (boundness ordering) on a propagation query",
		Note:  "the 'sophisticated language implementation' §3.1 calls for; written order = refmodel.Solutions, n ≤ 1000",
	}
	const reps, writtenReps, writtenMaxN = 100, 3, 1000
	label := tuple.Atom("label")
	// Propagation for pixel r, written label-scan-first: find a neighbour q
	// of r whose label exceeds r's.
	q := pattern.Q(
		pattern.P(pattern.V("q"), pattern.C(label), pattern.V("lq")),
		pattern.P(pattern.V("r"), pattern.C(label), pattern.V("lr")).
			Guarded(expr.Lt(expr.V("lr"), expr.V("lq"))),
		pattern.P(pattern.V("r"), pattern.V("q")),
	)
	env := expr.Env{"r": tuple.Int(3)}
	for _, n := range sizes {
		s := dataspace.New()
		e := txn.New(s)
		for i := int64(0); i < int64(n); i++ {
			s.Assert(tuple.Environment,
				tuple.New(tuple.Int(i), label, tuple.Int(i)),
				tuple.New(tuple.Int(i), tuple.Int((i+1)%int64(n))),
			)
		}
		model, _ := refmodel.ReplayFrom(s.All(), 0, nil) // no records to reject
		window := model.All()
		req := txn.Request{Proc: 1, View: view.Universal(), Env: env, Query: q}
		arms := []struct {
			name   string
			reps   int
			solved func() (bool, error)
		}{
			{"written order", writtenReps, func() (bool, error) {
				sols, err := refmodel.Solutions(q, window, env)
				return len(sols) > 0, err
			}},
			{"planned", reps, func() (bool, error) {
				res, err := e.Immediate(req)
				return res.OK, err
			}},
		}
		if n > writtenMaxN {
			arms = arms[1:]
		}
		row := Row{Config: fmt.Sprintf("n=%d", n)}
		for _, arm := range arms {
			d, err := timeIt(func() error {
				for i := 0; i < arm.reps; i++ {
					if ok, err := arm.solved(); err != nil || !ok {
						return fmt.Errorf("propagation query: ok=%v, err %v", ok, err)
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("E11 %s n=%d: %w", arm.name, n, err)
			}
			row.Metrics = append(row.Metrics, Metric{
				Name: arm.name, Value: float64(d.Microseconds()) / float64(arm.reps), Unit: "us/txn"})
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// shardedRMW runs the E12 keyed read-modify-write workload over a loaded
// property list: `workers` goroutines each issue `opsPerWorker` Immediate
// transactions, every one naming its node by ID. The constant lead keys
// the transaction's footprint to one shard, so transactions on different
// nodes hold different shard locks and commit in parallel. Returns the
// wall time; verifies that every increment landed exactly once.
func shardedRMW(e *txn.Engine, s *dataspace.Store, nodes []workload.PropertyNode,
	workers, opsPerWorker int) (time.Duration, error) {
	var initSum int64
	for _, nd := range nodes {
		initSum += nd.Value
	}
	n := len(nodes)
	d, err := timeIt(func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					id := int64((w*opsPerWorker+i)%n) + 1
					_, err := e.Immediate(txn.Request{
						Proc: tuple.ProcessID(w + 1),
						View: view.Universal(),
						Query: pattern.Q(pattern.R(
							pattern.C(tuple.Int(id)), pattern.V("p"), pattern.V("v"), pattern.V("x"))),
						Asserts: []pattern.Pattern{pattern.P(
							pattern.C(tuple.Int(id)), pattern.V("p"),
							pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))),
							pattern.V("x"))},
					})
					if err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	})
	if err != nil {
		return 0, err
	}
	var gotSum int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			v, _ := inst.Tuple.Field(2).AsInt()
			gotSum += v
			return true
		})
	})
	total := int64(workers * opsPerWorker)
	if gotSum != initSum+total {
		return 0, fmt.Errorf("value sum %d, want %d (lost or duplicated increments)",
			gotSum, initSum+total)
	}
	return d, nil
}

// E12ShardScaling measures the sharded store at shard counts 1, 4, and 16
// on two workloads: a keyed read-modify-write sweep over the §3.2 property
// list (every transaction names its node, so its footprint is one shard
// and disjoint transactions commit in parallel), and the §3.1 Sum3
// replication program end to end. Shard-count gains require hardware
// parallelism: with GOMAXPROCS=1 the counts should tie to within noise,
// while at GOMAXPROCS>=4 the keyed workload scales with the shard count
// until it saturates the cores.
func E12ShardScaling(ctx context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "sharded dataspace: shard count vs throughput (keyed RMW + Sum3)",
		Note:  `"large-scale concurrency … a large number of processes making progress simultaneously" — per-shard locks let disjoint-footprint transactions commit in parallel`,
	}
	shardCounts := []int{1, 4, 16}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const opsPerWorker = 2000
	for _, n := range sizes {
		row := Row{Config: fmt.Sprintf("n=%d workers=%d", n, workers)}
		nodes := workload.PropertyList(n, seed)
		_, want := workload.Array(n, seed)
		for _, sc := range shardCounts {
			s := dataspace.New(dataspace.WithShards(sc))
			workload.LoadPropertyList(s, nodes)
			d, err := shardedRMW(txn.New(s), s, nodes, workers, opsPerWorker)
			if err != nil {
				return nil, fmt.Errorf("E12 rmw shards=%d n=%d: %w", sc, n, err)
			}
			total := float64(workers * opsPerWorker)
			// Always-on shard counters (the gated histograms stay off so the
			// timing matches unobserved production runs).
			_, writeLocks := s.Metrics().Snapshot().ShardLockTotals()
			row.Metrics = append(row.Metrics,
				Metric{
					Name:  fmt.Sprintf("RMW s=%d", sc),
					Value: total / d.Seconds() / 1000,
					Unit:  "kops/s",
				},
				Metric{
					Name:  fmt.Sprintf("wlocks s=%d", sc),
					Value: float64(writeLocks) / total,
					Unit:  "locks/op",
				})
		}
		for _, sc := range shardCounts {
			rt := process.NewRuntime(
				txn.New(dataspace.New(dataspace.WithShards(sc))), nil)
			var got int64
			d, err := timeIt(func() error {
				var err error
				got, err = arraysum.RunSum3(ctx, rt, n, seed)
				return err
			})
			closeRT(rt)
			if err != nil {
				return nil, fmt.Errorf("E12 Sum3 shards=%d n=%d: %w", sc, n, err)
			}
			if got != want {
				return nil, fmt.Errorf("E12 Sum3 shards=%d n=%d: sum %d, want %d", sc, n, got, want)
			}
			row.Metrics = append(row.Metrics, Ms(fmt.Sprintf("Sum3 s=%d", sc), d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E14DurableUpserts measures the durability tax: the E13 disjoint-key
// upsert workload with the write-ahead log attached under each fsync
// policy, against the volatile baseline. SyncBatch makes every commit
// durable before it is visible but shares one fsync across the whole group
// that was waiting, so its throughput recovers much of the volatile rate;
// SyncInterval bounds loss by wall-clock and never blocks a commit. The
// syncs/op column shows the amortization directly.
func E14DurableUpserts(_ context.Context, opsPerWorkerCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "durable upserts: WAL fsync policies vs volatile baseline (disjoint-key upserts)",
		Note:  "durable-before-visible: a commit's waiters and consensus signals fire only after its log record is fsynced; group commit shares one fsync across concurrent commits",
	}
	const workers, keysPerWorker, shards = 32, 8, 8
	// fsync parks an OS thread, not a core: on a single-P runtime the
	// blocked P is handed off only when sysmon notices the syscall, which
	// idles the CPU for most of each fsync and leaves no group behind the
	// leader. Two Ps let committers pile up while the leader syncs.
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	modes := []struct {
		name string
		sync wal.SyncMode
		wal  bool
	}{
		{"volatile", 0, false},
		{"interval", wal.SyncInterval, true},
		{"batch", wal.SyncBatch, true},
	}
	for _, opw := range opsPerWorkerCounts {
		row := Row{Config: fmt.Sprintf("ops/worker=%d workers=%d shards=%d", opw, workers, shards)}
		for _, m := range modes {
			s := dataspace.New(dataspace.WithShards(shards))
			if m.wal {
				dir, err := os.MkdirTemp("", "sdl-bench-wal-")
				if err != nil {
					return nil, err
				}
				wlog, err := wal.Open(dir, wal.Options{Sync: m.sync, Metrics: s.Metrics()})
				if err != nil {
					os.RemoveAll(dir)
					return nil, err
				}
				if _, err := wlog.Recover(s); err != nil {
					wlog.Close()
					os.RemoveAll(dir)
					return nil, err
				}
				s.SetDurable(wlog)
				defer func() {
					wlog.Close()
					os.RemoveAll(dir)
				}()
			}
			d, err := commutingUpserts(s, viaEngine(txn.New(s)), keysPerWorker, workers, opw)
			if err != nil {
				return nil, fmt.Errorf("E14 %s opw=%d: %w", m.name, opw, err)
			}
			total := float64(workers * opw)
			row.Metrics = append(row.Metrics,
				Metric{Name: m.name, Value: total / d.Seconds() / 1000, Unit: "kops/s"})
			if m.wal {
				snap := s.Metrics().Snapshot()
				row.Metrics = append(row.Metrics,
					Metric{Name: m.name + " syncs", Value: float64(snap.WalSyncs) / total, Unit: "syncs/op"})
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// commutingUpserts runs the E13 workload: workers upserting counters whose
// keys are disjoint per worker — every pair of concurrent transactions
// commutes, so an ideal commit path admits all of them in parallel. Each op
// is the request exists v: <k, ?v>! => <k, ?v + 1>, executed by run; the
// final value sum must equal the op count (the lost-increment invariant).
func commutingUpserts(s *dataspace.Store, run func(txn.Request) error, keysPerWorker, workers, opsPerWorker int) (time.Duration, error) {
	nKeys := keysPerWorker * workers
	for k := 0; k < nKeys; k++ {
		s.Assert(tuple.Environment, tuple.New(tuple.Int(int64(k)), tuple.Int(0)))
	}
	d, err := timeIt(func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := int64(w * keysPerWorker)
				for i := 0; i < opsPerWorker; i++ {
					id := base + int64(i%keysPerWorker)
					err := run(txn.Request{
						Proc:  tuple.ProcessID(w + 1),
						View:  view.Universal(),
						Query: pattern.Q(pattern.R(pattern.C(tuple.Int(id)), pattern.V("v"))),
						Asserts: []pattern.Pattern{pattern.P(pattern.C(tuple.Int(id)),
							pattern.E(expr.Add(expr.V("v"), expr.Const(tuple.Int(1)))))},
					})
					if err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	})
	if err != nil {
		return 0, err
	}
	var gotSum int64
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			v, _ := inst.Tuple.Field(1).AsInt()
			gotSum += v
			return true
		})
	})
	if total := int64(workers * opsPerWorker); gotSum != total {
		return 0, fmt.Errorf("value sum %d, want %d (lost or duplicated increments)", gotSum, total)
	}
	return d, nil
}

// viaEngine executes each upsert as a transaction of e: a disjoint counter's
// footprint plans to the key-latch / group-commit path.
func viaEngine(e *txn.Engine) func(txn.Request) error {
	return func(req txn.Request) error {
		_, err := e.Immediate(req)
		return err
	}
}

// viaShardMutex executes each upsert's query and effect inside
// Store.UpdateKeys on the counter's bucket: the same footprint under the
// shard mutex, with no key latch and no group commit — E13's baseline.
func viaShardMutex(s *dataspace.Store) func(txn.Request) error {
	return func(req txn.Request) error {
		lead, _ := req.Query.Patterns[0].Lead(req.Env)
		keys := []dataspace.InterestKey{{Arity: 2, Lead: lead, LeadKnown: true}}
		return s.UpdateKeys(req.Proc, keys, func(w dataspace.Writer) error {
			b, found, err := pattern.Solve(req.Query, w, req.Env)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("counter %v missing", lead)
			}
			if err := w.Delete(b.RetractedIDs()[0]); err != nil {
				return err
			}
			t, err := req.Asserts[0].Ground(b.Env)
			if err != nil {
				return err
			}
			w.Insert(t, req.Proc)
			return nil
		})
	}
}

// E13CommutingUpserts is the commit-path ablation: key-level latches plus
// group commit (the commutativity-aware path) against the shard-mutex
// baseline, on disjoint-key contended upserts where every transaction pair
// commutes. The new always-on instruments are surfaced as columns: write
// locks per op (the group-commit amortization), key-latch acquisitions per
// op, and the mean group-commit batch size. Like E12, throughput gains
// over the baseline require hardware parallelism (GOMAXPROCS >= 4);
// single-core runs should tie to within noise while still exercising the
// full latch/batch machinery.
func E13CommutingUpserts(_ context.Context, keysPerWorkerCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "commutativity-aware commit path: key latches + group commit vs shard mutex (disjoint-key upserts)",
		Note:  `PAPERS.md "full parallelism": operations on disjoint tuples commute, so an ideal commit path admits them all concurrently — the shard mutex serializes them, the key-latch path does not`,
	}
	shardCounts := []int{1, 8}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const opsPerWorker = 2000
	for _, kpw := range keysPerWorkerCounts {
		row := Row{Config: fmt.Sprintf("keys/worker=%d workers=%d", kpw, workers)}
		for _, sc := range shardCounts {
			for _, commuting := range []bool{false, true} {
				s := dataspace.New(dataspace.WithShards(sc))
				path := viaShardMutex(s)
				if commuting {
					path = viaEngine(txn.New(s))
				}
				d, err := commutingUpserts(s, path, kpw, workers, opsPerWorker)
				if err != nil {
					return nil, fmt.Errorf("E13 commuting=%v shards=%d kpw=%d: %w", commuting, sc, kpw, err)
				}
				total := float64(workers * opsPerWorker)
				snap := s.Metrics().Snapshot()
				_, writeLocks := snap.ShardLockTotals()
				label := fmt.Sprintf("mutex s=%d", sc)
				if commuting {
					label = fmt.Sprintf("commute s=%d", sc)
				}
				row.Metrics = append(row.Metrics,
					Metric{Name: label, Value: total / d.Seconds() / 1000, Unit: "kops/s"},
					Metric{Name: label + " wlocks", Value: float64(writeLocks) / total, Unit: "locks/op"})
				if commuting {
					batchMean := 0.0
					if snap.GroupBatch.Count > 0 {
						batchMean = float64(snap.GroupBatch.Sum) / float64(snap.GroupBatch.Count)
					}
					row.Metrics = append(row.Metrics,
						Metric{Name: label + " klocks", Value: float64(snap.KeyLockTotal()) / total, Unit: "locks/op"},
						Metric{Name: label + " batch", Value: batchMean, Unit: "txns/batch"})
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// reactiveWakeupCell runs one E16 configuration against an assembled
// store/engine pair: p delayed transactions block on the delta-safe
// constant guards <job, i, 1> — all hashing to the ONE (arity, lead)
// index bucket — then a writer streams noise commits into that same
// bucket that match none of them, and finally releases every waiter in a
// single batched commit.
func reactiveWakeupCell(ctx context.Context, s *dataspace.Store, e *txn.Engine, p, noise int) (time.Duration, error) {
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Delayed(ctx, txn.Request{
				Proc: tuple.ProcessID(i + 1),
				View: view.Universal(),
				Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("job")),
					pattern.C(tuple.Int(int64(i))), pattern.C(tuple.Int(1)))),
			})
			if err != nil {
				errCh <- err
			}
		}(i)
	}
	// Let every waiter evaluate, fail and block. A block is counted once
	// the waiter's first read is done; an attempt is counted before it
	// reads, and a waiter descheduled there would read after the release.
	for s.Metrics().Snapshot().Txn["delayed"].Blocks < uint64(p) {
		runtime.Gosched()
	}
	return timeIt(func() error {
		for i := 0; i < noise; i++ {
			// Same bucket (arity 3, lead `job`), never a match: the keyed
			// wakeup index cannot filter these, only the delta layer can.
			s.Assert(tuple.Environment,
				tuple.New(tuple.Atom("job"), tuple.Int(int64(1000+i)), tuple.Int(0)))
			runtime.Gosched()
		}
		// Release everyone in one commit and drain.
		batch := make([]tuple.Tuple, 0, p)
		for i := 0; i < p; i++ {
			batch = append(batch, tuple.New(tuple.Atom("job"), tuple.Int(int64(i)), tuple.Int(1)))
		}
		s.Assert(tuple.Environment, batch...)
		wg.Wait()
		close(errCh)
		return <-errCh
	})
}

// E16ReactiveWakeups measures the delta-wakeup layer (DESIGN.md section
// 11) where interest-keyed wakeups (E10) cannot help: the noise and release
// commits share the waiters' index bucket, so a wake-on-any-covering-commit
// scheme re-evaluates all P blocked guards on every noise commit. Each
// guard is compiled into a delta filter, and its subscription is filed
// under the guard's constant field, so a noise commit reaches no filter
// (the "suppressed" series — candidates a filter rejected — reads 0 since
// subscriptions are field-indexed; it read P × noise before) and each
// waiter re-evaluates exactly once, against the delta that satisfies it.
func E16ReactiveWakeups(ctx context.Context, waiterCounts []int) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "reactive delta-driven wakeups under shared-bucket noise",
		Note:  "subscription lifecycle and delta-safety rules in DESIGN.md section 11",
	}
	const noise = 300
	for _, p := range waiterCounts {
		s := dataspace.New()
		// Observed, so the gated histograms record.
		s.Metrics().SetObserved(true)
		e := txn.New(s)
		d, err := reactiveWakeupCell(ctx, s, e, p, noise)
		if err != nil {
			return nil, fmt.Errorf("E16 p=%d: %w", p, err)
		}
		snap := s.Metrics().Snapshot()
		t.Rows = append(t.Rows, Row{
			Config: fmt.Sprintf("waiters=%d noise=%d", p, noise),
			Metrics: []Metric{
				Ms("reactive", d),
				Count("reactive evals", float64(e.Stats().Wakeups), "wakeups"),
				Count("suppressed", float64(snap.ReactiveSuppressed), "wakeups"),
				Count("delta hits", float64(snap.ReactiveHits), "evals"),
				Count("wasted", float64(snap.ReactiveWasted), "evals"),
			},
		})
	}
	return t, nil
}

// secondaryLoad fills the store with the E17 dataset: n arity-3 records
// <i, rec, i%groups> — every lead unique, so the (arity, lead) index never
// narrows a lookup and a wildcard-lead query degrades to a full arity scan
// — plus one probe row <p, link, p> per group for the join leg.
func secondaryLoad(s *dataspace.Store, n, groups int) {
	rec, link := tuple.Atom("rec"), tuple.Atom("link")
	batch := make([]tuple.Tuple, 0, 4096)
	flush := func() {
		if len(batch) > 0 {
			s.Assert(tuple.Environment, batch...)
			batch = batch[:0]
		}
	}
	for i := 0; i < n; i++ {
		batch = append(batch, tuple.New(
			tuple.Int(int64(i)), rec, tuple.Int(int64(i%groups))))
		if len(batch) == cap(batch) {
			flush()
		}
	}
	for p := 0; p < groups; p++ {
		batch = append(batch, tuple.New(
			tuple.Int(int64(p)), link, tuple.Int(int64(p%groups))))
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
}

// secondaryLookups issues reps rounds of the two E17 queries through
// solve, which returns a query's solution count. The point lookup
// <?x, rec, G> constrains only non-lead fields, so without a field index it
// walks every arity-3 tuple, while the indexed store reads one (arity,
// pos-2, G) bucket. The join's first leg <P, link, ?g> is lead-keyed and
// binds ?g; its second leg <?y, rec, ?g> is selective only through the
// runtime-bound ?g field, exercising both the bound-variable field selector
// and the estimator-driven join order (the selective leg must run second —
// ?g is unbound before the probe row binds it). Both queries are ∀, which
// keeps the visited-candidate counts exact — an ∃ lookup stops at the first
// hit, which floats with shard/bucket iteration order.
func secondaryLookups(reps, groups int, solve func(pattern.Query) (int, error)) error {
	rec, link := tuple.Atom("rec"), tuple.Atom("link")
	for i := 0; i < reps; i++ {
		g := tuple.Int(int64(i % groups))
		for _, q := range []pattern.Query{
			pattern.QAll(pattern.P(pattern.V("x"), pattern.C(rec), pattern.C(g))),
			pattern.QAll(
				pattern.P(pattern.C(g), pattern.C(link), pattern.V("g")),
				pattern.P(pattern.V("y"), pattern.C(rec), pattern.V("g"))),
		} {
			if n, err := solve(q); err != nil || n == 0 {
				return fmt.Errorf("%s: %d solutions, err %v", q, n, err)
			}
		}
	}
	return nil
}

// E17SecondaryIndex is the ablation for the adaptive secondary field
// indexes and the selectivity-guided join planner they feed (DESIGN.md
// section 12). Both arms run the same wildcard-lead lookups and probe joins
// over the same store. The scan baseline is refmodel.Solutions over the
// store's instances: nested loops with no index, O(n) per pattern. The
// indexed arm is the engine after a warm-up that pushes the (arity-3, pos)
// shapes past the promotion bar and builds their buckets, so the measured
// loop sees the steady state. The tuples/txn column is the
// visited-candidate count — the quantity the index exists to shrink.
func E17SecondaryIndex(_ context.Context, sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "ablation: adaptive secondary field indexes + selectivity join planning vs full scans",
		Note:  "per-(arity, field, value) buckets promoted by scan pressure; the planner orders joins by estimated candidates visited (DESIGN.md section 12); scan = refmodel.Solutions",
	}
	const (
		groups   = 1024
		scanReps = 20
		warmReps = 4
		// The indexed arm's per-txn time is three orders of magnitude
		// smaller, so it gets proportionally more reps — the reported
		// metrics are per transaction, so the arms stay comparable while
		// both measurement windows are long enough to read.
		indexedReps = 2000
	)
	for _, n := range sizes {
		row := Row{Config: fmt.Sprintf("n=%d groups=%d", n, groups)}
		s := dataspace.New(dataspace.WithShards(8))
		secondaryLoad(s, n, groups)
		model, _ := refmodel.ReplayFrom(s.All(), 0, nil) // no records to reject
		window, visited := model.All(), 0
		scan := func(q pattern.Query) (int, error) {
			// The enumerator tries every instance once per pattern loop it
			// enters: the lookup's one, and the join's probe leg plus one
			// under the single probe row <g, link, g> that leg matches.
			visited += len(window) * len(q.Patterns)
			sols, err := refmodel.Solutions(q, window, nil)
			return len(sols), err
		}
		d, err := timeIt(func() error { return secondaryLookups(scanReps, groups, scan) })
		if err != nil {
			return nil, fmt.Errorf("E17 scan n=%d: %w", n, err)
		}
		row.Metrics = append(row.Metrics,
			Metric{Name: "scan", Value: float64(d.Microseconds()) / (2 * scanReps), Unit: "us/txn"},
			Metric{Name: "scan visited", Value: float64(visited) / (2 * scanReps), Unit: "tuples/txn"})

		e := txn.New(s)
		indexed := func(q pattern.Query) (int, error) {
			res, err := e.Immediate(txn.Request{Proc: 1, View: view.Universal(), Query: q})
			return len(res.Solutions), err
		}
		if err := secondaryLookups(warmReps, groups, indexed); err != nil {
			return nil, fmt.Errorf("E17 warm n=%d: %w", n, err)
		}
		before := s.Metrics().Snapshot()
		if d, err = timeIt(func() error { return secondaryLookups(indexedReps, groups, indexed) }); err != nil {
			return nil, fmt.Errorf("E17 indexed n=%d: %w", n, err)
		}
		after := s.Metrics().Snapshot()
		share := 100 * float64(after.SecondaryIndexedScans-before.SecondaryIndexedScans) /
			float64(max(1, after.SecondaryFieldScans-before.SecondaryFieldScans))
		row.Metrics = append(row.Metrics,
			Metric{Name: "indexed", Value: float64(d.Microseconds()) / (2 * indexedReps), Unit: "us/txn"},
			Metric{Name: "indexed visited", Value: float64(after.SecondaryTuplesVisited-before.SecondaryTuplesVisited) / (2 * indexedReps), Unit: "tuples/txn"},
			Count("promotions", float64(after.SecondaryPromotions), "shapes"),
			Count("demotions", float64(after.SecondaryDemotions), "shapes"),
			Metric{Name: "indexed share", Value: share, Unit: "%"})
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
