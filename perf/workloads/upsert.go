package workloads

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	sdl "github.com/sdl-lang/sdl"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/wal"
	"github.com/sdl-lang/sdl/perf/harness"
)

// Upsert is the upsert-durable workload: two clients increment Zipf-chosen
// counters <k, v> through Engine.Immediate on a system whose WAL syncs on
// the 5 ms interval policy. Store cardinality never changes.
type Upsert struct {
	seed uint64
	sc   Scale
	dir  string

	sys      *sdl.System
	walDir   string
	setups   int
	window   int
	prepared [2][]int32

	committed atomic.Int64 // successful upserts since the last set-up
	kept      counters

	checkpoint, recoverT time.Duration // of the last set-up
}

func (u *Upsert) Name() string      { return "upsert-durable" }
func (u *Upsert) Clients() int      { return 2 }
func (u *Upsert) OpsPerWindow() int { return u.sc.UpsertOps }
func (u *Upsert) PoolTail() bool    { return false }
func (u *Upsert) LiveTuples() int   { return u.sc.Counters }

func (u *Upsert) open() (*sdl.System, error) {
	return sdl.Open(sdl.Options{WALDir: u.walDir, WALSync: sdl.WALSyncInterval})
}

// loadCounters asserts <k, 0> for every key in batches.
func loadCounters(s *sdl.Store, n int) {
	batch := make([]sdl.Tuple, 0, 4096)
	for k := 0; k < n; k++ {
		batch = append(batch, sdl.NewTuple(sdl.Int(int64(k)), sdl.Int(0)))
		if len(batch) == cap(batch) || k == n-1 {
			s.Assert(sdl.Environment, batch...)
			batch = batch[:0]
		}
	}
}

// Setup loads the counters into a fresh durable system, closes it (which
// checkpoints) and opens it again (which recovers), so restart cost is part
// of set-up time.
func (u *Upsert) Setup() error {
	if err := u.Close(); err != nil {
		return err
	}
	if u.sc.Counters&(u.sc.Counters-1) != 0 {
		return fmt.Errorf("counter count %d is not a power of two", u.sc.Counters)
	}
	u.setups++
	u.walDir = fmt.Sprintf("%s-%d-%d", u.dir, os.Getpid(), u.setups)
	if err := os.RemoveAll(u.walDir); err != nil {
		return err
	}
	sys, err := u.open()
	if err != nil {
		return err
	}
	loadCounters(sys.Store, u.sc.Counters)
	t0 := time.Now()
	if err := sys.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	u.checkpoint = time.Since(t0)
	t0 = time.Now()
	if u.sys, err = u.open(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	u.recoverT = time.Since(t0)
	u.committed.Store(0)
	if got := u.sys.Store.Len(); got != u.sc.Counters {
		return fmt.Errorf("recovered %d tuples, want %d", got, u.sc.Counters)
	}
	return nil
}

// keys generates one client's keys for one window. Zipf ranks map to keys
// through a bijection drawn per window, so a run averages over many
// placements of the hot keys on shards and latch stripes instead of
// inheriting one placement from its seed.
func (u *Upsert) keys(window, client, n int) []int32 {
	place := stream(u.seed, u.Name(), 2, uint64(window+1))
	mult, off := place.Uint64()|1, place.Uint64()
	r := stream(u.seed, u.Name(), 1, uint64(client), uint64(window+1))
	z := zipf(r, u.sc.Counters)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32((z.Uint64()*mult + off) & uint64(u.sc.Counters-1))
	}
	return out
}

func (u *Upsert) Prepare(w int) {
	u.window = w
	for c := range u.prepared {
		u.prepared[c] = u.keys(w, c, u.sc.UpsertOps)
	}
}

func (u *Upsert) SetTracing(on bool) { u.sys.Metrics().SetObserved(on) }

// upsertReq is exists v: <k, ?v>! -> <k, ?v + 1>.
func upsertReq(proc sdl.ProcessID, k int32) sdl.Request {
	key := sdl.C(sdl.Int(int64(k)))
	return sdl.Request{
		Proc:    proc,
		View:    sdl.Universal(),
		Query:   sdl.Q(sdl.R(key, sdl.V("v"))),
		Asserts: []sdl.Pattern{sdl.P(key, sdl.E(sdl.Add(sdl.X("v"), sdl.Lit(sdl.Int(1)))))},
	}
}

func (u *Upsert) Run(c int, lat []int64, lane *harness.Lane) (failed int) {
	eng, proc := u.sys.Engine, sdl.ProcessID(c+1)
	ok := 0
	for i, k := range u.prepared[c] {
		res, ns, err := immediate(eng, upsertReq(proc, k), lane, opID(u.window, c, i))
		lat[i] = ns
		if err != nil || !res.OK {
			failed++
		} else {
			ok++
		}
	}
	u.committed.Add(int64(ok))
	return failed
}

func (u *Upsert) MarkKept() { u.kept = countersOf(u.sys.Snapshot()) }

func counterSum(s *sdl.Store) (sum int64, n int) {
	s.Snapshot(func(r sdl.Reader) {
		r.Each(func(inst sdl.Instance) bool {
			v, _ := inst.Tuple.Field(1).AsInt()
			sum += v
			n++
			return true
		})
	})
	return sum, n
}

// Verify checks the lost-increment invariant, that every store commit of
// the kept windows reached the log, and that a restart recovers the same
// state.
func (u *Upsert) Verify() error {
	want := u.committed.Load()
	sum, n := counterSum(u.sys.Store)
	if sum != want || n != u.sc.Counters {
		return fmt.Errorf("sum of %d counters is %d, want %d committed upserts over %d counters", n, sum, want, u.sc.Counters)
	}
	now := countersOf(u.sys.Snapshot())
	if a, c := now[cWalAppends]-u.kept[cWalAppends], now[cCommits]-u.kept[cCommits]; a != c {
		return fmt.Errorf("%d WAL appends for %d store commits", a, c)
	}
	if err := u.sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	sys, err := u.open()
	u.sys = sys
	if err != nil {
		return fmt.Errorf("re-open: %w", err)
	}
	if sum, n := counterSum(sys.Store); sum != want || n != u.sc.Counters {
		return fmt.Errorf("recovered sum %d over %d counters, want %d over %d", sum, n, want, u.sc.Counters)
	}
	return nil
}

func (u *Upsert) Close() error {
	if u.sys == nil {
		return nil
	}
	err := u.sys.Close()
	u.sys = nil
	if rmErr := os.RemoveAll(u.walDir); err == nil {
		err = rmErr
	}
	return err
}

// LayerMetrics reports the kept windows' counters and replays generated
// upserts against each lower layer alone: the matcher under a keyed
// snapshot and the same retract+insert through Store.UpdateKeys, both on
// an identically loaded volatile store, and the log append of an
// equivalent commit record on a scratch log.
func (u *Upsert) LayerMetrics(k harness.Kept) (map[string]float64, error) {
	m := map[string]float64{}
	layerCounts(m, u.kept, countersOf(u.sys.Snapshot()), k.Ops)
	m["txn.immediate_us"] = k.Spans["txn.immediate"].MeanUS()
	m["wal.checkpoint_ms"] = float64(u.checkpoint) / 1e6
	m["wal.recover_ms"] = float64(u.recoverT) / 1e6
	m["pattern.solutions_per_op"] = 1

	probe := sdl.NewStore()
	loadCounters(probe, u.sc.Counters)
	keys := u.keys(1<<20, 0, u.sc.ProbeOps)

	scratch := fmt.Sprintf("%s-%d-probe", u.dir, os.Getpid())
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	log, err := wal.Open(scratch, wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	var solve, read, update, appendT, durable time.Duration
	for i, key := range keys {
		lead := sdl.Int(int64(key))
		ik := []dataspace.InterestKey{{Arity: 2, Lead: lead, LeadKnown: true}}
		q := sdl.Q(sdl.R(sdl.C(lead), sdl.V("v")))

		var sols []pattern.Binding
		var solveErr error
		t0 := time.Now()
		probe.SnapshotKeys(ik, func(r sdl.Reader) {
			t1 := time.Now()
			sols, solveErr = pattern.SolveAll(q, r, nil)
			solve += time.Since(t1)
		})
		read += time.Since(t0)
		if solveErr != nil || len(sols) != 1 {
			return nil, fmt.Errorf("probe solve key %d: %d solutions, err %v", key, len(sols), solveErr)
		}
		id := sols[0].RetractedIDs()[0]
		v, _ := sols[0].Env["v"].AsInt()
		next := sdl.NewTuple(lead, sdl.Int(v+1))

		var rec dataspace.CommitRecord
		t0 = time.Now()
		err := probe.UpdateKeys(1, ik, func(w dataspace.Writer) error {
			old, _ := w.Get(id)
			if err := w.Delete(id); err != nil {
				return err
			}
			nid := w.Insert(next, 1)
			rec = dataspace.CommitRecord{Version: uint64(i + 1), Owner: 1,
				Inserted: []sdl.Instance{{ID: nid, Tuple: next, Owner: 1}}, Deleted: []sdl.Instance{old}}
			return nil
		})
		update += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("probe update key %d: %w", key, err)
		}

		t0 = time.Now()
		lsn := log.Append(rec)
		appendT += time.Since(t0)
		t0 = time.Now()
		log.WaitDurable(lsn)
		durable += time.Since(t0)
	}
	n := len(keys)
	m["pattern.solve_us"] = meanUS(solve, n)
	m["dataspace.snapshot_read_us"] = meanUS(read, n)
	m["dataspace.update_us"] = meanUS(update, n)
	m["wal.append_us"] = meanUS(appendT, n)
	m["wal.wait_durable_us"] = meanUS(durable, n)
	m["txn.self_us"] = m["txn.immediate_us"] - m["pattern.solve_us"] - m["dataspace.update_us"] -
		m["wal.append_us"] - m["wal.wait_durable_us"]
	return m, nil
}
