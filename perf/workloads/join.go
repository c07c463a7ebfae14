package workloads

import (
	"fmt"
	"sync/atomic"
	"time"

	sdl "github.com/sdl-lang/sdl"
	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/view"
	"github.com/sdl-lang/sdl/perf/harness"
)

// Operation kinds of the join-read and mixed-rw workloads.
const (
	opJoin   uint8 = iota // forall: <P, link, ?g>, <?y, rec, ?g>
	opFetch               // forall: <?x, rec, G>
	opSwap                // <a, rec, ?g>!, <b, rec, ?h>! -> <a, rec, ?h>, <b, rec, ?g>
	opInsert              // -> <fresh, rec, G>   (insert-only variant)
)

type joinOp struct {
	kind uint8
	a, b int32
}

// Join is the join-read workload (writePct 0) and the mixed-rw workload
// (writePct 10) over one store shape: Groups*PerGroup records <id, rec, g>
// and one <p, link, g> per group.
//
// Every group holds exactly PerGroup records at all times: the write moves
// two records between groups by swapping them in one transaction, which
// maintains the secondary index (two removals, two additions) like the
// issue's single-record move but keeps every group's size fixed, so per-op
// cost does not depend on which groups the seed made hot and every read's
// cardinality can be checked exactly, even under concurrent writes.
type Join struct {
	name       string
	seed       uint64
	sc         Scale
	writePct   int
	insertOnly bool

	sys      *sdl.System
	linkTo   []int32 // link p -> group
	window   int
	prepared [2][]joinOp
	nextID   atomic.Int64 // insert-only variant: fresh record ids
	kept     counters
	sols     atomic.Int64 // solutions returned by reads since MarkKept
	reads    atomic.Int64
}

func newJoin(name string, seed uint64, sc Scale, writePct int, insertOnly bool) *Join {
	return &Join{name: name, seed: seed, sc: sc, writePct: writePct, insertOnly: insertOnly}
}

var (
	atomRec  = sdl.Atom("rec")
	atomLink = sdl.Atom("link")
)

func (j *Join) Name() string    { return j.name }
func (j *Join) Clients() int    { return 2 }
func (j *Join) PoolTail() bool  { return false }
func (j *Join) records() int    { return j.sc.Groups * j.sc.PerGroup }
func (j *Join) LiveTuples() int { return j.records() + j.sc.Groups }
func (j *Join) OpsPerWindow() int {
	if j.writePct > 0 {
		return j.sc.MixedOps
	}
	return j.sc.ReadOps
}

// Setup loads a fresh volatile system: record i starts in group i mod
// Groups, link p points at a seed-chosen group.
func (j *Join) Setup() error {
	if err := j.Close(); err != nil {
		return err
	}
	if j.linkTo == nil {
		j.linkTo = make([]int32, j.sc.Groups)
		for p, g := range stream(j.seed, j.name, 0).Perm(j.sc.Groups) {
			j.linkTo[p] = int32(g)
		}
	}
	j.sys = sdl.New(sdl.Options{})
	j.nextID.Store(int64(j.records()))
	batch := make([]sdl.Tuple, 0, 4096)
	flush := func() {
		if len(batch) > 0 {
			j.sys.Store.Assert(sdl.Environment, batch...)
			batch = batch[:0]
		}
	}
	add := func(t sdl.Tuple) {
		if batch = append(batch, t); len(batch) == cap(batch) {
			flush()
		}
	}
	for i := 0; i < j.records(); i++ {
		add(sdl.NewTuple(sdl.Int(int64(i)), atomRec, sdl.Int(int64(i%j.sc.Groups))))
	}
	for p, g := range j.linkTo {
		add(sdl.NewTuple(sdl.Int(int64(p)), atomLink, sdl.Int(int64(g))))
	}
	flush()
	return nil
}

// ops generates one client's operations for one window: reads are 70%
// joins and 30% group fetches on Zipf-chosen groups, writes swap two
// uniformly chosen records. Zipf ranks map to groups through a bijection
// drawn per window, so a run averages over many placements of the hot
// groups instead of inheriting one from its seed.
func (j *Join) ops(window, client, n int) []joinOp {
	place := stream(j.seed, j.name, 2, uint64(window+1))
	groups := uint64(j.sc.Groups)
	mult := 1 + place.Uint64()%groups
	for gcd(mult, groups) != 1 {
		mult = 1 + place.Uint64()%groups
	}
	off := place.Uint64() % groups
	r := stream(j.seed, j.name, 1, uint64(client), uint64(window+1))
	z := zipf(r, j.sc.Groups)
	out := make([]joinOp, n)
	for i := range out {
		hot := int32((z.Uint64()*mult + off) % groups)
		switch roll := r.Intn(100); {
		case roll < j.writePct && j.insertOnly:
			out[i] = joinOp{kind: opInsert, a: hot}
		case roll < j.writePct:
			a := r.Intn(j.records())
			b := r.Intn(j.records() - 1)
			if b >= a {
				b++
			}
			out[i] = joinOp{kind: opSwap, a: int32(a), b: int32(b)}
		case r.Intn(100) < 70:
			out[i] = joinOp{kind: opJoin, a: hot} // link ids share the group id space
		default:
			out[i] = joinOp{kind: opFetch, a: hot}
		}
	}
	return out
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (j *Join) Prepare(w int) {
	j.window = w
	for c := range j.prepared {
		j.prepared[c] = j.ops(w, c, j.OpsPerWindow())
	}
}

func (j *Join) SetTracing(on bool) { j.sys.Metrics().SetObserved(on) }

func joinQuery(link int32) sdl.Query {
	return sdl.QAll(
		sdl.P(sdl.C(sdl.Int(int64(link))), sdl.C(atomLink), sdl.V("g")),
		sdl.P(sdl.V("y"), sdl.C(atomRec), sdl.V("g")))
}

func fetchQuery(group int32) sdl.Query {
	return sdl.QAll(sdl.P(sdl.V("x"), sdl.C(atomRec), sdl.C(sdl.Int(int64(group)))))
}

func (j *Join) request(proc sdl.ProcessID, op joinOp) sdl.Request {
	req := sdl.Request{Proc: proc, View: sdl.Universal()}
	switch op.kind {
	case opJoin:
		req.Query = joinQuery(op.a)
	case opFetch:
		req.Query = fetchQuery(op.a)
	case opSwap:
		a, b := sdl.C(sdl.Int(int64(op.a))), sdl.C(sdl.Int(int64(op.b)))
		rec := sdl.C(atomRec)
		req.Query = sdl.Q(sdl.R(a, rec, sdl.V("g")), sdl.R(b, rec, sdl.V("h")))
		req.Asserts = []sdl.Pattern{sdl.P(a, rec, sdl.V("h")), sdl.P(b, rec, sdl.V("g"))}
	case opInsert:
		id := j.nextID.Add(1)
		req.Query = sdl.Q()
		req.Asserts = []sdl.Pattern{sdl.P(sdl.C(sdl.Int(id)), sdl.C(atomRec), sdl.C(sdl.Int(int64(op.a))))}
	}
	return req
}

func (j *Join) Run(c int, lat []int64, lane *harness.Lane) (failed int) {
	eng, proc := j.sys.Engine, sdl.ProcessID(c+1)
	var sols, reads int64
	for i, op := range j.prepared[c] {
		res, ns, err := immediate(eng, j.request(proc, op), lane, opID(j.window, c, i))
		lat[i] = ns
		ok := err == nil && res.OK
		if ok && op.kind <= opFetch {
			reads++
			sols += int64(len(res.Solutions))
			// Every group holds exactly PerGroup records (the insert-only
			// variant only grows them).
			ok = len(res.Solutions) == j.sc.PerGroup || (j.insertOnly && len(res.Solutions) > j.sc.PerGroup)
		}
		if !ok {
			failed++
		}
	}
	j.sols.Add(sols)
	j.reads.Add(reads)
	return failed
}

func (j *Join) MarkKept() {
	j.kept = countersOf(j.sys.Snapshot())
	j.sols.Store(0)
	j.reads.Store(0)
}

// Verify checks that the store still holds every record exactly once, that
// every group has PerGroup members, and that a sample of reads against the
// quiescent store returns exactly the members a full scan finds.
func (j *Join) Verify() error {
	seen := make([]bool, j.records())
	members := make([]int, j.sc.Groups)
	var bad error
	j.sys.Store.Snapshot(func(r sdl.Reader) {
		r.Each(func(inst sdl.Instance) bool {
			t := inst.Tuple
			if t.Arity() != 3 || !t.Field(1).Equal(atomRec) {
				return true
			}
			id, _ := t.Field(0).AsInt()
			g, _ := t.Field(2).AsInt()
			if j.insertOnly && id >= int64(len(seen)) {
				return true
			}
			if id < 0 || id >= int64(len(seen)) || seen[id] || g < 0 || g >= int64(len(members)) {
				bad = fmt.Errorf("unexpected or duplicate record %v", t)
				return false
			}
			seen[id] = true
			members[g]++
			return true
		})
	})
	if bad != nil {
		return bad
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("record %d is missing", id)
		}
	}
	if j.insertOnly {
		return nil
	}
	for g, n := range members {
		if n != j.sc.PerGroup {
			return fmt.Errorf("group %d has %d records, want %d", g, n, j.sc.PerGroup)
		}
	}
	if want := j.LiveTuples(); j.sys.Store.Len() != want {
		return fmt.Errorf("store holds %d tuples, want %d", j.sys.Store.Len(), want)
	}
	for p := 0; p < j.sc.Groups; p += 1 + j.sc.Groups/64 {
		res, err := j.sys.Immediate(sdl.Request{Proc: 1, View: sdl.Universal(), Query: joinQuery(int32(p))})
		if err != nil || len(res.Solutions) != j.sc.PerGroup {
			return fmt.Errorf("join over link %d: %d solutions, err %v", p, len(res.Solutions), err)
		}
		for _, env := range res.Solutions {
			if g, _ := env["g"].AsInt(); g != int64(j.linkTo[p]) {
				return fmt.Errorf("join over link %d returned group %d, want %d", p, g, j.linkTo[p])
			}
		}
	}
	return nil
}

func (j *Join) Close() error {
	if j.sys == nil {
		return nil
	}
	err := j.sys.Close()
	j.sys = nil
	return err
}

// LayerMetrics reports the kept windows' counters and replays generated
// operations against the lower layers on the live store (reads do not
// change it, swaps keep its shape): the matcher inside Store.Snapshot, the
// same read through a pattern-restricted view window, and the swap through
// Store.UpdateKeys.
func (j *Join) LayerMetrics(k harness.Kept) (map[string]float64, error) {
	m := map[string]float64{}
	now := countersOf(j.sys.Snapshot())
	layerCounts(m, j.kept, now, k.Ops)
	m["txn.immediate_us"] = k.Spans["txn.immediate"].MeanUS()
	sols := j.sols.Load()
	m["pattern.solutions_per_op"] = share(uint64(sols), uint64(j.reads.Load()))
	m["pattern.tuples_visited_per_solution"] = share(now[cTuplesVisited]-j.kept[cTuplesVisited], uint64(sols))

	anyTriple := view.Union(view.Pat(pattern.P(pattern.W(), pattern.W(), pattern.W())))
	universal, restricted := sdl.Universal(), view.New(anyTriple, anyTriple)
	store := j.sys.Store
	var solve, read, update time.Duration
	var viewT [2]time.Duration // through the universal, the restricted view
	var nRead, nUpdate int
	for _, op := range j.ops(1<<20, 0, j.sc.ProbeOps) {
		switch op.kind {
		case opJoin, opFetch:
			q := joinQuery(op.a)
			if op.kind == opFetch {
				q = fetchQuery(op.a)
			}
			var got, gotWin int
			t0 := time.Now()
			store.Snapshot(func(r sdl.Reader) {
				t1 := time.Now()
				sols, _ := pattern.SolveAll(q, r, nil)
				solve += time.Since(t1)
				got = len(sols)
			})
			read += time.Since(t0)
			// The view comparison alternates which side runs first, so
			// neither always finds the group's tuples already cached.
			sides := [2]sdl.View{universal, restricted}
			for k := range sides {
				side := (k + nRead) % 2
				t0 = time.Now()
				store.Snapshot(func(r sdl.Reader) {
					sols, _ := pattern.SolveAll(q, sides[side].Window(r, nil), nil)
					gotWin = len(sols)
				})
				viewT[side] += time.Since(t0)
				if gotWin != got {
					break
				}
			}
			if got != j.sc.PerGroup || gotWin != got {
				return nil, fmt.Errorf("probe read: %d solutions direct, %d through the view, want %d", got, gotWin, j.sc.PerGroup)
			}
			nRead++
		case opSwap:
			a, b := sdl.Int(int64(op.a)), sdl.Int(int64(op.b))
			keys := []dataspace.InterestKey{{Arity: 3, Lead: a, LeadKnown: true}, {Arity: 3, Lead: b, LeadKnown: true}}
			t0 := time.Now()
			err := store.UpdateKeys(1, keys, func(w dataspace.Writer) error {
				ia, ga, okA := findRecord(w, a)
				ib, gb, okB := findRecord(w, b)
				if !okA || !okB {
					return fmt.Errorf("records %v/%v not found", a, b)
				}
				if err := w.Delete(ia); err != nil {
					return err
				}
				if err := w.Delete(ib); err != nil {
					return err
				}
				w.Insert(sdl.NewTuple(a, atomRec, gb), 1)
				w.Insert(sdl.NewTuple(b, atomRec, ga), 1)
				return nil
			})
			update += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("probe swap: %w", err)
			}
			nUpdate++
		}
	}
	m["pattern.solve_us"] = meanUS(solve, nRead)
	m["dataspace.snapshot_read_us"] = meanUS(read, nRead)
	m["view.window_overhead_us"] = meanUS(viewT[1], nRead) - meanUS(viewT[0], nRead)
	m["dataspace.update_us"] = meanUS(update, nUpdate)
	// Self time of the transaction layer on a read: the span minus the
	// store read it wraps.
	m["txn.self_us"] = m["txn.immediate_us"] - m["dataspace.snapshot_read_us"]
	return m, nil
}

// findRecord returns the instance id and group of record <lead, rec, g>.
func findRecord(r sdl.Reader, lead sdl.Value) (id sdl.TupleID, group sdl.Value, ok bool) {
	r.Scan(3, lead, true, func(i sdl.TupleID, t sdl.Tuple) bool {
		if t.Field(1).Equal(atomRec) {
			id, group, ok = i, t.Field(2), true
			return false
		}
		return true
	})
	return id, group, ok
}
