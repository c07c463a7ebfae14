// Package regionlabel implements the paper's §3.3 computer-vision example
// — threshold an image and label its 4-connected regions — in both of the
// programming styles the paper contrasts:
//
//   - The worker model (Threshold_and_label): one process issuing many
//     parallel transactions through a replication construct. Labeled
//     regions "are not available for further processing until the entire
//     program completes execution".
//
//   - The community model (Threshold + one Label process per pixel):
//     each Label process has a dynamic, dataspace-dependent view covering
//     its own pixel and the same-region neighbours; communities of Label
//     processes — one per region, formed by import-set overlap — work
//     asynchronously and detect per-region completion with a consensus
//     transaction, making each region available as soon as it is done.
//
// Tuple schema (pixel id leads, so the dataspace index buckets per pixel):
//
//	<p, image, v>      raw intensity
//	<p, threshold, t>  thresholded class (0 or 1)
//	<p, label, l>      current label
//	<p1, p2>           4-connectivity (worker model only)
package regionlabel

import (
	"context"
	"fmt"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/process"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/txn"
	"github.com/sdl-lang/sdl/internal/view"
	"github.com/sdl-lang/sdl/internal/workload"
)

// Atoms of the schema.
var (
	atomImage     = tuple.Atom("image")
	atomThreshold = tuple.Atom("threshold")
	atomLabel     = tuple.Atom("label")
)

// Result reports a labeling run.
type Result struct {
	// Labels is the final label per pixel (row-major).
	Labels []int64
	// Regions is the number of distinct regions labeled.
	Regions int
	// Total is the wall-clock time for the full labeling.
	Total time.Duration
	// FirstRegion is the wall-clock time until the first region was
	// *known complete*. In the worker model no such signal exists before
	// the program ends, so FirstRegion == Total; the community model's
	// per-region consensus delivers it earlier.
	FirstRegion time.Duration
}

// loadImageTuples asserts <p, image, v> for every pixel.
func loadImageTuples(s *dataspace.Store, im *workload.Image) {
	ts := make([]tuple.Tuple, 0, im.W*im.H)
	for p := int64(0); p < int64(im.W*im.H); p++ {
		ts = append(ts, tuple.New(tuple.Int(p), atomImage, tuple.Int(im.Pix[p])))
	}
	s.Assert(tuple.Environment, ts...)
}

// loadAdjacency asserts <p1, p2> for every 4-connected pair (both
// directions).
func loadAdjacency(s *dataspace.Store, im *workload.Image) {
	var ts []tuple.Tuple
	for p := int64(0); p < int64(im.W*im.H); p++ {
		for _, q := range im.Neighbors4(p) {
			ts = append(ts, tuple.New(tuple.Int(p), tuple.Int(q)))
		}
	}
	s.Assert(tuple.Environment, ts...)
}

// readLabels extracts the <p, label, l> tuples into a dense slice.
func readLabels(s *dataspace.Store, n int) ([]int64, error) {
	labels := make([]int64, n)
	seen := 0
	var badTuple error
	s.Snapshot(func(r dataspace.Reader) {
		r.Each(func(inst dataspace.Instance) bool {
			t := inst.Tuple
			if t.Arity() != 3 || !t.Field(1).Equal(atomLabel) {
				return true
			}
			p, ok1 := t.Field(0).AsInt()
			l, ok2 := t.Field(2).AsInt()
			if !ok1 || !ok2 || p < 0 || p >= int64(n) {
				badTuple = fmt.Errorf("regionlabel: bad label tuple %v", t)
				return false
			}
			labels[p] = l
			seen++
			return true
		})
	})
	if badTuple != nil {
		return nil, badTuple
	}
	if seen != n {
		return nil, fmt.Errorf("regionlabel: %d of %d pixels labeled", seen, n)
	}
	return labels, nil
}

// WorkerDef builds the single-process worker-model program
// (Threshold_and_label) for the given threshold cut: a replication whose
// guards threshold pixels and propagate the largest label across equal-
// threshold 4-neighbours.
func WorkerDef(cut int64) *process.Definition {
	cutLit := expr.Const(tuple.Int(cut))
	thresholdBranch := func(test expr.Expr, class int64) process.Branch {
		return process.Branch{Guard: process.Transact{
			Kind: process.Immediate,
			Query: pattern.Q(
				pattern.R(pattern.V("p"), pattern.C(atomImage), pattern.V("v")),
			).Where(test),
			Asserts: []pattern.Pattern{
				pattern.P(pattern.V("p"), pattern.C(atomThreshold), pattern.C(tuple.Int(class))),
				pattern.P(pattern.V("p"), pattern.C(atomLabel), pattern.V("p")),
			},
		}}
	}
	// Propagation: neighbours with equal threshold class and a larger
	// label overwrite this pixel's label (the label of the largest
	// xy-coordinate wins region-wide).
	propagate := process.Branch{Guard: process.Transact{
		Kind: process.Immediate,
		Query: pattern.Q(
			pattern.R(pattern.V("p1"), pattern.C(atomLabel), pattern.V("l1")),
			pattern.P(pattern.V("p1"), pattern.V("p2")),
			pattern.P(pattern.V("p2"), pattern.C(atomLabel), pattern.V("l2")).
				Guarded(expr.Gt(expr.V("l2"), expr.V("l1"))),
			pattern.P(pattern.V("p1"), pattern.C(atomThreshold), pattern.V("t")),
			pattern.P(pattern.V("p2"), pattern.C(atomThreshold), pattern.V("t")),
		),
		Asserts: []pattern.Pattern{
			pattern.P(pattern.V("p1"), pattern.C(atomLabel), pattern.V("l2")),
		},
	}}
	return &process.Definition{
		Name: "ThresholdAndLabel",
		Body: []process.Stmt{process.Replicate{Branches: []process.Branch{
			thresholdBranch(expr.Ge(expr.V("v"), cutLit), 1),
			thresholdBranch(expr.Lt(expr.V("v"), cutLit), 0),
			propagate,
		}}},
	}
}

// RunWorker executes the worker model and returns the labeling.
func RunWorker(ctx context.Context, rt *process.Runtime, im *workload.Image, cut int64) (Result, error) {
	s := rt.Engine().Store()
	loadImageTuples(s, im)
	loadAdjacency(s, im)
	if err := rt.Define(WorkerDef(cut)); err != nil {
		return Result{}, err
	}
	start := time.Now()
	if _, err := rt.Spawn("ThresholdAndLabel"); err != nil {
		return Result{}, err
	}
	if err := rt.WaitCtx(ctx); err != nil {
		return Result{}, err
	}
	if errs := rt.Errors(); len(errs) > 0 {
		return Result{}, fmt.Errorf("regionlabel: worker: %w", errs[0])
	}
	total := time.Since(start)
	labels, err := readLabels(s, im.W*im.H)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Labels:      labels,
		Regions:     workload.RegionCount(labels),
		Total:       total,
		FirstRegion: total, // no earlier completion signal in this model
	}, nil
}

// labelMatcher is the Label process's dynamic import: it admits the
// pixel's own tuples, neighbouring image tuples (so the process can detect
// when the neighbourhood is fully thresholded), and the threshold/label
// tuples of same-class neighbours — the dataspace-dependent import the
// paper uses to confine each community to one region.
//
// The matcher is *bounded*: every admissible tuple leads with one of at
// most five known pixel ids, so window scans and consensus-set
// materialization touch only those index buckets (O(1) per process instead
// of O(|D|) — the difference between a usable and an unusable community
// model, measured by E4).
type labelMatcher struct {
	r          int64
	t          tuple.Value
	neighbours map[int64]bool
	leads      []tuple.Value
}

// Admits implements view.Matcher.
func (m labelMatcher) Admits(rd dataspace.Reader, _ expr.Scope, tp tuple.Tuple) bool {
	if tp.Arity() != 3 {
		return false
	}
	p, ok := tp.Field(0).AsInt()
	if !ok {
		return false
	}
	if p == m.r {
		return true
	}
	if !m.neighbours[p] {
		return false
	}
	tag := tp.Field(1)
	switch {
	case tag.Equal(atomImage):
		return true
	case tag.Equal(atomThreshold):
		return tp.Field(2).Equal(m.t)
	case tag.Equal(atomLabel):
		// Same region iff the neighbour's threshold class equals ours
		// *in the current configuration* — the view depends on the
		// dataspace.
		same := false
		rd.Scan(3, tuple.Int(p), true, func(_ tuple.ID, u tuple.Tuple) bool {
			if u.Field(1).Equal(atomThreshold) {
				same = u.Field(2).Equal(m.t)
				return false
			}
			return true
		})
		return same
	default:
		return false
	}
}

// Restriction implements view.Matcher: arity-3 tuples led by the pixel or
// one of its 4-neighbours.
func (m labelMatcher) Restriction(_ expr.Scope, arity int, leads []tuple.Value) ([]tuple.Value, bool, bool) {
	if arity != 3 {
		return leads, false, true
	}
	return append(leads, m.leads...), true, true
}

// Arities implements view.Matcher.
func (m labelMatcher) Arities() (int, bool) { return 3, false }

func labelView(im *workload.Image) process.ViewFunc {
	return func(s expr.Scope) view.View {
		rv, _ := s.Lookup("r")
		r, _ := rv.AsInt()
		t, _ := s.Lookup("t")
		m := labelMatcher{
			r:          r,
			t:          t,
			neighbours: make(map[int64]bool, 4),
			leads:      []tuple.Value{tuple.Int(r)},
		}
		for _, q := range im.Neighbors4(r) {
			m.neighbours[q] = true
			m.leads = append(m.leads, tuple.Int(q))
		}
		return view.New(view.Union(m), view.Everything())
	}
}

// LabelDef builds the community-model Label(r, t) process.
//
//	PROCESS Label(r, t)  [dynamic IMPORT as above]
//	  → (r, label, r)
//	  ¬∃ <*, image, *>  ⇒ skip          // neighbourhood fully thresholded
//	  rep {
//	    ∃λ,q,λ': (r,label,λ)!, (q,label,λ') : λ' > λ → (r,label,λ')
//	  | ∃λ: (r,label,λ), (r,threshold,t)!,
//	        ¬∃ q,λ': (q,label,λ') ∧ λ' ≠ λ        ⇑ exit
//	  }
//
// The consensus guard reads "every label in my window equals mine"; since
// the window covers exactly the same-region neighbourhood, the consensus
// set is the region's community and the composite discards the region's
// threshold tuples, completing the region.
func LabelDef(im *workload.Image) *process.Definition {
	propagate := process.Branch{Guard: process.Transact{
		Kind: process.Immediate,
		Query: pattern.Q(
			pattern.R(pattern.V("r"), pattern.C(atomLabel), pattern.V("l")),
			pattern.P(pattern.V("q"), pattern.C(atomLabel), pattern.V("l2")).
				Guarded(expr.Gt(expr.V("l2"), expr.V("l"))),
		),
		Asserts: []pattern.Pattern{
			pattern.P(pattern.V("r"), pattern.C(atomLabel), pattern.V("l2")),
		},
	}}
	complete := process.Branch{Guard: process.Transact{
		Kind: process.Consensus,
		Query: pattern.Q(
			pattern.P(pattern.V("r"), pattern.C(atomLabel), pattern.V("l")),
			pattern.R(pattern.V("r"), pattern.C(atomThreshold), pattern.V("t")),
			pattern.N(pattern.W(), pattern.C(atomLabel), pattern.V("l2")).
				Guarded(expr.Ne(expr.V("l2"), expr.V("l"))),
		),
		Actions: []process.Action{process.Exit{}},
	}}
	return &process.Definition{
		Name:   "Label",
		Params: []string{"r", "t"},
		View:   labelView(im),
		Body: []process.Stmt{
			process.Transact{
				Kind:  process.Immediate,
				Query: pattern.Query{Quant: pattern.Exists},
				Asserts: []pattern.Pattern{
					pattern.P(pattern.V("r"), pattern.C(atomLabel), pattern.V("r")),
				},
			},
			process.Transact{
				Kind:  process.Delayed,
				Query: pattern.Q(pattern.N(pattern.W(), pattern.C(atomImage), pattern.W())),
			},
			process.Repeat{Branches: []process.Branch{propagate, complete}},
		},
	}
}

// RunCommunity executes the community model: a threshold pass that spawns
// one Label process per pixel, then per-region asynchronous labeling with
// consensus-detected completion.
func RunCommunity(ctx context.Context, rt *process.Runtime, im *workload.Image, cut int64) (Result, error) {
	s := rt.Engine().Store()
	loadImageTuples(s, im)
	if err := rt.Define(LabelDef(im)); err != nil {
		return Result{}, err
	}

	// Completion probe: a commit that deletes threshold tuples is a
	// region's consensus firing.
	start := time.Now()
	var firstRegion time.Duration
	s.OnCommit(func(rec dataspace.CommitRecord) {
		if firstRegion != 0 {
			return
		}
		for _, del := range rec.Deleted {
			if del.Tuple.Arity() == 3 && del.Tuple.Field(1).Equal(atomThreshold) {
				firstRegion = time.Since(start)
				return
			}
		}
	})

	// Threshold pass (the paper's Threshold process): threshold each pixel,
	// then create the Label community as a group. A region's completion is a
	// consensus over every Label process in the region, so all members must
	// be registered before any starts — spawning per pixel would let an
	// early part of a region reach consensus before its last pixel's
	// process exists.
	engine := rt.Engine()
	reqs := make([]process.SpawnReq, 0, im.W*im.H)
	for p := int64(0); p < int64(im.W*im.H); p++ {
		class := workload.Threshold(im.Pix[p], cut)
		res, err := engine.Immediate(txn.Request{
			Proc: tuple.Environment,
			View: view.Universal(),
			Query: pattern.Q(pattern.R(
				pattern.C(tuple.Int(p)), pattern.C(atomImage), pattern.W())),
			Asserts: []pattern.Pattern{pattern.P(
				pattern.C(tuple.Int(p)), pattern.C(atomThreshold), pattern.C(tuple.Int(class)))},
		})
		if err != nil {
			return Result{}, err
		}
		if !res.OK {
			return Result{}, fmt.Errorf("regionlabel: pixel %d has no image tuple", p)
		}
		reqs = append(reqs, process.SpawnReq{
			Type: "Label",
			Args: []tuple.Value{tuple.Int(p), tuple.Int(class)},
		})
	}
	if _, err := rt.SpawnGroup(reqs); err != nil {
		return Result{}, err
	}

	if err := rt.WaitCtx(ctx); err != nil {
		return Result{}, err
	}
	if errs := rt.Errors(); len(errs) > 0 {
		return Result{}, fmt.Errorf("regionlabel: community: %w", errs[0])
	}
	total := time.Since(start)
	if firstRegion == 0 {
		firstRegion = total
	}
	labels, err := readLabels(s, im.W*im.H)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Labels:      labels,
		Regions:     workload.RegionCount(labels),
		Total:       total,
		FirstRegion: firstRegion,
	}, nil
}
