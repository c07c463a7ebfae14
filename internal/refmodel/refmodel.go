// Package refmodel is an executable reference semantics for SDL
// transactions: a deliberately naive, obviously-correct model of the
// dataspace (a plain slice of instances, no indexes, no locks) and of
// one-transaction-at-a-time evaluation, translated as directly as possible
// from the paper's definitions:
//
//	W  = Import(p) ∩ D
//	(W_r, W_a) = q(W)
//	D' = (D − W_r) ∪ (Export(p) ∩ W_a)
//
// The test suite uses it for differential testing: random transaction
// sequences are applied to both the production engine and this model, and
// the resulting configurations must be equal. The model is not exported
// outside the repository's tests and benchmarks.
package refmodel

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// Instance is one tuple instance of the model.
type Instance struct {
	ID    tuple.ID
	Tuple tuple.Tuple
	Owner tuple.ProcessID
}

// Model is the naive dataspace: an append-only slice with tombstones
// compacted on demand. The zero value is an empty dataspace.
type Model struct {
	instances []Instance
	nextID    tuple.ID
}

// Assert adds a tuple and returns its instance ID.
func (m *Model) Assert(owner tuple.ProcessID, t tuple.Tuple) tuple.ID {
	m.nextID++
	m.instances = append(m.instances, Instance{ID: m.nextID, Tuple: t, Owner: owner})
	return m.nextID
}

// Len returns the number of instances.
func (m *Model) Len() int { return len(m.instances) }

// All returns the instances sorted by ID.
func (m *Model) All() []Instance {
	out := make([]Instance, len(m.instances))
	copy(out, m.instances)
	slices.SortFunc(out, func(a, b Instance) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// readerShim gives view matchers a dataspace.Reader over the model (for
// dynamic views). Only the methods matchers actually use do real work.
type readerShim struct {
	insts []Instance
}

// Scan is brute force: every scan enumerates everything and filters.
func (r readerShim) Scan(arity int, lead tuple.Value, leadKnown bool, fn func(tuple.ID, tuple.Tuple) bool) {
	for _, inst := range r.insts {
		if inst.Tuple.Arity() != arity {
			continue
		}
		if leadKnown && !inst.Tuple.Field(0).Equal(lead) {
			continue
		}
		if !fn(inst.ID, inst.Tuple) {
			return
		}
	}
}

func (r readerShim) Get(id tuple.ID) (dataspace.Instance, bool) {
	for _, inst := range r.insts {
		if inst.ID == id {
			return dataspace.Instance{ID: inst.ID, Tuple: inst.Tuple, Owner: inst.Owner}, true
		}
	}
	return dataspace.Instance{}, false
}

func (r readerShim) Each(fn func(dataspace.Instance) bool) {
	for _, inst := range r.insts {
		if !fn(dataspace.Instance{ID: inst.ID, Tuple: inst.Tuple, Owner: inst.Owner}) {
			return
		}
	}
}

func (r readerShim) Arities() []int {
	seen := map[int]bool{}
	var out []int
	for _, inst := range r.insts {
		a := inst.Tuple.Arity()
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func (r readerShim) Version() uint64 { return 0 }
func (r readerShim) Len() int        { return len(r.insts) }

// Txn is one transaction in the model's terms.
type Txn struct {
	Proc    tuple.ProcessID
	View    view.View
	Env     expr.Env
	Query   pattern.Query
	Asserts []pattern.Pattern
}

// Result reports the model's evaluation.
type Result struct {
	OK        bool
	Env       expr.Env
	Retracted []tuple.ID
	Asserted  []tuple.ID
}

// Apply evaluates one transaction per the paper's definition and, on
// success, applies its effect. On failure the model is unchanged.
//
// Solution choice is deterministic — an ∃ query takes the first solution
// of the written-order enumeration (Solutions) — and generally not the
// production engine's, so differential tests compare the two only on
// confluent queries (the tests use value-deterministic workloads).
func (m *Model) Apply(tx Txn) (Result, error) {
	rd := readerShim{insts: m.instances}

	// W = Import(p) ∩ D.
	var window []Instance
	for _, inst := range m.instances {
		if tx.View.Import.Admits(rd, tx.Env, inst.Tuple) {
			window = append(window, inst)
		}
	}

	// (W_r, W_a) = q(W), by the model's own enumerator — never the
	// production matcher, which this model is the oracle for.
	sols, err := Solutions(tx.Query, window, tx.Env)
	if err != nil {
		return Result{}, err
	}
	if len(sols) == 0 {
		return Result{Env: tx.Env}, nil
	}
	if tx.Query.Quant == pattern.Exists {
		sols = sols[:1]
	}

	// W_r: union of retractions, deduplicated.
	retract := map[tuple.ID]bool{}
	for _, sol := range sols {
		for _, id := range sol.Retracted {
			retract[id] = true
		}
	}
	// W_a ∩ Export(p).
	var asserts []tuple.Tuple
	for _, sol := range sols {
		for _, ap := range tx.Asserts {
			t, err := ap.Ground(sol.Env)
			if err != nil {
				return Result{}, fmt.Errorf("refmodel: ground: %w", err)
			}
			if tx.View.Exports(rd, sol.Env, t) {
				asserts = append(asserts, t)
			}
		}
	}

	// D' = (D − W_r) ∪ exports.
	kept := m.instances[:0]
	for _, inst := range m.instances {
		if !retract[inst.ID] {
			kept = append(kept, inst)
		}
	}
	m.instances = kept
	res := Result{OK: true, Env: tx.Env}
	if tx.Query.Quant == pattern.Exists {
		res.Env = sols[0].Env
	}
	for id := range retract {
		res.Retracted = append(res.Retracted, id)
	}
	slices.Sort(res.Retracted)
	for _, t := range asserts {
		res.Asserted = append(res.Asserted, m.Assert(tx.Proc, t))
	}
	return res, nil
}

// ApplyEffects replays one committed transaction's effects verbatim: the
// deleted instances are removed (each must be present with the same tuple)
// and the inserted instances are added under their production IDs (each
// must be fresh). The serializability audit uses it to re-execute a
// CommitLog in version order: if the replay ever references an instance
// the serial history would not contain, the concurrent execution was not
// equivalent to its commit order.
func (m *Model) ApplyEffects(deleted, inserted []dataspace.Instance) error {
	for _, del := range deleted {
		idx := -1
		for i, inst := range m.instances {
			if inst.ID == del.ID {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("refmodel: delete of absent instance #%d %s", del.ID, del.Tuple)
		}
		if !m.instances[idx].Tuple.Equal(del.Tuple) {
			return fmt.Errorf("refmodel: delete of #%d sees %s, history has %s",
				del.ID, del.Tuple, m.instances[idx].Tuple)
		}
		m.instances = append(m.instances[:idx], m.instances[idx+1:]...)
	}
	for _, ins := range inserted {
		for _, inst := range m.instances {
			if inst.ID == ins.ID {
				return fmt.Errorf("refmodel: insert of duplicate instance #%d %s", ins.ID, ins.Tuple)
			}
		}
		m.instances = append(m.instances, Instance{ID: ins.ID, Tuple: ins.Tuple, Owner: ins.Owner})
		if ins.ID > m.nextID {
			m.nextID = ins.ID
		}
	}
	return nil
}

// Replay re-executes a commit log serially, in version order, against a
// fresh model. The records must arrive sorted by version (trace.CommitLog
// returns them that way) and their versions must form the gap-free
// sequence 1..n — a duplicate or missing version means two commits claimed
// the same serialization position, so no serial order exists. Each record's
// effects then replay verbatim through ApplyEffects; any reference to an
// instance the serial history would not contain proves the concurrent
// execution was not equivalent to its commit order. The schedule
// exploration harness runs this after every explored seed.
func Replay(recs []dataspace.CommitRecord) (*Model, error) {
	for i, rec := range recs {
		if rec.Version != uint64(i+1) {
			return nil, fmt.Errorf("refmodel: commit %d has version %d, want %d (duplicate or missing serialization position)",
				i, rec.Version, uint64(i+1))
		}
	}
	return ReplayFrom(nil, 0, recs)
}

// ReplayFrom is Replay seeded with a base configuration: the model starts
// from the base instances (a checkpoint's contents) at baseVersion, and
// the records must carry strictly increasing versions > baseVersion.
// Unlike Replay, version GAPS are legal: the WAL recovery path replays the
// durable suffix of a crashed run, and a commit missing from it was never
// fsynced — but conflicting commits append to the log in version order, so
// every durable record with a version above the missing one provably
// commuted with it, and the durable records applied in version order are
// still a legal serial history. Duplicate versions remain an error: two
// records claiming one serialization position can never replay soundly.
func ReplayFrom(base []dataspace.Instance, baseVersion uint64, recs []dataspace.CommitRecord) (*Model, error) {
	n := len(base)
	for _, rec := range recs {
		n += len(rec.Inserted)
	}
	m := &Model{instances: make([]Instance, 0, n)}
	for _, inst := range base {
		m.instances = append(m.instances, Instance{ID: inst.ID, Tuple: inst.Tuple, Owner: inst.Owner})
		if inst.ID > m.nextID {
			m.nextID = inst.ID
		}
	}
	prev := baseVersion
	for i, rec := range recs {
		if rec.Version <= prev {
			return nil, fmt.Errorf("refmodel: commit %d has version %d after %d (not strictly increasing)",
				i, rec.Version, prev)
		}
		prev = rec.Version
		if err := m.ApplyEffects(rec.Deleted, rec.Inserted); err != nil {
			return nil, fmt.Errorf("refmodel: replaying version %d: %w", rec.Version, err)
		}
	}
	return m, nil
}

// Content returns the model's content multiset — ignoring instance
// identity, the right equality notion for differential tests, since the
// production engine and the model allocate IDs differently once their
// choices diverge — as the sorted list of its tuples' hashes. Two
// configurations hold equal content multisets exactly when their lists are
// equal.
func (m *Model) Content() []uint64 {
	out := make([]uint64, len(m.instances))
	for i, inst := range m.instances {
		out[i] = inst.Tuple.Hash()
	}
	slices.Sort(out)
	return out
}

// ContentOf is Content for a production store.
func ContentOf(s *dataspace.Store) []uint64 {
	var out []uint64
	s.Snapshot(func(r dataspace.Reader) {
		out = make([]uint64, 0, r.Len())
		r.Each(func(inst dataspace.Instance) bool {
			out = append(out, inst.Tuple.Hash())
			return true
		})
	})
	slices.Sort(out)
	return out
}

// SameContent reports whether the model and the store hold the same content
// multiset: their sorted hash lists (Content, ContentOf) are equal. The two
// sides are hashed and sorted side by side, the model on a goroutine of its
// own and the store on the caller's.
func SameContent(m *Model, s *dataspace.Store) bool {
	model := make(chan []uint64, 1)
	go func() { model <- m.Content() }()
	store := ContentOf(s)
	return slices.Equal(<-model, store)
}

// Compile-time check.
var _ dataspace.Reader = readerShim{}
