package txn

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/expr"
	"github.com/sdl-lang/sdl/internal/pattern"
	"github.com/sdl-lang/sdl/internal/tuple"
	"github.com/sdl-lang/sdl/internal/view"
)

// Bank stress: random concurrent transfers between account tuples must
// preserve the total balance, never produce a negative balance (the guard
// forbids overdrafts), and the final state must equal the commit-log
// replay — a strong serializability and atomicity check.
func TestBankTransferStress(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		const (
			accounts = 8
			workers  = 6
			transfer = 60
			initial  = 100
		)
		s := dataspace.New()
		// The recorder-equivalent: track the log through commit hooks.
		type logEntry struct {
			inserted, deleted []dataspace.Instance
		}
		var logMu sync.Mutex
		var log []logEntry
		s.OnCommit(func(rec dataspace.CommitRecord) {
			// The record's slices are lent for the call: keep copies.
			logMu.Lock()
			log = append(log, logEntry{inserted: slices.Clone(rec.Inserted), deleted: slices.Clone(rec.Deleted)})
			logMu.Unlock()
		})
		acct := tuple.Atom("acct")
		for i := 0; i < accounts; i++ {
			s.Assert(tuple.Environment, tuple.New(acct, tuple.Int(int64(i)), tuple.Int(initial)))
		}
		e := New(s)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(testSeed(int64(w))))
				for i := 0; i < transfer; i++ {
					from := rng.Int63n(accounts)
					to := rng.Int63n(accounts)
					if from == to {
						continue
					}
					amt := 1 + rng.Int63n(5)
					// Atomic guarded transfer: fails (no effect) when the
					// source balance is insufficient.
					res, err := e.Delayed(context.Background(), Request{
						Proc: tuple.ProcessID(w + 1),
						View: view.Universal(),
						Query: pattern.Q(
							pattern.R(pattern.C(acct), pattern.C(tuple.Int(from)), pattern.V("x")).
								Guarded(expr.Ge(expr.V("x"), expr.Const(tuple.Int(amt)))),
							pattern.R(pattern.C(acct), pattern.C(tuple.Int(to)), pattern.V("y")),
						),
						Asserts: []pattern.Pattern{
							pattern.P(pattern.C(acct), pattern.C(tuple.Int(from)),
								pattern.E(expr.Sub(expr.V("x"), expr.Const(tuple.Int(amt))))),
							pattern.P(pattern.C(acct), pattern.C(tuple.Int(to)),
								pattern.E(expr.Add(expr.V("y"), expr.Const(tuple.Int(amt))))),
						},
					})
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
					if !res.OK {
						t.Error("delayed transfer reported failure")
						return
					}
				}
			}(w)
		}
		wg.Wait()

		// Invariant 1: conservation and non-negativity.
		var total int64
		balances := map[int64]int64{}
		s.Snapshot(func(r dataspace.Reader) {
			r.Each(func(inst dataspace.Instance) bool {
				id, _ := inst.Tuple.Field(1).AsInt()
				v, _ := inst.Tuple.Field(2).AsInt()
				balances[id] = v
				total += v
				return true
			})
		})
		if total != accounts*initial {
			t.Errorf("total = %d, want %d", total, accounts*initial)
		}
		if len(balances) != accounts {
			t.Errorf("accounts = %d", len(balances))
		}
		for id, v := range balances {
			if v < 0 {
				t.Errorf("account %d overdrawn: %d", id, v)
			}
		}

		// Invariant 2: replaying the commit log reproduces the final state
		// exactly (every commit was atomic and fully recorded).
		replay := map[tuple.ID]tuple.Tuple{}
		logMu.Lock()
		for _, entry := range log {
			for _, del := range entry.deleted {
				delete(replay, del.ID)
			}
			for _, ins := range entry.inserted {
				replay[ins.ID] = ins.Tuple
			}
		}
		logMu.Unlock()
		if len(replay) != s.Len() {
			t.Fatalf("replay has %d instances, store %d", len(replay), s.Len())
		}
		s.Snapshot(func(r dataspace.Reader) {
			r.Each(func(inst dataspace.Instance) bool {
				if got, ok := replay[inst.ID]; !ok || !got.Equal(inst.Tuple) {
					t.Errorf("replay mismatch at %d: %v vs %v", inst.ID, got, inst.Tuple)
				}
				return true
			})
		})
	})
}

// Random mixed workload: asserts, guarded retracts, and reads race; the
// store's Len must equal asserts minus retracts observed through results.
func TestMixedWorkloadAccounting(t *testing.T) {
	stableIDs(t, func(t *testing.T) {
		s := dataspace.New()
		e := New(s)
		const workers = 4
		const ops = 150
		var inserted, removed int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(testSeed(int64(100 + w))))
				for i := 0; i < ops; i++ {
					switch rng.Intn(3) {
					case 0: // assert
						res, err := e.Immediate(Request{
							Proc:  tuple.ProcessID(w + 1),
							View:  view.Universal(),
							Query: pattern.Query{Quant: pattern.Exists},
							Asserts: []pattern.Pattern{pattern.P(
								pattern.C(tuple.Atom("item")), pattern.C(tuple.Int(rng.Int63n(50))))},
						})
						if err != nil || !res.OK {
							t.Errorf("assert: %v %v", res.OK, err)
							return
						}
						mu.Lock()
						inserted++
						mu.Unlock()
					case 1: // retract one, if any
						res, err := e.Immediate(Request{
							Proc:  tuple.ProcessID(w + 1),
							View:  view.Universal(),
							Query: pattern.Q(pattern.R(pattern.C(tuple.Atom("item")), pattern.W())),
						})
						if err != nil {
							t.Errorf("retract: %v", err)
							return
						}
						if res.OK {
							mu.Lock()
							removed++
							mu.Unlock()
						}
					default: // read
						if _, err := e.Immediate(Request{
							Proc:  tuple.ProcessID(w + 1),
							View:  view.Universal(),
							Query: pattern.Q(pattern.P(pattern.C(tuple.Atom("item")), pattern.V("v"))),
						}); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if got := int64(s.Len()); got != inserted-removed {
			t.Errorf("len = %d, inserted-removed = %d", got, inserted-removed)
		}
	})
}

// Snapshot consistency of the shared read path: while transfers move money
// between accounts — planned ones committing under key latches, unplanned
// ones under the full-store lock — every ∀ read must observe the conserved
// total, whether it scans every shard under shared locks (unknown lead) or
// joins the accounts by constant lead on epoch snapshots (torn reads falling
// back to the planned shards' shared locks). A read that saw half a
// transfer would report a different sum.
func TestReadsObserveConservedSum(t *testing.T) {
	const (
		accounts  = 6
		writers   = 3
		readers   = 3
		transfers = 40
		reads     = 60
		initial   = 100
	)
	acct := pattern.C(tuple.Atom("acct"))
	id := func(i int64) pattern.Field { return pattern.C(tuple.Int(i)) }
	amount := func(v string, op func(l, r expr.Expr) expr.Binary, amt int64) pattern.Field {
		return pattern.E(op(expr.V(v), expr.Const(tuple.Int(amt))))
	}
	var joined []pattern.Pattern
	for i := int64(0); i < accounts; i++ {
		joined = append(joined, pattern.P(id(i), acct, pattern.V(string(rune('a'+i)))))
	}
	scanAll := pattern.Query{Quant: pattern.ForAll,
		Patterns: []pattern.Pattern{pattern.P(pattern.V("id"), acct, pattern.V("b"))}}
	joinAll := pattern.Query{Quant: pattern.ForAll, Patterns: joined}

	stableIDs(t, func(t *testing.T) {
		for _, shards := range []int{1, 4, 16} {
			s := dataspace.New(dataspace.WithShards(shards))
			for i := int64(0); i < accounts; i++ {
				s.Assert(tuple.Environment, tuple.New(tuple.Int(i), tuple.Atom("acct"), tuple.Int(initial)))
			}
			e := New(s)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(testSeed(int64(200 + w))))
					for i := 0; i < transfers; i++ {
						from := rng.Int63n(accounts)
						to := (from + 1 + rng.Int63n(accounts-1)) % accounts
						amt := 1 + rng.Int63n(5)
						src, dst := pattern.R(id(from), acct, pattern.V("x")), pattern.R(id(to), acct, pattern.V("y"))
						if rng.Intn(2) == 0 {
							// Unknown leads pinned by guards: same transfer, no
							// footprint plan, so it commits under the full lock.
							src = pattern.R(pattern.V("f"), acct, pattern.V("x")).
								Guarded(expr.Eq(expr.V("f"), expr.Const(tuple.Int(from))))
							dst = pattern.R(pattern.V("t"), acct, pattern.V("y")).
								Guarded(expr.Eq(expr.V("t"), expr.Const(tuple.Int(to))))
						}
						res, err := e.Immediate(Request{
							Proc:  tuple.ProcessID(w + 1),
							View:  view.Universal(),
							Query: pattern.Q(src, dst),
							Asserts: []pattern.Pattern{
								pattern.P(id(from), acct, amount("x", expr.Sub, amt)),
								pattern.P(id(to), acct, amount("y", expr.Add, amt)),
							},
						})
						if err != nil || !res.OK {
							t.Errorf("shards %d transfer %d->%d: ok=%v err=%v", shards, from, to, res.OK, err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < reads; i++ {
						q := scanAll
						if (i+r)%2 == 0 {
							q = joinAll
						}
						res, err := e.Immediate(Request{Proc: tuple.ProcessID(100 + r), View: view.Universal(), Query: q})
						if err != nil || !res.OK {
							t.Errorf("shards %d read %d: ok=%v err=%v", shards, i, res.OK, err)
							return
						}
						var sum, n int64
						for _, env := range res.Solutions {
							for name, v := range env {
								if b, ok := v.AsInt(); ok && name != "id" {
									sum, n = sum+b, n+1
								}
							}
						}
						if sum != accounts*initial || n != accounts {
							t.Errorf("shards %d read %d saw %d balances summing to %d, want %d summing to %d",
								shards, i, n, sum, accounts, accounts*initial)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			snap := s.Metrics().Snapshot()
			if snap.KeyCommits == 0 || snap.CoarseCommits <= accounts {
				t.Errorf("shards %d: %d key commits, %d coarse commits — a commit path went unexercised",
					shards, snap.KeyCommits, snap.CoarseCommits)
			}
			t.Logf("shards %d: %d epoch reads, %d torn", shards, snap.EpochReads, snap.EpochFallbacks)
			if snap.SharedReads != readers*reads {
				t.Errorf("shards %d: %d shared reads, want %d", shards, snap.SharedReads, readers*reads)
			}
		}
	})
}
