package wal

// Kill-and-restore test: a child process (this test binary re-executed
// with SDL_WAL_CHILD set) runs a counter-upsert + balance-transfer
// campaign against a WAL-backed store; the parent SIGKILLs it at a
// randomized point, reads the surviving log as pure evidence, replays it
// on the reference model, checks the workload invariants, and then
// recovers into a store with a DIFFERENT shard count.
//
// Durable-before-visible is what makes the acknowledgment invariant
// checkable: the child appends one ack byte (a plain write(2), which a
// SIGKILL cannot revoke) to a per-key file only AFTER the commit call
// returns, and a commit call returns only after WaitDurable. So every
// acked effect must be present in the recovered state — a missing one is
// a lost committed effect, and the strictly-increasing version check in
// refmodel.ReplayFrom rules out duplicated ones. (Version GAPS are legal:
// commuting commits append in flight order, so an unsynced commit can
// leave a hole below durable, acknowledged neighbors — see wal.State.)

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/dataspace"
	"github.com/sdl-lang/sdl/internal/refmodel"
	"github.com/sdl-lang/sdl/internal/tuple"
)

const (
	crashCounters   = 8    // counter keys 100..107, upserted via key latches
	crashAccounts   = 3    // account keys 200..202, transfers conserve the sum
	crashBalance    = 1000 // initial balance per account
	crashWorkers    = 4
	crashChildEnv   = "SDL_WAL_CHILD"
	crashDirEnv     = "SDL_WAL_DIR"
	crashAcksEnv    = "SDL_WAL_ACKS"
	crashShardsEnv  = "SDL_WAL_SHARDS"
	crashSyncEnv    = "SDL_WAL_SYNC"
	crashItersEnv   = "SDL_WAL_KILL_ITERS"
	crashSegSizeEnv = "SDL_WAL_SEGSIZE"
)

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) != "" {
		runCrashChild()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCrashChild is the process that gets killed. It never exits on its
// own: setup, print "ready", then hammer the store until SIGKILL.
func runCrashChild() {
	dir := os.Getenv(crashDirEnv)
	acks := os.Getenv(crashAcksEnv)
	shards, _ := strconv.Atoi(os.Getenv(crashShardsEnv))
	mode, err := ParseSyncMode(os.Getenv(crashSyncEnv))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	segSize, _ := strconv.Atoi(os.Getenv(crashSegSizeEnv))

	s := dataspace.New(dataspace.WithShards(shards))
	l, err := Open(dir, Options{Sync: mode, SegmentSize: int64(segSize)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(2)
	}
	if _, err := l.Recover(s); err != nil {
		fmt.Fprintln(os.Stderr, "recover:", err)
		os.Exit(2)
	}
	s.SetDurable(l)

	// Seed the workload state: counters at 0, accounts at their opening
	// balance. These are commits too — they may be the only ones that
	// survive a fast kill.
	for k := 0; k < crashCounters; k++ {
		s.Assert(1, tuple.New(tuple.Int(int64(100+k)), tuple.Int(0)))
	}
	for a := 0; a < crashAccounts; a++ {
		s.Assert(1, tuple.New(tuple.Int(int64(200+a)), tuple.Int(crashBalance)))
	}

	ackFiles := make([]*os.File, crashCounters)
	for k := range ackFiles {
		f, err := os.OpenFile(filepath.Join(acks, fmt.Sprintf("upsert-%d", k)),
			os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o666)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ack:", err)
			os.Exit(2)
		}
		ackFiles[k] = f
	}

	fmt.Println("ready")

	for w := 0; w < crashWorkers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				k := rng.Intn(crashCounters)
				if err := crashUpsert(s, tuple.ProcessID(w+1), int64(100+k)); err != nil {
					fmt.Fprintln(os.Stderr, "upsert:", err)
					os.Exit(2)
				}
				// Acked only after the commit returned, i.e. after it
				// became durable.
				ackFiles[k].Write([]byte{1})
				if i%3 == 0 {
					from := rng.Intn(crashAccounts)
					to := (from + 1 + rng.Intn(crashAccounts-1)) % crashAccounts
					if err := crashTransfer(s, tuple.ProcessID(w+1), int64(200+from), int64(200+to), 1+int64(rng.Intn(5))); err != nil {
						fmt.Fprintln(os.Stderr, "transfer:", err)
						os.Exit(2)
					}
				}
			}
		}(w)
	}
	select {} // run until killed
}

// crashUpsert bumps counter <k, v> → <k, v+1> through the commuting
// (key-latch, group-commit) path.
func crashUpsert(s *dataspace.Store, owner tuple.ProcessID, k int64) error {
	key := dataspace.InterestKey{Arity: 2, Lead: tuple.Int(k), LeadKnown: true}
	return s.UpdateCommuting(owner, []dataspace.InterestKey{key}, func(w dataspace.Writer) error {
		var id tuple.ID
		var cur int64
		found := false
		w.Scan(2, tuple.Int(k), true, func(i tuple.ID, t tuple.Tuple) bool {
			if v, ok := t.Field(1).AsInt(); ok {
				id, cur, found = i, v, true
			}
			return false
		})
		if !found {
			return fmt.Errorf("counter %d missing", k)
		}
		if err := w.Delete(id); err != nil {
			return err
		}
		w.Insert(tuple.New(tuple.Int(k), tuple.Int(cur+1)), owner)
		return nil
	})
}

// crashTransfer moves amount between two accounts in one commit through
// the shard-2PL path.
func crashTransfer(s *dataspace.Store, owner tuple.ProcessID, from, to, amount int64) error {
	keys := []dataspace.InterestKey{
		{Arity: 2, Lead: tuple.Int(from), LeadKnown: true},
		{Arity: 2, Lead: tuple.Int(to), LeadKnown: true},
	}
	return s.UpdateKeys(owner, keys, func(w dataspace.Writer) error {
		get := func(acct int64) (tuple.ID, int64, error) {
			var id tuple.ID
			var bal int64
			found := false
			w.Scan(2, tuple.Int(acct), true, func(i tuple.ID, t tuple.Tuple) bool {
				if v, ok := t.Field(1).AsInt(); ok {
					id, bal, found = i, v, true
				}
				return false
			})
			if !found {
				return 0, 0, fmt.Errorf("account %d missing", acct)
			}
			return id, bal, nil
		}
		fid, fbal, err := get(from)
		if err != nil {
			return err
		}
		tid, tbal, err := get(to)
		if err != nil {
			return err
		}
		if err := w.Delete(fid); err != nil {
			return err
		}
		if err := w.Delete(tid); err != nil {
			return err
		}
		w.Insert(tuple.New(tuple.Int(from), tuple.Int(fbal-amount)), owner)
		w.Insert(tuple.New(tuple.Int(to), tuple.Int(tbal+amount)), owner)
		return nil
	})
}

// TestKillRecover is the kill-and-restore suite. Iteration count per
// (shards, mode) pair comes from SDL_WAL_KILL_ITERS (default 3, so the
// suite stays cheap in `go test ./...`; the acceptance run uses ~100).
func TestKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test skipped in -short")
	}
	iters := 3
	if v := os.Getenv(crashItersEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad %s: %v", crashItersEnv, err)
		}
		iters = n
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	shardCounts := []int{1, 4, 16}
	modes := []SyncMode{SyncInterval, SyncBatch}
	for _, shards := range shardCounts {
		for i := 0; i < iters; i++ {
			mode := modes[i%len(modes)]
			// Recover into a different shard count than the child wrote.
			reShards := shardCounts[(indexOf(shardCounts, shards)+1+i%2)%len(shardCounts)]
			t.Run(fmt.Sprintf("shards=%d/iter=%d/%s", shards, i, mode), func(t *testing.T) {
				runKillIteration(t, rng, shards, reShards, mode)
			})
		}
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func runKillIteration(t *testing.T, rng *rand.Rand, shards, reShards int, mode SyncMode) {
	dir := t.TempDir()
	acks := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashDirEnv+"="+dir,
		crashAcksEnv+"="+acks,
		crashShardsEnv+"="+strconv.Itoa(shards),
		crashSyncEnv+"="+mode.String(),
		// Small segments so kills regularly land near rotation boundaries.
		crashSegSizeEnv+"=4096",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	// Wait for setup, then let the campaign run for a random slice before
	// pulling the plug.
	br := bufio.NewReader(stdout)
	if line, err := br.ReadString('\n'); err != nil || line != "ready\n" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child never became ready: %q %v", line, err)
	}
	time.Sleep(time.Duration(2+rng.Intn(58)) * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	cmd.Wait() // expected: signal: killed

	// Pure evidence pass: what did the log durably record?
	st, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	model, err := refmodel.ReplayFrom(st.Base, st.CheckpointVersion, st.Records)
	if err != nil {
		t.Fatalf("reference replay of surviving log: %v", err)
	}

	// Workload invariants on the replayed state.
	counters := map[int64]int64{}
	balances := map[int64]int64{}
	for _, inst := range model.All() {
		lead, ok := inst.Tuple.Field(0).AsInt()
		if !ok || inst.Tuple.Arity() != 2 {
			t.Fatalf("unexpected tuple in history: %s", inst.Tuple)
		}
		val, _ := inst.Tuple.Field(1).AsInt()
		switch {
		case lead >= 100 && lead < 100+crashCounters:
			if _, dup := counters[lead]; dup {
				t.Fatalf("counter %d duplicated", lead)
			}
			counters[lead] = val
		case lead >= 200 && lead < 200+crashAccounts:
			if _, dup := balances[lead]; dup {
				t.Fatalf("account %d duplicated", lead)
			}
			balances[lead] = val
		default:
			t.Fatalf("unexpected lead %d", lead)
		}
	}
	if len(counters) > 0 || len(balances) > 0 {
		// Setup commits are individual; a kill mid-setup can leave a
		// prefix. Once all accounts exist the conservation law must hold.
		if len(balances) == crashAccounts {
			var sum int64
			for _, b := range balances {
				sum += b
			}
			if sum != crashAccounts*crashBalance {
				t.Fatalf("transfer sum not conserved: %d != %d", sum, crashAccounts*crashBalance)
			}
		}
		for k := int64(0); k < crashCounters; k++ {
			ackBytes, err := os.ReadFile(filepath.Join(acks, fmt.Sprintf("upsert-%d", k)))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			acked := int64(len(ackBytes))
			got, present := counters[100+k]
			if !present {
				if acked > 0 {
					t.Fatalf("counter %d has %d acked upserts but no surviving instance", k, acked)
				}
				continue
			}
			// Acked ⇒ durable ⇒ recovered; at most one un-acked commit can
			// be in flight per worker.
			if got < acked {
				t.Fatalf("counter %d lost committed effects: recovered %d < acked %d", k, got, acked)
			}
			if got > acked+crashWorkers {
				t.Fatalf("counter %d duplicated effects: recovered %d > acked %d + %d workers", k, got, acked, crashWorkers)
			}
		}
	}

	// Full recovery at a different shard count must match the evidence.
	s := dataspace.New(dataspace.WithShards(reShards))
	l, err := Open(dir, Options{Sync: mode})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := l.Recover(s)
	if err != nil {
		t.Fatalf("Recover at %d shards: %v", reShards, err)
	}
	if !refmodel.SameContent(model, s) {
		t.Fatalf("recovered store (%d shards) diverges from replayed evidence", reShards)
	}
	if stats.Replayed != len(st.Records) {
		t.Fatalf("recovery replayed %d records, evidence had %d", stats.Replayed, len(st.Records))
	}

	// And the recovered store keeps working: more durable commits, then a
	// clean close and one more recovery round-trip.
	s.SetDurable(l)
	s.Assert(9, tuple.New(tuple.Int(300), tuple.Int(1)))
	want := refmodel.ContentOf(s)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := dataspace.New(dataspace.WithShards(shards))
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if _, err := l2.Recover(s2); err != nil {
		t.Fatalf("final recover: %v", err)
	}
	if !slices.Equal(want, refmodel.ContentOf(s2)) {
		t.Fatal("post-recovery commits lost")
	}
	l2.Close()
}
