package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/sdl-lang/sdl/internal/dataspace"
)

// TestRecoverGoldenDirectory recovers a log directory written by commit
// 049c2d8 — a checkpoint plus one segment after it (a key-latched
// read-modify-write, a -0.0 float, deletes of checkpointed instances, the
// empty tuple) — and requires the configuration that commit dumped on its
// way out. The one difference is deliberate: it printed the float as -0,
// and the change canonicalizes the sign away on decode.
func TestRecoverGoldenDirectory(t *testing.T) {
	golden := filepath.Join("testdata", "golden-049c2d8")
	want, err := os.ReadFile(filepath.Join(golden, "final.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 16} {
		dir := t.TempDir()
		for _, name := range []string{"ckpt-0000000002.ckpt", "wal-0000000003.seg"} {
			data, err := os.ReadFile(filepath.Join(golden, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{Sync: SyncCommit})
		if err != nil {
			t.Fatal(err)
		}
		s := dataspace.New(dataspace.WithShards(shards))
		stats, err := l.Recover(s)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if stats.CheckpointVersion != 23 || stats.Replayed != 4 || stats.TornBytes != 0 || stats.Gaps != 0 {
			t.Errorf("%d shards: recovery stats %+v, want checkpoint 23 + 4 records, nothing torn or missing", shards, stats)
		}
		insts := s.All()
		sort.Slice(insts, func(i, j int) bool { return insts[i].ID < insts[j].ID })
		var got strings.Builder
		fmt.Fprintf(&got, "version %d\n", s.Version())
		for _, inst := range insts {
			fmt.Fprintf(&got, "%d %d %s\n", inst.ID, inst.Owner, inst.Tuple)
		}
		if got.String() != string(want) {
			t.Errorf("%d shards: recovered configuration differs from the golden dump\ngot:\n%swant:\n%s", shards, got.String(), want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
