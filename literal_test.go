package sdl

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/sdl-lang/sdl/internal/lang"
	"github.com/sdl-lang/sdl/internal/refmodel"
)

// A literal assertion is ground once, at compile time, so every instance
// asserted from it — by every run of the statement, on every store — shares
// one tuple. The program asserts the same literal statement five times in a
// loop and retracts one instance. Run twice from one compiled program, on a
// durable system and on a plain one, each store must hold four instances
// with equal tuples; so must a checkpoint round trip and a WAL restart of
// the durable one, and the commit log replayed through the reference model
// must land on the durable store's content.
func TestLiteralAssertionsShareOneTuple(t *testing.T) {
	const src = `main
  -> <count, 0>;
  rep {
    <count, ?n>! where ?n < 5 -> <count, ?n + 1>, <lit, 7, "s">
  };
  <lit, 7, "s">! -> <retracted, 1>
end
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := lang.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	lit := NewTuple(Atom("lit"), Int(7), Str("s"))
	check := func(what string, insts []Instance) {
		t.Helper()
		ids := map[TupleID]bool{}
		for _, in := range insts {
			if in.Tuple.Equal(lit) {
				ids[in.ID] = true
			}
		}
		if len(ids) != 4 || len(insts) != 6 {
			t.Errorf("%s: %d distinct instances of %v among %d, want 4 among 6 (with the count and the retraction mark)",
				what, len(ids), lit, len(insts))
		}
	}
	run := func(sys *System) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := compiled.Run(ctx, sys.Runtime); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	sys, err := Open(Options{WALDir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	clog := NewCommitLog()
	clog.Attach(sys.Store)
	run(sys)
	check("durable run", sys.Store.All())
	model, err := refmodel.Replay(clog.Commits())
	if err != nil {
		t.Fatal(err)
	}
	if !refmodel.SameContent(model, sys.Store) {
		t.Errorf("commit log replay %v diverges from the store %v", model.All(), sys.Store.All())
	}

	plain := New(Options{})
	run(plain)
	check("second store", plain.Store.All())
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Store.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	check("checkpoint round trip", restored.All())

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err = Open(Options{WALDir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	check("WAL restart", sys.Store.All())
}
