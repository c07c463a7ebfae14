// Command sdllint checks the runtime's lock discipline. It lints the
// shared-dataspace store (and any other package directory named on the
// command line) against four rules the code comments promise but the
// compiler cannot enforce:
//
//   - lock-order: the three-layer commit ladder acquires key latches,
//     then intent locks, then shard mu — never a lower class while a
//     higher one is held; the group-commit queue mutex is a leaf.
//   - unlocked/rlock-mutation: the live tuple structures (the instance
//     slab shard.slab, its ID table shard.ids and free list shard.vacant,
//     edited through shard.place/vacate and the slab's put; the lead
//     index and published
//     secondary indexes, whose buckets are edited through
//     idIndex.add/remove, and the spill slabs their large sets live in;
//     the tables' own insert/removeAt) are only written under an
//     exclusive shard mu — never lock-free, never under a read lock.
//   - unlocked-append: DurableSink.Append runs inside the commit
//     critical section (exclusive mu held), so conflicting commits reach
//     the log in version order.
//   - locked-after-commit: the after-commit hooks (Store.runAfterCommit,
//     and the commit tail Store.finishCommit that calls it) run once the
//     commit's locks are released — no key latch, intent or
//     mu held, nor annotated as held — because a hook may commit.
//
// The analysis is intraprocedural; functions whose callers hold locks
// carry a `lint:holds <class ...>` doc-comment annotation (see lint.go).
// Exit status: 0 clean, 1 findings, 2 usage or parse error.
//
// Usage:
//
//	sdllint [-q] [package-dir ...]   (default: internal/dataspace)
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the per-directory summary")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdllint [-q] [package-dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"internal/dataspace"}
	}
	bad := false
	for _, dir := range dirs {
		findings, err := LintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdllint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			bad = true
		} else if !*quiet {
			fmt.Printf("sdllint: %s: ok\n", dir)
		}
	}
	if bad {
		os.Exit(1)
	}
}
