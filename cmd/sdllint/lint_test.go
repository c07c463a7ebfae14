package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededViolations lints the fixture and requires exactly the
// findings its `// want <rule>` markers declare, at the marked lines —
// proving each rule both fires on its seeded violation and stays quiet on
// the adjacent clean patterns (early-exit balancing, annotations,
// closure scoping).
func TestSeededViolations(t *testing.T) {
	path := filepath.Join("testdata", "bad.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{} // line -> rule
	for i, line := range strings.Split(string(src), "\n") {
		if _, rule, ok := strings.Cut(line, "// want "); ok {
			want[i+1] = strings.TrimSpace(rule)
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no // want markers")
	}

	findings, err := LintFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	for _, f := range findings {
		if prev, dup := got[f.Pos.Line]; dup {
			t.Errorf("line %d: two findings (%s, %s)", f.Pos.Line, prev, f.Rule)
		}
		got[f.Pos.Line] = f.Rule
	}
	for line, rule := range want {
		if got[line] != rule {
			t.Errorf("line %d: want rule %q, got %q", line, rule, got[line])
		}
	}
	for line, rule := range got {
		if _, expected := want[line]; !expected {
			t.Errorf("line %d: unexpected finding %q", line, rule)
		}
	}
}

// TestDataspaceClean is the acceptance gate: the real runtime passes its
// own lock-discipline lint.
func TestDataspaceClean(t *testing.T) {
	findings, err := LintDir(filepath.Join("..", "..", "internal", "dataspace"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestAnnotationParsing: a lint:holds annotation seeds exactly the named
// classes; unknown names are ignored rather than crashing.
func TestAnnotationParsing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ann.go")
	src := `package p

import "sync"

type shard struct {
	mu   sync.RWMutex
	slab []int
}

// lint:holds mu, bogus
func ok(sh *shard) { sh.slab[1] = 2 }

// lint:holds latch
func bad(sh *shard) { sh.slab[1] = 2 }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := LintFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want 1 finding (bad only), got %d: %v", len(findings), findings)
	}
	if findings[0].Rule != "unlocked-mutation" || !strings.Contains(findings[0].Msg, "bad ") {
		t.Errorf("wrong finding: %v", findings[0])
	}
}

// TestLockSetModeling: the store's lockSet/unlockSet helpers are modeled
// as intent+mu acquisition, including through a defer.
func TestLockSetModeling(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "helpers.go")
	src := `package p

type store struct {
	durable interface{ Append(any) uint64 }
}

func (s *store) lockSet()   {}
func (s *store) unlockSet() {}

type shard struct{ slab []int }

func viaDefer(s *store, sh *shard) {
	s.lockSet()
	defer s.unlockSet()
	sh.slab[1] = 2
	s.durable.Append(nil)
}

func afterRelease(s *store, sh *shard) {
	s.lockSet()
	s.unlockSet()
	sh.slab[1] = 2
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := LintFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want 1 finding (afterRelease only), got %d: %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Msg, "afterRelease") {
		t.Errorf("wrong function blamed: %v", findings[0])
	}
}
