package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sdl-lang/sdl/internal/analysis"
	"github.com/sdl-lang/sdl/internal/lang"
)

var update = flag.Bool("update", false, "rewrite golden files")

// renderDiags produces the golden format: one `severity line:col:
// [check] message` line per diagnostic.
func renderDiags(ds []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.Severity.String())
		b.WriteByte(' ')
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func analyzeFixture(t *testing.T, name string, opts analysis.Options) []analysis.Diagnostic {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatalf("%s does not parse: %v", name, err)
	}
	diags, err := analysis.Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestGolden runs each seeded fixture under just its own pass (so the
// expectations stay focused), and the clean fixture under all passes.
func TestGolden(t *testing.T) {
	cases := []struct {
		fixture string
		opts    analysis.Options
	}{
		{"view", analysis.Options{Checks: []string{analysis.CheckView}}},
		{"shape", analysis.Options{Checks: []string{analysis.CheckShape}}},
		{"blocked", analysis.Options{Checks: []string{analysis.CheckBlocked}}},
		{"consensus", analysis.Options{Checks: []string{analysis.CheckConsensus}}},
		{"hygiene", analysis.Options{Checks: []string{analysis.CheckHygiene}}},
		{"footprint", analysis.Options{Checks: []string{analysis.CheckFootprint}}},
		{"clean", analysis.Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			got := renderDiags(analyzeFixture(t, tc.fixture+".sdl", tc.opts))
			goldenPath := filepath.Join("testdata", tc.fixture+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSeededFindingsPerCheck is the acceptance gate in code: every check
// class detects at least one seeded violation in its fixture, at the
// expected worst severity (the footprint pass is informational by design,
// so its fixture is expected to surface notes).
func TestSeededFindingsPerCheck(t *testing.T) {
	worst := map[string]analysis.Severity{
		analysis.CheckView:      analysis.Error,
		analysis.CheckShape:     analysis.Warn,
		analysis.CheckBlocked:   analysis.Warn,
		analysis.CheckConsensus: analysis.Warn,
		analysis.CheckHygiene:   analysis.Warn,
		analysis.CheckFootprint: analysis.Note,
	}
	for _, check := range analysis.AllChecks {
		diags := analyzeFixture(t, check+".sdl", analysis.Options{Checks: []string{check}})
		max := analysis.Note
		count := 0
		for _, d := range diags {
			if d.Check != check {
				t.Errorf("%s fixture produced diagnostic for check %s", check, d.Check)
			}
			if d.Severity > max {
				max = d.Severity
			}
			if d.Severity >= worst[check] {
				count++
			}
		}
		if count == 0 {
			t.Errorf("%s fixture produced no findings", check)
		}
		if max != worst[check] {
			t.Errorf("%s fixture worst severity = %s, want %s", check, max, worst[check])
		}
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	prog, err := lang.Parse("main -> <a, 1> end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.Analyze(prog, analysis.Options{Checks: []string{"bogus"}}); err == nil {
		t.Fatal("unknown check id accepted")
	}
}

// TestCheckToggling: a fixture's findings disappear when its pass is not
// selected.
func TestCheckToggling(t *testing.T) {
	diags := analyzeFixture(t, "hygiene.sdl", analysis.Options{Checks: []string{analysis.CheckView}})
	if len(diags) != 0 {
		t.Errorf("view-only run of hygiene fixture produced %d diagnostics: %v", len(diags), diags)
	}
}

// TestLibraryFileAllReachable: without a main block, every process is
// analyzed as reachable — the blocked pass must not flag a delayed
// transaction fed by a process nothing spawns.
func TestLibraryFileAllReachable(t *testing.T) {
	prog, err := lang.Parse(`
process Feeder()
behavior -> <food, 1> end

process Eater()
behavior exists v: <food, ?v>! => <ate, ?v> end
`)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Analyze(prog, analysis.Options{Checks: []string{analysis.CheckBlocked}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("library file flagged: %v", diags)
	}
}
