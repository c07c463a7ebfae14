package main

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	sdl "github.com/sdl-lang/sdl"
	"github.com/sdl-lang/sdl/internal/metrics"
)

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.sdl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout redirects os.Stdout around fn, draining the pipe
// concurrently so large outputs cannot deadlock the writer.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		outCh <- string(data)
	}()
	runErr := fn()
	_ = w.Close()
	os.Stdout = old
	return <-outCh, runErr
}

func TestRunBasicProgram(t *testing.T) {
	path := writeProgram(t, `main -> <hello, 1> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-dump", "-stats", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<hello, 1>", "-- stats --", "1 spawned"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceOutput(t *testing.T) {
	path := writeProgram(t, `main -> <seen, 9> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-trace", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "assert") || !strings.Contains(out, "<seen, 9>") {
		t.Errorf("trace output:\n%s", out)
	}
}

func TestRunFmt(t *testing.T) {
	path := writeProgram(t, "main   ->    <a,1>   end")
	out, err := captureStdout(t, func() error {
		return run([]string{"-fmt", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "main\n") || !strings.Contains(out, "<a, 1>") {
		t.Errorf("fmt output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                        // missing file
		{"/nonexistent/prog.sdl"}, // unreadable
		{"-bogus", writeProgram(t, `main -> skip end`)}, // unknown flag
	}
	for i, args := range cases {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Parse error in the program.
	bad := writeProgram(t, `process`)
	if _, err := captureStdout(t, func() error { return run([]string{bad}) }); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestRunWatch(t *testing.T) {
	path := writeProgram(t, `main -> <w, 1> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-watch", "1ms", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "watch:") {
		t.Errorf("watch output missing:\n%s", out)
	}
}

func TestRunSVGExport(t *testing.T) {
	path := writeProgram(t, `main -> <a, 1>; exists v: <a, ?v>! -> <b, ?v> end`)
	svg := filepath.Join(t.TempDir(), "out.svg")
	if _, err := captureStdout(t, func() error {
		return run([]string{"-svg", svg, path})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "rect") {
		t.Errorf("svg content:\n%s", data)
	}
}

func TestRunCheckpointAndRestore(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	// Stage 1: produce tuples and checkpoint.
	p1 := writeProgram(t, `main -> <stage, 1>, <data, 42> end`)
	if _, err := captureStdout(t, func() error {
		return run([]string{"-checkpoint", ckpt, p1})
	}); err != nil {
		t.Fatal(err)
	}
	// Stage 2: restore and continue the computation.
	p2 := writeProgram(t, `main exists v: <data, ?v>! -> <doubled, ?v * 2> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-restore", ckpt, "-dump", p2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<doubled, 84>") || !strings.Contains(out, "<stage, 1>") {
		t.Errorf("restored run output:\n%s", out)
	}
	// Restoring a nonexistent checkpoint fails cleanly.
	if _, err := captureStdout(t, func() error {
		return run([]string{"-restore", "/nonexistent.ckpt", p2})
	}); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// A -wal-dir restart under -stats counts its checkpoint read and prints
// where the recovery time went.
func TestRunWALRestartStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	p1 := writeProgram(t, `main -> <stage, 1>, <data, 42> end`)
	if _, err := captureStdout(t, func() error {
		return run([]string{"-wal-dir", dir, p1})
	}); err != nil {
		t.Fatal(err)
	}
	p2 := writeProgram(t, `main exists v: <data, ?v>! -> <doubled, ?v * 2> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-wal-dir", dir, "-stats", p2})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wal: recovered to version", ", 1 reads (mean", "wal phases    decode", "re-anchor"} {
		if !strings.Contains(out, want) {
			t.Errorf("restart output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTimeoutStallReport(t *testing.T) {
	path := writeProgram(t, `
process Stuck()
behavior
  <never> => skip
end
main spawn Stuck() end`)
	// Stderr carries the society dump; we only assert the error here and
	// that the run indeed timed out quickly.
	_, err := captureStdout(t, func() error {
		return run([]string{"-timeout", "100ms", path})
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestRunStatsMetricsSection(t *testing.T) {
	path := writeProgram(t, `main -> <m, 1>, <m, 2>; exists v: <m, ?v>! -> <got, ?v> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-stats", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-- metrics --",
		"txn immediate",
		"footprint",
		"0 live subscriptions",
		"detection rounds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// -stats ends with the explain block: sum3's replicated guard never plans,
// because its first pattern's lead is a query variable, so it commits
// coarsely, and both its steps walk the whole arity.
func TestRunStatsExplainSum3(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-stats", "../../examples/sdl/sum3.sdl"})
	})
	if err != nil {
		t.Fatal(err)
	}
	_, explain, ok := strings.Cut(out, "-- explain --\n")
	if !ok {
		t.Fatalf("no explain block:\n%s", out)
	}
	site := regexp.MustCompile(`(?m)^  11:5 +(\d+) execs: 0 planned, (\d+) unplanned \(pattern 1 lead is a query variable\); (?:(\d+) no commit, )?(\d+) coarse\n` +
		`    step 1: pattern 1, lead unknown; \d+ arity scan; \d+ visited, \d+ matched\n` +
		`    step 2: pattern 2, lead unknown; \d+ arity scan; \d+ visited, \d+ matched\n`)
	m := site.FindStringSubmatch(explain)
	if m == nil {
		t.Fatalf("explain block lacks sum3's guard at 11:5:\n%s", explain)
	}
	// Eight values fold into one: seven coarse commits, and executions
	// that found no pair until the replication ended.
	if m[1] != m[2] || m[4] != "7" {
		t.Errorf("11:5: %s execs, %s unplanned, %s coarse; want every execution unplanned and 7 coarse commits", m[1], m[2], m[4])
	}
	if !strings.Contains(explain, "  16:3 ") || !strings.Contains(explain, "1 key latch") {
		t.Errorf("explain block lacks main's planned assertion at 16:3:\n%s", explain)
	}
}

func TestRunMetricsEndpoint(t *testing.T) {
	// The in-run server shuts down when run returns, so validate the
	// published expvar payload after the run, then exercise the HTTP path
	// against a fresh listener over the same registry.
	path := writeProgram(t, `main -> <e, 1> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-metrics-addr", "127.0.0.1:0", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "metrics: http://127.0.0.1:") {
		t.Errorf("bound address not printed:\n%s", out)
	}
	// The expvar Func stays published (publish-once) and indirects through
	// currentMetrics, which still points at the last run's registry.
	v := expvar.Get("sdl")
	if v == nil {
		t.Fatal("expvar \"sdl\" not published")
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar payload not a metrics snapshot: %v\n%s", err, v.String())
	}
	if snap.StoreCommits == 0 {
		t.Errorf("snapshot records no commits: %+v", snap)
	}
	if !snap.Observed {
		t.Error("registry not marked observed despite -metrics-addr")
	}
	// The HTTP path itself: serve a fresh listener and scrape /debug/vars.
	bound, stop, err := serveMetrics("127.0.0.1:0", currentMetrics.Load())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"sdl"`) || !strings.Contains(string(body), `"storeCommits"`) {
		t.Errorf("/debug/vars scrape missing sdl metrics:\n%.400s", body)
	}
}

// TestRunMetricsKeySetMatchesSystemSnapshot pins the contract between the
// -metrics-addr expvar payload and the library's System.Snapshot(): both
// are the same Snapshot type, so a scrape exposes exactly the keys an
// embedding application sees. A drift (renamed or dropped JSON field)
// breaks dashboards silently; this catches it.
func TestRunMetricsKeySetMatchesSystemSnapshot(t *testing.T) {
	topKeys := func(raw []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("payload is not a JSON object: %v\n%s", err, raw)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	// Scrape the served endpoint after a real run.
	path := writeProgram(t, `main -> <k, 1>; exists v: <k, ?v>! -> <k2, ?v> end`)
	if _, err := captureStdout(t, func() error {
		return run([]string{"-metrics-addr", "127.0.0.1:0", path})
	}); err != nil {
		t.Fatal(err)
	}
	bound, stop, err := serveMetrics("127.0.0.1:0", currentMetrics.Load())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	scraped, ok := vars["sdl"]
	if !ok {
		t.Fatalf("/debug/vars has no \"sdl\" entry:\n%.400s", body)
	}

	// The reference key set: a System's own snapshot, marshaled the same way.
	sys := sdl.New(sdl.Options{})
	defer sys.Close()
	ref, err := json.Marshal(sys.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	got, want := topKeys(scraped), topKeys(ref)
	if len(got) != len(want) {
		t.Fatalf("scraped %d keys, System.Snapshot has %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d: scraped %q, System.Snapshot has %q", i, got[i], want[i])
		}
	}
}

func TestRunMetricsBadAddr(t *testing.T) {
	path := writeProgram(t, `main -> skip end`)
	if _, err := captureStdout(t, func() error {
		return run([]string{"-metrics-addr", "127.0.0.1:notaport", path})
	}); err == nil {
		t.Error("bad metrics address accepted")
	}
}

func TestRunMultipleFiles(t *testing.T) {
	lib := writeProgram(t, `
process Emit(v)
behavior -> <out, v> end`)
	driver := filepath.Join(t.TempDir(), "driver.sdl")
	if err := os.WriteFile(driver, []byte(`main spawn Emit(9) end`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-dump", lib, driver})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<out, 9>") {
		t.Errorf("multi-file run output:\n%s", out)
	}
	// Two mains across files must be rejected.
	main2 := writeProgram(t, `main -> skip end`)
	if _, err := captureStdout(t, func() error {
		return run([]string{driver, main2})
	}); err == nil || !strings.Contains(err.Error(), "multiple main") {
		t.Errorf("err = %v", err)
	}
}

// unsoundSrc has a view-soundness error: Logger's assert falls outside
// its export clause. The program itself runs fine (the bad assert is
// simply filtered by the view at runtime), which is exactly why the
// static gate matters.
const unsoundSrc = `
process Logger()
import <job, *>
export <log, *>
behavior
  -> <audit, 1>
end

main
  spawn Logger()
end
`

func TestRunVetRefusesUnsoundProgram(t *testing.T) {
	path := writeProgram(t, unsoundSrc)
	_, err := captureStdout(t, func() error {
		return run([]string{"-vet", path})
	})
	if err == nil {
		t.Fatal("vet gate let an unsound program run")
	}
	if !strings.Contains(err.Error(), "-vet=warn") {
		t.Errorf("error does not mention the override: %v", err)
	}
}

func TestRunVetWarnModeRunsAnyway(t *testing.T) {
	path := writeProgram(t, unsoundSrc)
	_, err := captureStdout(t, func() error {
		return run([]string{"-vet=warn", path})
	})
	if err != nil {
		t.Fatalf("vet=warn should run the program: %v", err)
	}
}

func TestRunVetCleanProgramRuns(t *testing.T) {
	path := writeProgram(t, `main -> <hello, 1> end`)
	out, err := captureStdout(t, func() error {
		return run([]string{"-vet", "-dump", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<hello, 1>") {
		t.Errorf("program did not run under -vet:\n%s", out)
	}
}

// schedSeedSrc has genuine concurrency (three contending incrementers) so
// the installed controller actually draws decisions, yet a fully
// deterministic final state.
const schedSeedSrc = `
process Inc()
behavior
  exists v: <c, ?v>! => <c, ?v + 1>
end

main
  -> <c, 0>;
  spawn Inc(), spawn Inc(), spawn Inc()
end
`

func TestRunSchedSeed(t *testing.T) {
	path := writeProgram(t, schedSeedSrc)
	// The same seed must produce a correct run under every fault profile;
	// the controller perturbs schedules, never outcomes.
	for _, profile := range []string{"off", "light", "heavy"} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-sched-seed", "42", "-sched-faults", profile, "-dump", path})
		})
		if err != nil {
			t.Fatalf("profile %s: %v", profile, err)
		}
		if !strings.Contains(out, "<c, 3>") {
			t.Errorf("profile %s: perturbed run corrupted the final state:\n%s", profile, out)
		}
	}
}

func TestRunSchedSeedBadProfile(t *testing.T) {
	path := writeProgram(t, `main -> skip end`)
	if _, err := captureStdout(t, func() error {
		return run([]string{"-sched-seed", "1", "-sched-faults", "frobnicate", path})
	}); err == nil || !strings.Contains(err.Error(), "sched-faults") {
		t.Errorf("bad profile accepted: %v", err)
	}
}

func TestRunVetBadValue(t *testing.T) {
	path := writeProgram(t, `main -> <hello, 1> end`)
	_, err := captureStdout(t, func() error {
		return run([]string{"-vet=frobnicate", path})
	})
	if err == nil {
		t.Fatal("bad -vet value accepted")
	}
}
