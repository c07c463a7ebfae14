// Package perf_test is the benchmark's smoke test: every workload at tiny
// sizes, traced and untraced, checked against BENCHMARK.json.
package perf_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/sdl-lang/sdl/perf/harness"
	"github.com/sdl-lang/sdl/perf/workloads"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// Every workload and metric BENCHMARK.json names is emitted exactly once
// with its unit, and every workload's invariants hold.
func TestSmokeAllWorkloadsAgainstBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads.All) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads.All))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads.All[i].Name || w.Why != workloads.All[i].Why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with its why (%d chars) does not match %q", i, w.Name, len(w.Why), workloads.All[i].Name)
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}

	dir := t.TempDir()
	ref, err := harness.NewReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Rounds = 2000
	for _, info := range workloads.All {
		for _, trace := range []bool{false, true} {
			w, err := workloads.New(info.Name, 1, workloads.Tiny, dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := harness.Config{Seed: 1, Seconds: 0, Trace: trace, Setups: 1, Ref: ref}
			if trace {
				cfg.TraceOut = filepath.Join(dir, "trace-"+info.Name+".json")
			}
			rep, err := harness.Run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", info.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s",
					info.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.CheckError)
			}
			line, err := json.Marshal(rep.Contract())
			if err != nil {
				t.Fatal(err)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
				if _, err := os.Stat(cfg.TraceOut); err != nil {
					t.Errorf("%s: no trace file: %v", info.Name, err)
				}
			}
			var c harness.Contract
			if err := json.Unmarshal(line, &c); err != nil {
				t.Fatal(err)
			}
			if len(c.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", info.Name, trace, len(c.Metrics), len(want))
			}
			for _, m := range want {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
				}
				// Counted in the line itself: a map decode would hide a duplicate.
				if n := bytes.Count(line, []byte(`"`+m.Name+`":{`)); n != 1 {
					t.Errorf("%s trace=%v: metric %s emitted %d times", info.Name, trace, m.Name, n)
				}
				if got := c.Metrics[m.Name].Unit; got != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", info.Name, m.Name, got, m.Unit)
				}
				if !trace && c.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", info.Name, m.Name, c.Metrics[m.Name].Value)
				}
			}
		}
	}
}
