package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
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

func TestRunSelectedQuick(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-quick", "-run", "e5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== E5:") || strings.Contains(out, "== E1:") {
		t.Errorf("selection failed:\n%s", out)
	}
	if !strings.Contains(out, "speedup") {
		t.Errorf("table content missing:\n%s", out)
	}
}

func TestRunMultipleSelection(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-quick", "-run", "E2, E3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== E2:") || !strings.Contains(out, "== E3:") {
		t.Errorf("multi selection failed:\n%s", out)
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	exps := experiments()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15", len(exps))
	}
	seen := map[string]bool{}
	for _, ex := range exps {
		if seen[ex.id] {
			t.Errorf("duplicate id %s", ex.id)
		}
		seen[ex.id] = true
		if ex.quick == nil || ex.full == nil {
			t.Errorf("%s missing a sweep", ex.id)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-no-such-flag"}) }); err == nil {
		t.Error("bad flag accepted")
	}
}
