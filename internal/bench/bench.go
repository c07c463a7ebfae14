// Package bench is the experiment harness reproducing the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md). The paper — a language
// design overview — reports no measured tables or figures, so experiments
// E1–E8 regenerate its worked examples and qualitative performance claims as
// measured series, and E10–E17 measure the runtime's own design decisions,
// most as ablations (E9 is retired). cmd/sdlbench prints the tables; no
// timing is gated, and the count-exact shapes are this package's tests. The
// harness is deterministic (seeded workloads) up to scheduler timing.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Metric is one measured quantity.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Ms wraps a duration as a milliseconds metric.
func Ms(name string, d time.Duration) Metric {
	return Metric{Name: name, Value: float64(d.Microseconds()) / 1000.0, Unit: "ms"}
}

// Count wraps an integer metric.
func Count(name string, v float64, unit string) Metric {
	return Metric{Name: name, Value: v, Unit: unit}
}

// Row is one configuration's measurements.
type Row struct {
	Config  string
	Metrics []Metric
}

// Table is one experiment's output.
type Table struct {
	ID    string // e.g. "E1"
	Title string
	Note  string // the paper claim being checked
	Rows  []Row
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "   paper: %s\n", t.Note); err != nil {
			return err
		}
	}
	// Column layout: config + one column per metric name (union, in first
	// appearance order).
	var names []string
	seen := map[string]bool{}
	for _, r := range t.Rows {
		for _, m := range r.Metrics {
			key := m.Name + " (" + m.Unit + ")"
			if !seen[key] {
				seen[key] = true
				names = append(names, key)
			}
		}
	}
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cfgWidth := len("config")
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		if len(r.Config) > cfgWidth {
			cfgWidth = len(r.Config)
		}
		cells[ri] = make([]string, len(names))
		for _, m := range r.Metrics {
			key := m.Name + " (" + m.Unit + ")"
			for ci, n := range names {
				if n == key {
					cells[ri][ci] = fmt.Sprintf("%.3f", m.Value)
					if w := len(cells[ri][ci]); w > widths[ci] {
						widths[ci] = w
					}
				}
			}
		}
	}
	line := func(cfg string, cols []string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "  %-*s", cfgWidth, cfg)
		for i, c := range cols {
			fmt.Fprintf(&b, "  %*s", widths[i], c)
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line("config", names)); err != nil {
		return err
	}
	for ri, r := range t.Rows {
		if _, err := fmt.Fprintln(w, line(r.Config, cells[ri])); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
