package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// MetricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (the smoke test compares the two).
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd are the gated metrics, printed by an untraced run. The three
// timing metrics are at nominal host speed (ref.go): the two whose names
// the benchmark chooses say so with "norm"; setup_s is the name the driver
// requires. Each has an as-clocked twin among the e2e. metrics below.
var EndToEnd = []MetricDef{
	{"throughput_norm_ops_s", "1/s"},
	{"latency_p50_norm_us", "us"},
	{"allocs_per_op", "1"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// PerLayer are the ungated metrics, printed by a traced run. Every time
// among them is as clocked, so spans, probes and the e2e. metrics of one
// run share one scale. Names starting "e2e." are the issue's end-to-end
// timing metrics exactly as it defines them, demoted because wall-clock
// values do not repeat on a shared host (CALIBRATION.md); they are
// measured on the traced run's untraced windows.
var PerLayer = []MetricDef{
	{"e2e.throughput_ops_s", "1/s"},
	{"e2e.latency_p50_us", "us"},
	{"e2e.latency_p90_us", "us"},
	{"e2e.latency_p99_us", "us"},
	{"e2e.setup_clocked_s", "s"},

	{"lang.parse_us", "us"},
	{"lang.compile_us", "us"},

	{"process.spawn_us_per_proc", "us"},
	{"process.sort_ms", "ms"},
	{"process.fanout_ms", "ms"},
	{"process.barrier_ms", "ms"},
	{"process.sum3_ms", "ms"},

	{"consensus.fire_ms", "ms"},
	{"consensus.rounds_per_fire", "1"},
	{"consensus.kicks_suppressed_share", "1"},

	{"txn.immediate_us", "us"},
	{"txn.self_us", "us"},
	{"txn.retries_per_commit", "1"},
	{"txn.blocks_per_commit", "1"},
	{"txn.delayed_wake_us", "us"},

	{"view.window_overhead_us", "us"},

	{"pattern.solve_us", "us"},
	{"pattern.tuples_visited_per_solution", "1"},
	{"pattern.solutions_per_op", "1"},

	{"dataspace.update_us", "us"},
	{"dataspace.key_commit_share", "1"},
	{"dataspace.shard_fallback_share", "1"},
	{"dataspace.coarse_share", "1"},
	{"dataspace.group_batch_mean", "1"},
	{"dataspace.locks_per_op", "1"},
	{"dataspace.snapshot_read_us", "us"},
	{"dataspace.epoch_hit_share", "1"},
	{"dataspace.epoch_rebuilds_per_kop", "1"},
	{"dataspace.epoch_fallback_share", "1"},
	{"dataspace.indexed_scan_share", "1"},
	{"dataspace.index_promotions", "count"},
	{"dataspace.index_demotions", "count"},
	{"dataspace.reactive_suppressed_share", "1"},
	{"dataspace.reactive_delta_hit_share", "1"},
	{"dataspace.wakeup_fanout_mean", "1"},
	{"dataspace.bytes_per_tuple", "B"},

	{"wal.append_us", "us"},
	{"wal.wait_durable_us", "us"},
	{"wal.bytes_per_commit", "B"},
	{"wal.commits_per_sync", "1"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recover_ms", "ms"},

	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.trace_overhead_share", "1"},
	{"proc.host_factor", "1"},
}

// Report is everything one run measured. The contract line printed last is
// a projection of it; the full report goes to out/report-<workload>.json.
type Report struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Trace        bool    `json:"trace"`
	Seconds      float64 `json:"seconds"`
	Clients      int     `json:"clients"`
	OpsPerWindow int     `json:"ops_per_client_window"`

	Windows []WindowStat `json:"windows"`
	// Drift and Unstable mean something only when DriftAssessed: with
	// fewer than MinDriftWindows kept untraced windows the stationarity
	// check cannot run and the run is neither stable nor unstable.
	Drift         float64 `json:"drift"`
	Unstable      bool    `json:"unstable"`
	DriftAssessed bool    `json:"drift_assessed"`
	// SetupS are the set-ups as clocked; SetupRefMS the reference slices
	// around them, TailRefMS the ones after the last window.
	SetupS     []float64 `json:"setup_s_each"`
	SetupRefMS []float64 `json:"setup_ref_ms"`
	TailRefMS  []float64 `json:"tail_ref_ms"`
	// HostFactor is the median reference slice of the kept windows over
	// the nominal slice; each window carries its own factor.
	HostFactor float64 `json:"host_factor"`

	Attempted  int64  `json:"ops_attempted"`
	Failed     int64  `json:"ops_failed"`
	Correct    bool   `json:"correct"`
	CheckError string `json:"check_error,omitempty"`

	// EndToEnd holds the gated metrics, Clocked the issue's end-to-end
	// timing metrics as clocked (throughput_ops_s, latency_p50_us,
	// latency_p90_us, latency_p99_us, setup_clocked_s): a traced run
	// prints them as e2e.<name>.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Clocked  map[string]float64 `json:"as_clocked"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// measured returns the kept windows end-to-end numbers come from: kept and
// untraced (a traced run interleaves the two kinds).
func (r *Report) measured(traced bool) []WindowStat {
	var out []WindowStat
	for _, w := range r.Windows {
		if w.Kept && w.Traced == traced {
			out = append(out, w)
		}
	}
	return out
}

func column(ws []WindowStat, f func(WindowStat) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// aggregate computes the timing metrics: each per kept untraced window,
// then the median across windows, as clocked and (throughput and p50) at
// nominal host speed. pooled, when non-empty, holds every kept untraced
// sample and replaces the per-window tails with its percentiles.
func (r *Report) aggregate(pooled []int64) {
	// Each window's host factor comes from the reference slices on both
	// sides of it: its own sample and the next window's (or the tail's).
	var all []float64
	for i := range r.Windows {
		next := r.TailRefMS
		if i+1 < len(r.Windows) {
			next = r.Windows[i+1].RefMS
		}
		r.Windows[i].Factor = Factor(append(append([]float64(nil), r.Windows[i].RefMS...), next...))
		if r.Windows[i].Kept {
			all = append(all, r.Windows[i].RefMS...)
		}
	}
	r.HostFactor = Factor(append(all, r.TailRefMS...))

	ws := r.measured(false)
	norm := column(ws, func(w WindowStat) float64 { return w.Thr * w.Factor })
	r.Clocked = map[string]float64{
		"throughput_ops_s": Median(column(ws, func(w WindowStat) float64 { return w.Thr })),
		"latency_p50_us":   Median(column(ws, func(w WindowStat) float64 { return w.P50 })),
		"latency_p90_us":   Median(column(ws, func(w WindowStat) float64 { return w.P90 })),
		"latency_p99_us":   Median(column(ws, func(w WindowStat) float64 { return w.P99 })),
		"setup_clocked_s":  Median(r.SetupS),
	}
	if len(pooled) > 0 {
		slices.Sort(pooled)
		r.Clocked["latency_p90_us"] = PercentileNS(pooled, 90)
		r.Clocked["latency_p99_us"] = PercentileNS(pooled, 99)
	}
	var ops, mallocs float64
	for _, w := range ws {
		ops += float64(w.Ops)
		mallocs += float64(w.Mallocs)
	}
	r.EndToEnd = map[string]float64{
		"throughput_norm_ops_s": Median(norm),
		"latency_p50_norm_us":   Median(column(ws, func(w WindowStat) float64 { return w.P50 / w.Factor })),
		"allocs_per_op":         mallocs / ops,
		"setup_s":               Median(r.SetupS) / Factor(r.SetupRefMS),
	}

	// Stationarity guard: first third versus last third of kept windows,
	// at nominal host speed so that a host that speeds up or slows down
	// mid-run is not mistaken for a workload that does. Fewer than
	// MinDriftWindows cannot tell drift from window noise.
	if len(norm) >= MinDriftWindows {
		third := len(norm) / 3
		first, last := Median(norm[:third]), Median(norm[len(norm)-third:])
		r.Drift = math.Abs(last-first) / first
		r.Unstable = r.Drift > DriftLimit
		r.DriftAssessed = true
	}
}

// layer stores the workload's layer metrics and adds the whole-process
// ones and the demoted end-to-end metrics.
func (r *Report) layer(m map[string]float64) {
	r.PerLayer = m
	plain, traced := r.measured(false), r.measured(true)
	var ops, cpu, bytes, pause float64
	var cycles uint32
	for _, w := range plain {
		ops += float64(w.Ops)
		cpu += w.CPUus
		bytes += float64(w.AllocB)
		pause += w.GCPauseMS
		cycles += w.GCCycles
	}
	m["proc.cpu_us_per_op"] = cpu / ops
	m["proc.alloc_bytes_per_op"] = bytes / ops
	m["proc.gc_cycles"] = float64(cycles)
	m["proc.gc_pause_ms"] = pause
	thr := func(ws []WindowStat) float64 {
		return Median(column(ws, func(w WindowStat) float64 { return w.Thr }))
	}
	m["proc.trace_overhead_share"] = 1 - thr(traced)/thr(plain)
	m["proc.host_factor"] = r.HostFactor
	for name, v := range r.Clocked {
		m["e2e."+name] = v
	}
}

// Stability is the stationarity verdict: "stable", "unstable", or
// "unassessed" when too few windows were kept for the check to run.
func (r *Report) Stability() string {
	switch {
	case !r.DriftAssessed:
		return "unassessed"
	case r.Unstable:
		return "unstable"
	}
	return "stable"
}

// Metric is one value with its unit, as the contract line prints it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Contract is the last line a run prints.
type Contract struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Contract projects the report onto the driver's result line: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one.
func (r *Report) Contract() Contract {
	c := Contract{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	defs, vals := EndToEnd, r.EndToEnd
	if r.Trace {
		defs, vals = PerLayer, r.PerLayer
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		c.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return c
}

// Print writes the human-readable summary.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed=%d  clients=%d  ops/client/window=%d  trace=%v\n",
		r.Workload, r.Seed, r.Clients, r.OpsPerWindow, r.Trace)
	fmt.Fprintf(w, "  as clocked:\n  %-4s %-5s %-6s %8s %12s %10s %10s %10s %7s  %s\n", "win", "kept", "traced", "wall_s", "ops/s", "p50_us", "p90_us", "p99_us", "factor", "ref_ms")
	for _, ws := range r.Windows {
		fmt.Fprintf(w, "  %-4d %-5v %-6v %8.3f %12.1f %10.2f %10.2f %10.2f %7.3f  %.1f\n",
			ws.Index, ws.Kept, ws.Traced, ws.WallS, ws.Thr, ws.P50, ws.P90, ws.P99, ws.Factor, ws.RefMS)
	}
	drift := "n/a"
	if r.DriftAssessed {
		drift = fmt.Sprintf("%.4f", r.Drift)
	}
	fmt.Fprintf(w, "  drift=%s (%s)  host_factor=%.4f  setup_s as clocked=%.4f host_factor=%.4f\n",
		drift, r.Stability(), r.HostFactor, r.SetupS, Factor(r.SetupRefMS))
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d correct=%v %s\n", r.Attempted, r.Failed, r.Correct, r.CheckError)
	c := r.Contract()
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, c.Metrics[d.Name].Value, d.Unit)
	}
	if !r.Trace {
		// The as-clocked twins, which a traced run prints as e2e.<name>.
		for _, d := range PerLayer {
			if name, ok := strings.CutPrefix(d.Name, "e2e."); ok {
				fmt.Fprintf(w, "  %-40s %16.4f %s (as clocked, ungated)\n", name, r.Clocked[name], d.Unit)
			}
		}
	}
}
