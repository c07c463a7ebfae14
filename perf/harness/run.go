package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// Workload is one system under test plus its generated inputs. The harness
// drives it through set-up, a warm-up, fixed-work windows and verification;
// everything SDL-specific lives behind this interface.
type Workload interface {
	Name() string
	// Clients is the closed-loop client count (never more than 2).
	Clients() int
	// OpsPerWindow is the fixed number of operations each client executes
	// in every window.
	OpsPerWindow() int
	// PoolTail reports that a window has too few operations for a tail:
	// p90 and p99 are taken over the pooled samples of all kept windows.
	PoolTail() bool
	// Setup builds a fresh system under test from the seed, closing any
	// previous one. The harness times it.
	Setup() error
	// Prepare generates window w's operations for every client, outside
	// the timed region; w == WarmUp is the warm-up window. The sequence is
	// a pure function of (seed, workload, client, w).
	Prepare(w int)
	// SetTracing switches the program's own gated instruments with the
	// window's tracing state.
	SetTracing(on bool)
	// Run executes client c's prepared operations in order, writes each
	// one's wall latency in nanoseconds to lat[i] and returns how many
	// failed (error, wrong result or timeout). lane is nil when tracing is
	// off.
	Run(c int, lat []int64, lane *Lane) (failed int)
	// MarkKept snapshots the layer counters: kept windows start here.
	MarkKept()
	// LayerMetrics returns the per-layer metrics of the kept windows and
	// runs the layer probes. Trace runs only.
	LayerMetrics(k Kept) (map[string]float64, error)
	// LiveTuples is the store cardinality used for bytes-per-tuple.
	LiveTuples() int
	// Verify checks the workload's end-state invariants.
	Verify() error
	Close() error
}

// WarmUp is the window index Prepare receives for the warm-up window.
const WarmUp = -1

// Kept summarizes the kept windows for LayerMetrics.
type Kept struct {
	Ops   int64               // operations in kept windows, traced or not
	Spans map[string]SpanStat // aggregated spans of kept traced windows
}

// Config is one run's settings.
type Config struct {
	Seed    uint64
	Seconds float64 // time box for the windows; fixed work per window
	Trace   bool
	Setups  int // in-process set-ups; the median is reported (default 3)
	// MinWindows is the least number of windows run whatever the time box
	// (default 4: one discarded, three kept).
	MinWindows int
	TraceOut   string // trace file path ("" = none)
	// Ref is the host-speed reference to use; nil makes Run map its own
	// (tests share one across runs to save the fill).
	Ref *Reference
}

// WindowStat is one window's measurements.
type WindowStat struct {
	Index  int     `json:"index"`
	Kept   bool    `json:"kept"`
	Traced bool    `json:"traced"`
	WallS  float64 `json:"wall_s"`
	// RefMS are the reference slices that ran just before the window
	// (ref.go) and Factor the host factor from the slices on both sides of
	// it. Everything else in a WindowStat is as clocked.
	RefMS     []float64 `json:"ref_ms"`
	Factor    float64   `json:"host_factor"`
	Ops       int64     `json:"ops"`
	Failed    int64     `json:"failed"`
	Thr       float64   `json:"throughput_ops_s"`
	P50       float64   `json:"latency_p50_us"`
	P90       float64   `json:"latency_p90_us"`
	P99       float64   `json:"latency_p99_us"`
	Mallocs   uint64    `json:"mallocs"`
	AllocB    uint64    `json:"alloc_bytes"`
	CPUus     float64   `json:"cpu_us"`
	GCCycles  uint32    `json:"gc_cycles"`
	GCPauseMS float64   `json:"gc_pause_ms"`
}

// DriftLimit is the first-third versus last-third throughput change above
// which a run is flagged unstable; MinDriftWindows is the least number of
// kept untraced windows the comparison needs (two per third).
const (
	DriftLimit      = 0.10
	MinDriftWindows = 6
)

// Run drives one workload through the measurement protocol.
func Run(w Workload, cfg Config) (*Report, error) {
	if cfg.Setups <= 0 {
		cfg.Setups = 3
	}
	if cfg.MinWindows <= 0 {
		cfg.MinWindows = 4
	}
	rep := &Report{Workload: w.Name(), Seed: cfg.Seed, Trace: cfg.Trace, Seconds: cfg.Seconds,
		Clients: w.Clients(), OpsPerWindow: w.OpsPerWindow()}

	ref := cfg.Ref
	if ref == nil {
		var err error
		if ref, err = NewReference(); err != nil {
			return nil, err
		}
		defer ref.Close()
	}
	ref.Slice() // touch the tables' cache and TLB footprint once, untimed

	runtime.GC()
	baseMB := heapMB()
	defer w.Close()
	for i := 0; i < cfg.Setups; i++ {
		runtime.GC() // no collector work left over from the previous set-up in the slices
		rep.SetupRefMS = append(rep.SetupRefMS, ref.Sample()...)
		t0 := time.Now()
		if err := w.Setup(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	loadedMB := heapMB()
	rep.SetupRefMS = append(rep.SetupRefMS, ref.Sample()...)

	clients, ops := w.Clients(), w.OpsPerWindow()
	lats := make([][]int64, clients)
	for c := range lats {
		lats[c] = make([]int64, ops)
	}
	sorted := make([]int64, 0, clients*ops)
	var tr *Tracer
	if cfg.Trace {
		// Room for a root span and three children per operation.
		tr = NewTracer(clients, 4*ops+16)
	}

	window := func(idx int, traced bool) WindowStat {
		w.Prepare(idx)
		w.SetTracing(traced)
		if traced {
			tr.Reset()
		}
		runtime.GC()
		refMS := ref.Sample()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		failed := make([]int, clients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var lane *Lane
				if traced {
					lane = tr.Lane(c)
				}
				failed[c] = w.Run(c, lats[c], lane)
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0)
		cpu1 := cpuTime()
		runtime.ReadMemStats(&m1)

		st := WindowStat{Index: idx, Traced: traced, WallS: wall.Seconds(), RefMS: refMS, Ops: int64(clients * ops),
			Mallocs: m1.Mallocs - m0.Mallocs, AllocB: m1.TotalAlloc - m0.TotalAlloc,
			CPUus:    float64(cpu1-cpu0) / 1e3,
			GCCycles: m1.NumGC - m0.NumGC, GCPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6}
		for _, f := range failed {
			st.Failed += int64(f)
		}
		st.Thr = float64(st.Ops) / wall.Seconds()
		sorted = sorted[:0]
		for c := range lats {
			sorted = append(sorted, lats[c]...)
		}
		slices.Sort(sorted)
		st.P50, st.P90, st.P99 = PercentileNS(sorted, 50), PercentileNS(sorted, 90), PercentileNS(sorted, 99)
		return st
	}

	window(WarmUp, false)

	// A trace run alternates untraced and traced windows, so tracing
	// overhead is a same-process, interleaved comparison. Its first pair is
	// discarded; an untraced run discards window 0.
	discard := 1
	if cfg.Trace {
		discard = 2
		if cfg.MinWindows < 6 {
			cfg.MinWindows = 6
		}
	}
	spans := map[string]SpanStat{}
	var pooled []int64
	start := time.Now()
	var last time.Duration
	for idx := 0; ; idx++ {
		elapsed := time.Since(start)
		if idx >= cfg.MinWindows && (elapsed+last).Seconds() > cfg.Seconds {
			break
		}
		if idx == discard {
			w.MarkKept()
		}
		traced := cfg.Trace && idx%2 == 1
		st := window(idx, traced)
		st.Kept = idx >= discard
		last = time.Since(start) - elapsed
		rep.Attempted += st.Ops
		rep.Failed += st.Failed
		rep.Windows = append(rep.Windows, st)
		if st.Kept && traced {
			tr.Aggregate(spans)
		}
		if st.Kept && !traced && w.PoolTail() {
			pooled = append(pooled, sorted...)
		}
	}
	w.SetTracing(false)
	runtime.GC()
	rep.TailRefMS = ref.Sample()

	runtime.GC()
	runtime.GC()
	liveMB := heapMB()

	rep.aggregate(pooled)
	rep.EndToEnd["live_heap_mb"] = liveMB

	if cfg.Trace {
		var keptOps int64
		for _, st := range rep.Windows {
			if st.Kept {
				keptOps += st.Ops
			}
		}
		layer, err := w.LayerMetrics(Kept{Ops: keptOps, Spans: spans})
		if err != nil {
			return nil, fmt.Errorf("layer metrics: %w", err)
		}
		if n := w.LiveTuples(); n > 0 {
			layer["dataspace.bytes_per_tuple"] = (loadedMB - baseMB) * (1 << 20) / float64(n)
		}
		rep.layer(layer)
		if cfg.TraceOut != "" {
			if err := tr.WriteFile(cfg.TraceOut, w.Name(), cfg.Seed, spans); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}

	rep.Correct = true
	if err := w.Verify(); err != nil {
		rep.Correct = false
		rep.CheckError = err.Error()
	}
	return rep, nil
}

func heapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
