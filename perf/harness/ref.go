package harness

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference. On a shared two-core box the same binary runs
// 20-40% faster or slower from one minute to the next (PR 12 and 13 were
// rejected for that noise). What moves is the memory hierarchy: a
// neighbour on the sibling hardware thread or in the shared L3 slows
// cache-resident and DRAM-bound loads, while a pure ALU loop barely moves.
// A fixed pointer-chase kernel that is no part of the product tracks that
// state: over blocks of windows its time correlated 0.9-0.95 with window
// time at a log-log slope of 1 (perf/README.md, "Host-speed reference").
//
// A sample of refSlices short slices runs before every set-up and every
// window and once more at the end, in the quiet moment after the forced
// collection. Windows are short (about half a second), so the slices on
// both sides of a window saw the host state the window saw. A window's
// host factor is the median of those slices over RefNominal, and the gated
// timing metrics (throughput_norm_ops_s, latency_p50_norm_us, setup_s) are
// at nominal host speed: times divided by the factor, rates multiplied by
// it, then the median across windows. The same metrics as clocked and the
// run's median factor are reported too, as per-layer metrics.
const (
	// refSmall entries (1 MiB of uint32) stay in a core's private L2;
	// refLarge entries (128 MiB) do not fit any private cache.
	refSmall = 1 << 18
	refLarge = 1 << 25
	// One slice is refRounds rounds of refSmallHops dependent loads in the
	// small table and one in the large table, on each of refLanes
	// goroutines.
	refRounds    = 60000
	refSmallHops = 24
	refLanes     = 2
	refSlices    = 3
)

// RefNominal is one reference slice's duration on the calibration host in
// its quiet state. It only fixes the scale of the normalized metrics.
const RefNominal = 15 * time.Millisecond

// Reference owns the kernel's tables. They live outside the Go heap, so
// the garbage collector's pacing of the program under test is unchanged.
type Reference struct {
	// Rounds is the length of one slice (default refRounds; tests shorten
	// it, which makes the factor meaningless but the run fast).
	Rounds int

	mem   [][]byte
	small [refLanes][]uint32
	large [refLanes][]uint32
	ps    [refLanes]uint32
	pl    [refLanes]uint32
}

// NewReference maps and fills the tables. Each table is one random-looking
// functional graph: entry i holds a hash of i, and a hop goes to
// (entry + position + step) mod size, so every load depends on the one
// before and the step count keeps the walk from closing into a short,
// cache-resident cycle.
func NewReference() (*Reference, error) {
	r := &Reference{Rounds: refRounds}
	alloc := func(n int) ([]uint32, error) {
		b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("reference tables: %w", err)
		}
		r.mem = append(r.mem, b)
		t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
		for i := range t {
			h := uint32(i) * 2654435761
			h ^= h >> 15
			h *= 2246822519
			h ^= h >> 13
			t[i] = h
		}
		return t, nil
	}
	for l := 0; l < refLanes; l++ {
		var err error
		if r.small[l], err = alloc(refSmall); err != nil {
			r.Close()
			return nil, err
		}
		if r.large[l], err = alloc(refLarge); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// Slice runs one reference slice and returns its wall time.
func (r *Reference) Slice() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for l := 0; l < refLanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			small, large := r.small[l], r.large[l]
			s, g := r.ps[l], r.pl[l]
			for i := 0; i < r.Rounds; i++ {
				for h := 0; h < refSmallHops; h++ {
					s = (small[s] + s + uint32(i)) & (refSmall - 1)
				}
				g = (large[g] + g + s) & (refLarge - 1)
			}
			r.ps[l], r.pl[l] = s, g
		}(l)
	}
	wg.Wait()
	return time.Since(t0)
}

// Sample runs refSlices slices and returns their durations in ms.
func (r *Reference) Sample() []float64 {
	out := make([]float64, refSlices)
	for i := range out {
		out[i] = float64(r.Slice()) / 1e6
	}
	return out
}

// Factor is the host factor of a set of slice durations in ms: their
// median over the nominal slice.
func Factor(slicesMS []float64) float64 {
	return Median(slicesMS) / (float64(RefNominal) / 1e6)
}

// Close unmaps the tables.
func (r *Reference) Close() {
	for _, b := range r.mem {
		syscall.Munmap(b)
	}
	r.mem = nil
}
