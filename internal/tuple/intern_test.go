//go:build go1.24

package tuple

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// holdInterned interns n distinct texts and returns their copies, which
// keep the entries live.
func holdInterned(n int) []*string {
	held := make([]*string, n)
	for i := range held {
		held[i] = intern("held " + strconv.Itoa(i))
	}
	return held
}

// BenchmarkInternSweep times one collection cycle's sweep of a table of live
// entries only, so nothing is dropped: the work each cycle adds to a program
// holding that many interned texts.
func BenchmarkInternSweep(b *testing.B) {
	for _, live := range []int{100_000, 300_000} {
		b.Run("live="+strconv.Itoa(live), func(b *testing.B) {
			held := holdInterned(live)
			b.ResetTimer()
			for range b.N {
				sweepInterned()
			}
			b.StopTimer()
			runtime.KeepAlive(held)
		})
	}
}

var sinkGarbage []byte

// BenchmarkInternMissUnderCollection interns fresh text that nobody keeps
// beside a table of live entries, while another goroutine allocates garbage,
// so collection cycles and the sweeps after them run throughout. It reports
// the slowest miss and the 99.9th percentile: a miss waits for a sweep that
// holds the lock it needs. Run it with a fixed -benchtime count (say
// 200000x); it keeps every miss's time.
func BenchmarkInternMissUnderCollection(b *testing.B) {
	for _, live := range []int{100_000, 300_000} {
		b.Run("live="+strconv.Itoa(live), func(b *testing.B) {
			held := holdInterned(live)
			texts := make([]string, b.N)
			for i := range texts {
				texts[i] = "miss " + strconv.Itoa(i)
			}
			waits := make([]time.Duration, b.N)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						sinkGarbage = make([]byte, 64<<10)
					}
				}
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i, text := range texts {
				start := time.Now()
				_ = intern(text)
				waits[i] = time.Since(start)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			runtime.ReadMemStats(&after)
			slices.Sort(waits)
			b.ReportMetric(float64(waits[len(waits)-1].Microseconds()), "max-µs")
			b.ReportMetric(float64(waits[len(waits)*999/1000].Microseconds()), "p999-µs")
			b.ReportMetric(float64(after.NumGC-before.NumGC), "cycles")
			runtime.KeepAlive(held)
		})
	}
}

// TestInternSweepIsBounded: one cycle's sweep of a table of 10⁵ live
// entries visits at most its budget plus one shard, not the table.
func TestInternSweepIsBounded(t *testing.T) {
	held := holdInterned(100_000)
	largest := 0
	for i := range interned {
		sh := &interned[i]
		sh.RLock()
		largest = max(largest, len(sh.m))
		sh.RUnlock()
	}
	if n := sweepInterned(); n > sweepBudget+largest {
		t.Errorf("a sweep visited %d entries, want <= %d + %d", n, sweepBudget, largest)
	}
	runtime.KeepAlive(held)
}
