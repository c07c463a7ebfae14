package harness

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index (within the same lane) of the span that
// caused this one, -1 for a root. Start and End are nanoseconds since the
// tracer's origin.
type Span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Lane   int    `json:"lane"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Lane is one client's private span buffer: no locks on the hot path. The
// buffer is preallocated; spans past its capacity are counted, not stored.
type Lane struct {
	id      int
	origin  time.Time
	spans   []Span
	dropped int64
}

// Begin opens a span and returns its index for End and for children's
// Parent. A full lane returns -1, which End ignores.
func (l *Lane) Begin(name string, op int64, parent int32) int32 {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, Span{Name: name, Op: op, Lane: l.id, Parent: parent,
		Start: int64(time.Since(l.origin))})
	return int32(len(l.spans) - 1)
}

// End closes the span Begin returned.
func (l *Lane) End(i int32) {
	if i >= 0 {
		l.spans[i].End = int64(time.Since(l.origin))
	}
}

// Tracer owns one lane per client plus a lane for the driver goroutine.
type Tracer struct {
	lanes []*Lane
}

// NewTracer preallocates perLane spans for each of lanes lanes.
func NewTracer(lanes, perLane int) *Tracer {
	t := &Tracer{}
	origin := time.Now()
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &Lane{id: i, origin: origin, spans: make([]Span, 0, perLane)})
	}
	return t
}

// Lane returns client c's lane; a nil tracer returns nil (tracing off).
func (t *Tracer) Lane(c int) *Lane {
	if t == nil {
		return nil
	}
	return t.lanes[c]
}

// Reset drops every recorded span (between windows, so only kept traced
// windows are aggregated).
func (t *Tracer) Reset() {
	for _, l := range t.lanes {
		l.spans = l.spans[:0]
	}
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Count   int64
	TotalNS int64
	// SelfNS is TotalNS minus the time covered by direct child spans.
	SelfNS int64
}

// MeanUS is the mean span duration in microseconds (0 when none).
func (s SpanStat) MeanUS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNS) / float64(s.Count) / 1e3
}

// Aggregate folds the recorded spans into per-name statistics and adds
// them to into. Child spans of one parent never overlap here (each lane is
// one goroutine), so self time is the plain difference.
func (t *Tracer) Aggregate(into map[string]SpanStat) {
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			st := into[s.Name]
			st.Count++
			st.TotalNS += s.End - s.Start
			st.SelfNS += s.End - s.Start - child[i]
			into[s.Name] = st
		}
	}
}

// Dropped reports spans that did not fit their lane.
func (t *Tracer) Dropped() int64 {
	var n int64
	for _, l := range t.lanes {
		n += l.dropped
	}
	return n
}

// TraceFile is what a traced run writes at exit.
type TraceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Spans holds the last traced window's spans, capped at MaxFileSpans
	// per lane so a 100k-ops/s workload does not write hundreds of MB.
	Spans   []Span             `json:"spans"`
	Dropped int64              `json:"dropped"`
	Stats   map[string]float64 `json:"mean_us_by_span"`
}

// MaxFileSpans caps the spans per lane written to the trace file.
const MaxFileSpans = 20000

// WriteFile writes the tracer's current spans (capped) and the given
// aggregate to path.
func (t *Tracer) WriteFile(path, workload string, seed uint64, stats map[string]SpanStat) error {
	tf := TraceFile{Workload: workload, Seed: seed, Dropped: t.Dropped(), Stats: map[string]float64{}}
	for _, l := range t.lanes {
		n := len(l.spans)
		if n > MaxFileSpans {
			n = MaxFileSpans
		}
		tf.Spans = append(tf.Spans, l.spans[:n]...)
	}
	for name, st := range stats {
		tf.Stats[name] = st.MeanUS()
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
