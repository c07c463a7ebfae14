package metrics

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Explain is the run-time answer to "why did this transaction serialize, or
// scan?". While the registry is Observed, the transaction engine fills one
// per execution — whether the footprint planner planned it and, if not, the
// first lead that blocked it; the rung it committed or read on — and the
// matcher one Step per pattern, in join order. The registry aggregates them
// per transaction site (RecordExplain); Snapshot reports them as Explain.
// Unobserved, nothing is recorded: the matcher's record is nil, and costs
// one nil check per scan and per matched candidate.
type Explain struct {
	Block Block // the zero Block when the execution planned
	Rung  Rung
	Steps []Step
}

// Rung is the commit-ladder rung that served one execution.
type Rung uint8

// Rungs. A write that failed or changed nothing commits on none.
const (
	RungNone   Rung = iota
	RungKey         // key latches: a planned write
	RungShard       // the planned shards: a planned write the latches could not take
	RungCoarse      // the whole store: an unplanned write
	RungShared      // a read under shared locks
	RungEpoch       // a lock-free read on epoch snapshots
	NumRungs
)

func (r Rung) String() string {
	return [NumRungs]string{"no commit", "key latch", "shard fallback", "coarse", "shared read", "epoch read"}[r]
}

// Cause is why the footprint planner could not plan an execution.
type Cause uint8

// Causes; CauseNone means planned.
const (
	CauseNone     Cause = iota
	CauseWildcard       // a lead is a wildcard
	CauseQueryVar       // a lead is, or is computed from, a variable the query binds
	CauseView           // the view has a dynamic matcher, which may read any bucket
)

func (c Cause) String() string {
	return [...]string{"none", "wildcard", "query variable", "non-plannable view"}[c]
}

// Block names the first lead that kept an execution unplanned: the planner
// reads the query patterns, then the assertions, and stops at the first
// lead the request environment does not determine. A non-plannable view
// blocks before any lead is read.
type Block struct {
	Cause  Cause
	Assert bool // an assertion's lead, not a query pattern's
	Index  int  // the pattern's (or assertion's) index in the request, from 0
}

func (b Block) String() string {
	switch {
	case b.Cause == CauseNone:
		return "planned"
	case b.Cause == CauseView:
		return "the view is not plannable"
	case b.Assert:
		return fmt.Sprintf("assertion %d lead is a %s", b.Index+1, b.Cause)
	}
	return fmt.Sprintf("pattern %d lead is a %s", b.Index+1, b.Cause)
}

// Lead is where a matcher step's lead value comes from.
type Lead uint8

// Lead sources.
const (
	LeadConst    Lead = iota // a literal, or a variable the request environment binds
	LeadEarlier              // a variable an earlier step bound
	LeadComputed             // a computed field, evaluated when the step scans
	LeadUnknown              // a wildcard, a variable the step binds, or no lead (arity 0)
)

func (l Lead) String() string {
	return [...]string{"constant", "earlier step", "computed", "unknown"}[l]
}

// Path is the access path one scan took. The matcher picks it per scan, not
// per query: a lead-known step asks the source whether its lead bucket is
// wide before it reaches for the field indexes.
type Path uint8

// Access paths.
const (
	PathLead  Path = iota // the (arity, lead) bucket
	PathField             // the source's field indexes (ScanFields), which may still walk the arity
	PathArity             // every tuple of the arity
	NumPaths
)

func (p Path) String() string {
	return [...]string{"lead bucket", "field index", "arity scan"}[p]
}

// Step is one matcher step: in an execution's record, and summed over a
// site's executions. The planner may order a query differently as the store
// changes, so a site keeps one Step per (join position, pattern, lead).
type Step struct {
	Order   int  // join position, from 0
	Pattern int  // the pattern's index in the query, from 0
	Negated bool // negated patterns run after the positive ones, as written
	Lead    Lead
	Scans   [NumPaths]uint64 // scans per access path
	Visited uint64           // candidates the scans delivered
	Matched uint64           // candidates that matched; a positive step feeds each one forward
}

// ExplainSite sums one transaction site's executions: Planned + Unplanned
// of them, one on each rung. The site is the request's: a Go request's
// Site, an SDL statement's line:col (its Pos), or empty for a Go request
// that names none.
type ExplainSite struct {
	Site      string
	Planned   uint64
	Unplanned uint64
	Block     Block            // the first unplanned execution's
	Rungs     [NumRungs]uint64 // executions per rung
	Steps     []Step
}

// Pos is an SDL statement's source position. Only an explain record
// renders it, as its site's line:col, when it first records the site.
type Pos struct{ Line, Col int32 }

// String renders line:col.
func (p Pos) String() string {
	return strconv.Itoa(int(p.Line)) + ":" + strconv.Itoa(int(p.Col))
}

// siteKey is a site as a request names it: a Go request by its Site, an SDL
// statement by its Pos.
type siteKey struct {
	site string
	pos  Pos
}

// explainLog holds the sites' sums, under one lock: recording is gated on
// Observed and takes it once per execution. A sum is found by the site as a
// request names it, and kept by its rendered name, so a Go site "3:5" and
// an SDL statement at 3:5 share one sum.
type explainLog struct {
	mu    sync.Mutex
	sites map[siteKey]*ExplainSite
	named map[string]*ExplainSite
}

// RecordExplain adds one execution's record to its site's sum: site when
// the request names one, else pos when it has one. Gated: call only when
// Observed.
func (r *Registry) RecordExplain(site string, pos Pos, ex *Explain) {
	l := &r.explain
	l.mu.Lock()
	defer l.mu.Unlock()
	k := siteKey{site, pos}
	s := l.sites[k]
	if s == nil {
		if l.sites == nil {
			l.sites = make(map[siteKey]*ExplainSite)
			l.named = make(map[string]*ExplainSite)
		}
		if site == "" && pos != (Pos{}) {
			site = pos.String()
		}
		if s = l.named[site]; s == nil {
			s = &ExplainSite{Site: site}
			l.named[site] = s
		}
		l.sites[k] = s
	}
	if ex.Block.Cause == CauseNone {
		s.Planned++
	} else {
		if s.Unplanned == 0 {
			s.Block = ex.Block
		}
		s.Unplanned++
	}
	s.Rungs[ex.Rung]++
	for i := range ex.Steps {
		st := &ex.Steps[i]
		sum := s.step(st)
		for p, n := range st.Scans {
			sum.Scans[p] += n
		}
		sum.Visited += st.Visited
		sum.Matched += st.Matched
	}
}

// step returns the sum st adds to, starting it on first sight.
func (s *ExplainSite) step(st *Step) *Step {
	for i := range s.Steps {
		if sum := &s.Steps[i]; sum.Order == st.Order && sum.Pattern == st.Pattern && sum.Lead == st.Lead {
			return sum
		}
	}
	s.Steps = append(s.Steps, Step{Order: st.Order, Pattern: st.Pattern, Negated: st.Negated, Lead: st.Lead})
	return &s.Steps[len(s.Steps)-1]
}

// snapshot copies every site's sum, sorted by site.
func (l *explainLog) snapshot() []ExplainSite {
	l.mu.Lock()
	out := make([]ExplainSite, 0, len(l.named))
	for _, s := range l.named {
		c := *s
		c.Steps = append([]Step(nil), s.Steps...)
		out = append(out, c)
	}
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b ExplainSite) int { return strings.Compare(a.Site, b.Site) })
	return out
}
