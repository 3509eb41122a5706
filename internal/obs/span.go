package obs

import (
	"fmt"
	"io"
	"time"

	"nemesis/internal/sim"
)

// Hop is one measured segment of a fault span. Hops are contiguous: each
// hop begins exactly where the previous one ended, so the hop durations of
// a finished span sum to the span's end-to-end latency.
type Hop struct {
	Name  string
	Start sim.Time
	End   sim.Time
}

// Duration returns the hop's latency.
func (h Hop) Duration() time.Duration { return h.End.Sub(h.Start) }

// Span is one causal fault record: opened at kernel fault dispatch,
// threaded through the MMEntry, the stretch driver, the USD and the disk,
// and finished when the faulting thread resumes. A nil *Span is a valid
// no-op, so the fault path pays nothing when telemetry is disabled.
type Span struct {
	reg  *Registry
	dom  DomainNum   // the domain's number, from StartSpan to Finish
	acct *DomainAttr // the domain's attribution account, nil without attribution

	Domain  string
	Class   string // fault class: "page", "protection", "unallocated"
	Thread  string
	Outcome string // "fast", "worker", "handler", "fatal"

	// Flow is the span's cross-machine flow ID (zero until EnsureFlow).
	// Netswap stamps it on every request the span causes, and the remote
	// server echoes it into its own service span, so merged cluster traces
	// can draw an arrow from the client's net.out hop to the server slice.
	Flow uint64

	Start sim.Time
	End   sim.Time

	hops []Hop
	open bool // last hop still open
	done bool
}

// spanHopCap is a new span's hop capacity. A fast-path fault records 4
// hops and a worker fault 10 or more: the pager's hop twice, then a hop
// per stage of each transfer. 10 is the capacity that allocates least in
// a 1×5000×6 cluster run, whose spans are 10,000 four-hop fast faults and
// 948 ten-hop remote worker faults (DESIGN §8). A longer span, such as a
// Fig. 7 fault that evicts and then reads (13 hops), grows once, and the
// free list keeps the grown span.
const spanHopCap = 10

// StartSpan opens a fault span for the given domain (a number from
// DomainNum) and fault class at the current simulated time. A nil registry
// returns a nil span. Spans are drawn from a free list fed by ring
// eviction, so a steady-state fault path reuses the same handful of spans;
// holders of Spans() snapshots must therefore consume them before recording
// more spans.
func (r *Registry) StartSpan(dom DomainNum, class string) *Span {
	if r == nil {
		return nil
	}
	var s *Span
	if n := len(r.freeSpans); n > 0 {
		s = r.freeSpans[n-1]
		r.freeSpans[n-1] = nil
		r.freeSpans = r.freeSpans[:n-1]
		*s = Span{hops: s.hops[:0]}
	} else {
		s = &Span{hops: make([]Hop, 0, spanHopCap)}
	}
	s.reg, s.dom, s.Domain, s.Class, s.Start = r, dom, r.doms[dom], class, r.now()
	r.attr.spanStarted(s)
	return s
}

// SetThread records the faulting thread's name.
func (s *Span) SetThread(name string) {
	if s == nil {
		return
	}
	s.Thread = name
}

// EnsureFlow returns the span's flow ID, assigning the registry's next one
// on first use. Zero (and a no-op) on a nil span, so untraced fault paths
// pay nothing.
func (s *Span) EnsureFlow() uint64 {
	if s == nil {
		return 0
	}
	if s.Flow == 0 {
		s.Flow = s.reg.nextFlowID()
	}
	return s.Flow
}

// SetFlow adopts a flow ID assigned elsewhere (the remote swap server
// correlating its service span with the originating client fault).
func (s *Span) SetFlow(id uint64) {
	if s == nil {
		return
	}
	s.Flow = id
}

// closeOpen closes the currently open hop at instant at (clamped so hops
// never run backwards).
func (s *Span) closeOpen(at sim.Time) {
	if !s.open {
		return
	}
	last := &s.hops[len(s.hops)-1]
	if at < last.Start {
		at = last.Start
	}
	last.End = at
	s.open = false
}

// BeginHop closes any open hop at the current instant and opens a new one
// named name. Safe on a nil receiver.
func (s *Span) BeginHop(name string) {
	if s == nil || s.done {
		return
	}
	now := s.reg.now()
	s.closeOpen(now)
	s.hops = append(s.hops, Hop{Name: name, Start: now})
	s.open = true
	s.acct.spanHop(now)
}

// SplitHop closes the open hop at instant at (which may lie in the past —
// e.g. a USD transaction's recorded service start) and opens a new hop
// named name at the same instant, keeping the hop chain contiguous.
func (s *Span) SplitHop(at sim.Time, name string) {
	if s == nil || s.done {
		return
	}
	if !s.open {
		// No open hop to split: behave like BeginHop at the given instant.
		s.hops = append(s.hops, Hop{Name: name, Start: at})
		s.open = true
		s.acct.spanHop(at)
		return
	}
	last := &s.hops[len(s.hops)-1]
	if at < last.Start {
		at = last.Start
	}
	last.End = at
	s.hops = append(s.hops, Hop{Name: name, Start: at})
	s.acct.spanHop(at)
}

// EndHop closes the open hop at the current instant without opening a new
// one (a gap until the next BeginHop; rarely wanted on the fault path).
func (s *Span) EndHop() {
	if s == nil || s.done {
		return
	}
	s.closeOpen(s.reg.now())
}

// Finish closes the span (and any open hop) at the current instant,
// records the end-to-end latency and every hop latency into the
// registry's aggregates, and retains the span in the ring.
func (s *Span) Finish(outcome string) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.End = s.reg.now()
	s.closeOpen(s.End)
	s.Outcome = outcome
	// Release the attribution's reference before recordSpan may recycle
	// the span into the free list.
	s.acct.spanFinished(s)
	s.reg.recordSpan(s)
}

// Duration returns the end-to-end latency of a finished span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Hops returns a copy of the span's hop records.
func (s *Span) Hops() []Hop {
	if s == nil {
		return nil
	}
	out := make([]Hop, len(s.hops))
	copy(out, s.hops)
	return out
}

// HopSum returns the sum of all hop durations; for a finished span this
// equals Duration exactly, which tests assert.
func (s *Span) HopSum() time.Duration {
	if s == nil {
		return 0
	}
	var sum time.Duration
	for _, h := range s.hops {
		sum += h.Duration()
	}
	return sum
}

// spanClass is one fault class's span populations: each domain's, found by
// the domain's number. e2e is the family of the class's end-to-end
// histograms ("span", "e2e."+name), interned when the class is first seen.
type spanClass struct {
	name string
	e2e  uint32
	pops table[spanStats]
}

// spanStats holds the pre-resolved histogram handles for one (domain, fault
// class) span population: the e2e latency histogram (nil until the
// population's first span finishes) and, per hop name, the population's own
// hop histogram in the registry's hop slab. It is the only index of hop
// histograms. Hop counts per class are small, so a linear name scan beats a
// map lookup.
type spanStats struct {
	e2e  *Histogram
	hops []hopSlot
}

type hopSlot struct {
	name string
	h    *Histogram
}

// hop returns the population's histogram for the named hop, or nil.
func (ss *spanStats) hop(name string) *Histogram {
	for i := range ss.hops {
		if ss.hops[i].name == name {
			return ss.hops[i].h
		}
	}
	return nil
}

// popHopCap is the hop-slot capacity statsFor gives a span population: the
// 9 distinct hops of a worker fault that evicts a page to a remote store
// (dispatch, mmentry, driver, queue, evict, net.out, remote.store, net.back
// and map), the longest path a cluster run records. A population that also
// reads pages back from the local swap file records 10 and grows once.
const popHopCap = 9

// class returns the populations of a fault class, adding the class on
// first sight. A registry sees a handful of classes, so a scan finds it.
func (r *Registry) class(name string) *spanClass {
	for i := range r.classes {
		if r.classes[i].name == name {
			return &r.classes[i]
		}
	}
	r.classes = append(r.classes, spanClass{name: name, e2e: r.internFam("span", "e2e."+name)})
	return &r.classes[len(r.classes)-1]
}

// statsFor returns (creating on first finish, which preserves the registry's
// first-seen metric ordering) the handles for a span population, with room
// for popHopCap hops.
func (r *Registry) statsFor(dom DomainNum, class string) *spanStats {
	c := r.class(class)
	ss := c.pops.at(uint32(dom))
	if ss.e2e == nil {
		ss.e2e = r.histAt(c.e2e, dom)
		ss.hops = make([]hopSlot, 0, popHopCap)
	}
	return ss
}

// recordSpan folds a finished span into the aggregates and the ring.
func (r *Registry) recordSpan(s *Span) {
	ss := r.statsFor(s.dom, s.Class)
	ss.e2e.Observe(s.Duration())
	for _, h := range s.hops {
		hist := ss.hop(h.Name)
		if hist == nil {
			hist = r.hops.add()
			hist.r, hist.fam, hist.dom = r, r.internFam(s.Class, h.Name), s.dom
			ss.hops = append(ss.hops, hopSlot{h.Name, hist})
		}
		hist.Observe(h.Duration())
	}
	r.spanTotal++
	if len(r.spans) < r.spanCap {
		r.spans = append(r.spans, s)
		return
	}
	old := r.spans[r.spanHead]
	r.spans[r.spanHead] = s
	r.spanHead = (r.spanHead + 1) % r.spanCap
	r.freeSpans = append(r.freeSpans, old)
	if r.cEvicted == nil {
		r.cEvicted = r.counterAt(r.internFam("obs", "spans_evicted"), systemDomain)
	}
	r.cEvicted.Inc()
}

// SpansEvicted returns how many finished spans the ring has recycled out
// from under consumers (zero until the ring first overflows).
func (r *Registry) SpansEvicted() int64 {
	if r == nil {
		return 0
	}
	return r.cEvicted.Value()
}

// Spans returns the retained finished spans, oldest first.
func (r *Registry) Spans() []*Span {
	if r == nil {
		return nil
	}
	out := make([]*Span, 0, len(r.spans))
	out = append(out, r.spans[r.spanHead:]...)
	out = append(out, r.spans[:r.spanHead]...)
	return out
}

// SpanTotal returns the number of spans ever finished (including those the
// ring has dropped).
func (r *Registry) SpanTotal() int64 {
	if r == nil {
		return 0
	}
	return r.spanTotal
}

// HopSummary is the latency distribution of one hop for one (domain, fault
// class) pair.
type HopSummary struct {
	Domain string  `json:"domain"`
	Class  string  `json:"class"`
	Hop    string  `json:"hop"`
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// HopSummaries returns per-hop latency breakdowns in first-seen order
// (deterministic for a deterministic run).
func (r *Registry) HopSummaries() []HopSummary {
	if r == nil {
		return nil
	}
	out := make([]HopSummary, 0, r.hops.n)
	for i := range r.hops.n {
		h := r.hops.at(i)
		f := r.fams[h.fam]
		out = append(out, HopSummary{
			Domain: r.doms[h.dom], Class: f.sub, Hop: f.name, Count: h.Count(),
			P50Ms: float64(h.Quantile(0.50)) / 1e6,
			P95Ms: float64(h.Quantile(0.95)) / 1e6,
			P99Ms: float64(h.Quantile(0.99)) / 1e6,
			MaxMs: float64(h.Max()) / 1e6,
		})
	}
	return out
}

// WriteSpansTSV renders the per-hop latency summaries as TSV.
func (r *Registry) WriteSpansTSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "domain\tclass\thop\tcount\tp50_ms\tp95_ms\tp99_ms\tmax_ms"); err != nil {
		return err
	}
	for _, hs := range r.HopSummaries() {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\n",
			hs.Domain, hs.Class, hs.Hop, hs.Count, hs.P50Ms, hs.P95Ms, hs.P99Ms, hs.MaxMs); err != nil {
			return err
		}
	}
	return nil
}

// spanExport is the JSON shape of one retained span.
type spanExport struct {
	Domain  string      `json:"domain"`
	Class   string      `json:"class"`
	Thread  string      `json:"thread,omitempty"`
	Outcome string      `json:"outcome"`
	Flow    uint64      `json:"flow,omitempty"`
	StartMs float64     `json:"start_ms"`
	EndMs   float64     `json:"end_ms"`
	Hops    []hopExport `json:"hops"`
}

type hopExport struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (r *Registry) exportSpans() []spanExport {
	spans := r.Spans()
	out := make([]spanExport, 0, len(spans))
	for _, s := range spans {
		se := spanExport{
			Domain: s.Domain, Class: s.Class, Thread: s.Thread, Outcome: s.Outcome,
			Flow:    s.Flow,
			StartMs: s.Start.Milliseconds(), EndMs: s.End.Milliseconds(),
		}
		for _, h := range s.hops {
			se.Hops = append(se.Hops, hopExport{Name: h.Name, StartMs: h.Start.Milliseconds(), EndMs: h.End.Milliseconds()})
		}
		out = append(out, se)
	}
	return out
}
