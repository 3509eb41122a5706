// Package obs is the simulation-time-aware telemetry subsystem: counters,
// gauges and fixed-bucket latency histograms keyed by (subsystem, name,
// domain), causal fault spans recording per-hop latency along the
// self-paging fault path (dispatch → MMEntry → stretch driver → USD →
// disk → map completion), and a QoS-crosstalk monitor that flags windows
// in which one domain's paging measurably degrades another's progress.
//
// Every timestamp is sim.Time, so instrumented runs stay exactly
// deterministic. A nil *Registry (and every metric or span handle obtained
// from one) is a valid no-op: instrumented code needs neither nil checks
// nor allocations when telemetry is disabled.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nemesis/internal/sim"
)

// Clock supplies the current simulated instant (normally sim.Simulator.Now).
type Clock func() sim.Time

// Key identifies one metric: the subsystem that owns it, the metric name,
// and the domain (or client) it is attributed to. System-wide metrics use an
// empty Domain.
type Key struct {
	Subsystem string
	Name      string
	Domain    string
}

func (k Key) String() string {
	if k.Domain == "" {
		return k.Subsystem + "." + k.Name
	}
	return k.Subsystem + "." + k.Name + "[" + k.Domain + "]"
}

// DefaultSpanCap bounds the ring of finished spans a registry retains.
const DefaultSpanCap = 512

// DefaultAuditCap bounds the audit-event ring. Generous: a paper-scale run
// records tens of events, and even a 10k-domain cluster machine stays well
// under it — but a pathological run can no longer grow the log without
// bound. Evictions are counted in the obs.audit_evicted counter.
const DefaultAuditCap = 65536

// family is an interned (subsystem, name) pair. A hop histogram's family
// is its (fault class, hop name) pair.
type family struct {
	sub, name string
}

// metricKind selects one of the registry's slabs and its index table, so
// one (family, domain) may name a metric of each kind.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	numKinds
)

// slabChunk is the number of metrics in one slab chunk: 5,000 domains'
// metrics fit in a few hundred chunks, and a registry of a few metrics
// wastes at most one partly used chunk per kind.
const slabChunk = 512

// slab holds metrics by value in creation order, in fixed-size chunks that
// are never reallocated, so a pointer into it stays valid for the
// registry's lifetime.
type slab[T any] struct {
	chunks []*[slabChunk]T
	n      int32
}

// add appends a zero metric and returns it.
func (s *slab[T]) add() *T {
	if s.n%slabChunk == 0 {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	m := s.at(s.n)
	s.n++
	return m
}

// at returns the metric at position i.
func (s *slab[T]) at(i int32) *T { return &s.chunks[i/slabChunk][i%slabChunk] }

// Registry holds all metrics, finished fault spans and crosstalk flags for
// one simulated system. It must only be touched from simulator context (one
// goroutine at a time), which the process model already guarantees.
type Registry struct {
	now Clock

	// Metrics live by value in one slab per kind, in creation order, the
	// order every export walks. Each carries its interned family and
	// domain: fams and doms number each one the first time it is seen.
	// index[kind][family] is a dense row indexed by domain number, holding
	// 1 + the metric's slab position (0 = none); a row grows only to the
	// highest domain its family has a metric for. Hop histograms are found
	// through spanStats, not index.
	fams    []family
	famIdx  map[family]uint32
	doms    []string
	domIdx  map[string]uint32
	lastDom uint32 // the domain interned last: one domain's metrics register back to back
	index   [numKinds][][]int32

	counters slab[Counter]
	gauges   slab[Gauge]
	hists    slab[Histogram]
	hops     slab[Histogram]

	// spanStats caches, per (domain, class), the e2e histogram and the hop
	// histograms a finished span observes into, so the per-fault recording
	// path does no string concatenation and at most one map lookup.
	spanStats map[spanKey]*spanStats

	spanCap   int
	spans     []*Span // ring buffer once full
	spanHead  int     // next overwrite position
	spanTotal int64   // spans ever recorded
	freeSpans []*Span // recycled spans evicted from the ring

	// cEvicted counts spans recycled out of the ring; created lazily on
	// the first eviction so short runs export no empty series.
	cEvicted *Counter

	// flowBase offsets span flow IDs so registries of different machines
	// in one merged cluster trace never alias; flowSeq is the last local
	// sequence number handed out.
	flowBase uint64
	flowSeq  uint64

	flags []Flag

	// audit is a ring once auditCap is reached; auditHead is the next
	// overwrite position, auditTotal the events ever recorded, and
	// cAuditEvicted (lazy, like cEvicted) counts overwritten events.
	audit         []AuditEvent
	auditCap      int
	auditHead     int
	auditTotal    int64
	cAuditEvicted *Counter

	// attr is the sim-time attribution state machine, nil until
	// EnableAttribution. When enabled, span lifecycle events drive it.
	attr *Attribution
}

// NewRegistry creates a registry reading time from now.
func NewRegistry(now Clock) *Registry {
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	return &Registry{
		now:       now,
		famIdx:    make(map[family]uint32),
		domIdx:    make(map[string]uint32),
		spanStats: make(map[spanKey]*spanStats),
		spanCap:   DefaultSpanCap,
		auditCap:  DefaultAuditCap,
	}
}

// SetSpanCap resizes the finished-span ring (minimum 1). Must be called
// before spans are recorded.
func (r *Registry) SetSpanCap(n int) {
	if r == nil || n < 1 {
		return
	}
	r.spanCap = n
}

// SetAuditCap resizes the audit-event ring (minimum 1). Must be called
// before events are recorded.
func (r *Registry) SetAuditCap(n int) {
	if r == nil || n < 1 {
		return
	}
	r.auditCap = n
}

// SetFlowBase offsets all subsequently assigned span flow IDs by base.
// Cluster runs give each machine a disjoint base (machine index shifted
// past any plausible per-machine span count) so merged traces never alias
// two machines' flows.
func (r *Registry) SetFlowBase(base uint64) {
	if r == nil {
		return
	}
	r.flowBase = base
}

// nextFlowID hands out the next machine-unique flow ID (never zero).
func (r *Registry) nextFlowID() uint64 {
	r.flowSeq++
	return r.flowBase + r.flowSeq
}

// EnableAttribution switches on exact per-domain sim-time attribution
// (idempotent) and returns the state machine. Fault spans recorded on the
// registry feed it automatically; the CPU scheduler feeds it via the handle
// the system facade wires in.
func (r *Registry) EnableAttribution() *Attribution {
	if r == nil {
		return nil
	}
	if r.attr == nil {
		r.attr = newAttribution(r.now)
	}
	return r.attr
}

// Attr returns the attribution state machine, or nil if never enabled.
func (r *Registry) Attr() *Attribution {
	if r == nil {
		return nil
	}
	return r.attr
}

// HopHistogram returns the latency histogram of one fault-path hop for one
// (domain, fault class), or nil if that hop was never observed.
func (r *Registry) HopHistogram(domain, class, hop string) *Histogram {
	if r == nil {
		return nil
	}
	if ss := r.spanStats[spanKey{domain, class}]; ss != nil {
		return ss.hop(hop)
	}
	return nil
}

// Now returns the registry's current simulated time (zero for nil).
func (r *Registry) Now() sim.Time {
	if r == nil {
		return 0
	}
	return r.now()
}

// intern returns v's number in table, numbering it on first sight.
func intern[K comparable](idx map[K]uint32, table *[]K, v K) uint32 {
	id, ok := idx[v]
	if !ok {
		id = uint32(len(*table))
		*table = append(*table, v)
		idx[v] = id
	}
	return id
}

func (r *Registry) internFam(sub, name string) uint32 {
	return intern(r.famIdx, &r.fams, family{sub, name})
}

func (r *Registry) internDom(domain string) uint32 {
	if int(r.lastDom) < len(r.doms) && r.doms[r.lastDom] == domain {
		return r.lastDom
	}
	r.lastDom = intern(r.domIdx, &r.doms, domain)
	return r.lastDom
}

// key rebuilds the exported key of an interned (family, domain).
func (r *Registry) key(fam, dom uint32) Key {
	f := r.fams[fam]
	return Key{f.sub, f.name, r.doms[dom]}
}

// slot returns the index cell of (kind, family, domain), growing the
// kind's table and the family's row to reach it. A row at least doubles:
// past 256 cells append grows by about 1.25×, so building a row of n cells
// one domain at a time would allocate about 5n.
func (r *Registry) slot(kind metricKind, fam, dom uint32) *int32 {
	rows := &r.index[kind]
	if n := int(fam) + 1; n > len(*rows) {
		*rows = append(*rows, make([][]int32, n-len(*rows))...)
	}
	row := &(*rows)[fam]
	if n := int(dom) + 1; n > len(*row) {
		grown := make([]int32, max(n, 2*len(*row)))
		copy(grown, *row)
		*row = grown
	}
	return &(*row)[dom]
}

// lookup returns 1 + the slab position of an existing metric, or 0,
// interning and growing nothing.
func (r *Registry) lookup(kind metricKind, subsystem, name, domain string) int32 {
	if r == nil {
		return 0
	}
	fam, ok := r.famIdx[family{subsystem, name}]
	if !ok || int(fam) >= len(r.index[kind]) {
		return 0
	}
	dom, ok := r.domIdx[domain]
	if row := r.index[kind][fam]; ok && int(dom) < len(row) {
		return row[dom]
	}
	return 0
}

// Counter returns (creating if needed) the counter for key. Nil registries
// return a nil counter, whose methods are no-ops.
func (r *Registry) Counter(subsystem, name, domain string) *Counter {
	if r == nil {
		return nil
	}
	fam, dom := r.internFam(subsystem, name), r.internDom(domain)
	i := r.slot(kindCounter, fam, dom)
	if *i == 0 {
		c := r.counters.add()
		c.r, c.fam, c.dom = r, fam, dom
		*i = r.counters.n
	}
	return r.counters.at(*i - 1)
}

// Gauge returns (creating if needed) the gauge for key.
func (r *Registry) Gauge(subsystem, name, domain string) *Gauge {
	if r == nil {
		return nil
	}
	fam, dom := r.internFam(subsystem, name), r.internDom(domain)
	i := r.slot(kindGauge, fam, dom)
	if *i == 0 {
		g := r.gauges.add()
		g.r, g.fam, g.dom = r, fam, dom
		*i = r.gauges.n
	}
	return r.gauges.at(*i - 1)
}

// Histogram returns (creating if needed) the latency histogram for key,
// using the default exponential bucket layout.
func (r *Registry) Histogram(subsystem, name, domain string) *Histogram {
	if r == nil {
		return nil
	}
	fam, dom := r.internFam(subsystem, name), r.internDom(domain)
	i := r.slot(kindHistogram, fam, dom)
	if *i == 0 {
		h := r.hists.add()
		h.r, h.fam, h.dom = r, fam, dom
		*i = r.hists.n
	}
	return r.hists.at(*i - 1)
}

// LookupCounter returns the counter for key, or nil if it has never been
// created. Useful for read-only reporting that must not clutter the
// registry with empty series.
func (r *Registry) LookupCounter(subsystem, name, domain string) *Counter {
	if i := r.lookup(kindCounter, subsystem, name, domain); i != 0 {
		return r.counters.at(i - 1)
	}
	return nil
}

// LookupGauge returns the gauge for key, or nil if it has never been
// created.
func (r *Registry) LookupGauge(subsystem, name, domain string) *Gauge {
	if i := r.lookup(kindGauge, subsystem, name, domain); i != 0 {
		return r.gauges.at(i - 1)
	}
	return nil
}

// LookupHistogram returns the histogram for key, or nil if it has never
// been created.
func (r *Registry) LookupHistogram(subsystem, name, domain string) *Histogram {
	if i := r.lookup(kindHistogram, subsystem, name, domain); i != 0 {
		return r.hists.at(i - 1)
	}
	return nil
}

// Counter is a monotonically increasing count, stamped with the simulated
// time of its last update.
type Counter struct {
	r        *Registry
	fam, dom uint32
	v        int64
	at       sim.Time
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
	c.at = c.r.now()
}

// Value returns the current count (zero for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Updated returns the simulated time of the last update.
func (c *Counter) Updated() sim.Time {
	if c == nil {
		return 0
	}
	return c.at
}

// Gauge is an instantaneous level (queue depth, free frames, stack depth).
type Gauge struct {
	r        *Registry
	fam, dom uint32
	v        int64
	at       sim.Time
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	g.at = g.r.now()
}

// Add adjusts the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v += delta
	g.at = g.r.now()
}

// Value returns the current level (zero for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Updated returns the simulated time of the last update.
func (g *Gauge) Updated() sim.Time {
	if g == nil {
		return 0
	}
	return g.at
}

// numBuckets is the number of bounded histogram buckets.
const numBuckets = 27

// histBuckets are the fixed upper bounds of the latency histogram:
// exponential from 1 µs, doubling, up to ~67 s, plus an implicit overflow
// bucket. Fault-path latencies (tens of ns to seconds) all land inside.
var histBuckets = func() (out [numBuckets]time.Duration) {
	b := time.Microsecond
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// bucketOf returns the index of the bucket d falls in: the first whose
// bound is at least d, or the overflow bucket.
func bucketOf(d time.Duration) int {
	i := 0
	for i < len(histBuckets) && d > histBuckets[i] {
		i++
	}
	return i
}

// inlineSamples is how many observations a histogram keeps as raw samples
// before it allocates its bucket array. Most histograms of a large run
// (a cluster domain's frame waits, a hop it took once) never hold more.
const inlineSamples = 4

// Histogram is a fixed-bucket latency histogram with exact count, sum, min
// and max, and bucket-interpolated quantiles. Its first inlineSamples
// samples are kept inline; the fifth allocates the bucket array and moves
// them into it. Every reader derives the same bucket counts either way.
type Histogram struct {
	r        *Registry
	fam, dom uint32
	inline   [inlineSamples]time.Duration // the samples while counts is nil
	counts   *[numBuckets + 1]int64       // last is overflow; nil until count > inlineSamples
	count    int64
	sum      time.Duration
	min      time.Duration
	max      time.Duration
	at       sim.Time
}

// Observe records one latency sample. Safe on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	switch {
	case h.counts != nil:
		h.counts[bucketOf(d)]++
	case h.count < inlineSamples:
		h.inline[h.count] = d
	default:
		h.spill()
		h.counts[bucketOf(d)]++
	}
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.at = h.r.now()
}

// spill allocates the bucket array and moves the inline samples into it.
func (h *Histogram) spill() {
	h.counts = new([numBuckets + 1]int64)
	for _, s := range h.inline {
		h.counts[bucketOf(s)]++
	}
}

// buckets returns the per-bucket sample counts.
func (h *Histogram) buckets() (b [numBuckets + 1]int64) {
	if h.counts != nil {
		return *h.counts
	}
	for _, s := range h.inline[:h.count] {
		b[bucketOf(s)]++
	}
	return b
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest sample.
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the mean sample, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Updated returns the simulated time of the last observation.
func (h *Histogram) Updated() sim.Time {
	if h == nil {
		return 0
	}
	return h.at
}

// Quantile returns the q-quantile (0 < q <= 1), linearly interpolated
// within the containing bucket and clamped to the exact min/max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	b := h.buckets()
	return bucketQuantile(q, h.count, h.min, h.max, b[:])
}

// bucketQuantile is the q-quantile of count samples with the given exact
// lowest and highest values, spread over buckets (the histBuckets layout,
// trailing empty buckets optional), interpolated by rank within the
// containing bucket.
func bucketQuantile(q float64, count int64, lowest, highest time.Duration, buckets []int64) time.Duration {
	if count == 0 {
		return 0
	}
	if q <= 0 {
		return lowest
	}
	if q >= 1 {
		return highest
	}
	target := int64(q*float64(count) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum < target {
			continue
		}
		var lo, hi time.Duration
		if i == 0 {
			lo = 0
		} else {
			lo = histBuckets[i-1]
		}
		if i < len(histBuckets) {
			hi = histBuckets[i]
		} else {
			hi = highest // overflow bucket: clamp to observed max
		}
		// Interpolate by rank within the bucket.
		rankInBucket := target - (cum - c)
		est := lo + time.Duration(float64(hi-lo)*float64(rankInBucket)/float64(c))
		if est < lowest {
			est = lowest
		}
		if est > highest {
			est = highest
		}
		return est
	}
	return highest
}

// metricRow is one export line; blank fields render empty in TSV.
type metricRow struct {
	Type      string  `json:"type"`
	Subsystem string  `json:"subsystem"`
	Name      string  `json:"name"`
	Domain    string  `json:"domain,omitempty"`
	Value     *int64  `json:"value,omitempty"`
	Count     *int64  `json:"count,omitempty"`
	SumMs     *string `json:"sum_ms,omitempty"`
	P50Ms     *string `json:"p50_ms,omitempty"`
	P95Ms     *string `json:"p95_ms,omitempty"`
	P99Ms     *string `json:"p99_ms,omitempty"`
	MaxMs     *string `json:"max_ms,omitempty"`
	UpdatedMs float64 `json:"updated_ms"`
}

func msStr(d time.Duration) *string {
	s := fmt.Sprintf("%.4f", float64(d)/1e6)
	return &s
}

func (r *Registry) metricRows() []metricRow {
	var rows []metricRow
	for i := range r.counters.n {
		c := r.counters.at(i)
		k, v := r.key(c.fam, c.dom), c.v
		rows = append(rows, metricRow{Type: "counter", Subsystem: k.Subsystem, Name: k.Name, Domain: k.Domain, Value: &v, UpdatedMs: c.at.Milliseconds()})
	}
	for i := range r.gauges.n {
		g := r.gauges.at(i)
		k, v := r.key(g.fam, g.dom), g.v
		rows = append(rows, metricRow{Type: "gauge", Subsystem: k.Subsystem, Name: k.Name, Domain: k.Domain, Value: &v, UpdatedMs: g.at.Milliseconds()})
	}
	for i := range r.hists.n {
		h := r.hists.at(i)
		k, n := r.key(h.fam, h.dom), h.count
		rows = append(rows, metricRow{
			Type: "histogram", Subsystem: k.Subsystem, Name: k.Name, Domain: k.Domain,
			Count: &n, SumMs: msStr(h.sum),
			P50Ms: msStr(h.Quantile(0.50)), P95Ms: msStr(h.Quantile(0.95)),
			P99Ms: msStr(h.Quantile(0.99)), MaxMs: msStr(h.max),
			UpdatedMs: h.at.Milliseconds(),
		})
	}
	return rows
}

func orEmpty(s *string) string {
	if s == nil {
		return ""
	}
	return *s
}

// WriteMetricsTSV renders every counter, gauge and histogram as TSV, in
// creation order (which is deterministic for a deterministic run).
func (r *Registry) WriteMetricsTSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "type\tsubsystem\tname\tdomain\tvalue\tcount\tsum_ms\tp50_ms\tp95_ms\tp99_ms\tmax_ms\tupdated_ms"); err != nil {
		return err
	}
	for _, row := range r.metricRows() {
		val := ""
		if row.Value != nil {
			val = fmt.Sprintf("%d", *row.Value)
		}
		cnt := ""
		if row.Count != nil {
			cnt = fmt.Sprintf("%d", *row.Count)
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.3f\n",
			row.Type, row.Subsystem, row.Name, row.Domain, val, cnt,
			orEmpty(row.SumMs), orEmpty(row.P50Ms), orEmpty(row.P95Ms), orEmpty(row.P99Ms), orEmpty(row.MaxMs),
			row.UpdatedMs); err != nil {
			return err
		}
	}
	return nil
}

// snapshot is the JSON export shape.
type snapshot struct {
	TimeMs    float64      `json:"time_ms"`
	Metrics   []metricRow  `json:"metrics"`
	Hops      []HopSummary `json:"fault_hops"`
	Spans     []spanExport `json:"recent_spans"`
	Crosstalk []Flag       `json:"crosstalk_flags"`
	Audit     []AuditEvent `json:"audit_log"`
}

// WriteJSON renders the full registry state — metrics, per-hop fault
// latency summaries, the retained span ring and crosstalk flags — as one
// JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := snapshot{
		TimeMs:    r.now().Milliseconds(),
		Metrics:   r.metricRows(),
		Hops:      r.HopSummaries(),
		Spans:     r.exportSpans(),
		Crosstalk: r.flags,
		Audit:     r.AuditLog(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
