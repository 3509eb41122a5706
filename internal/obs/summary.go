package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// HistSnapshot is a histogram's serialisable, mergeable state: exact count,
// sum, min and max plus the fixed exponential bucket counts (trailing zero
// buckets trimmed for compactness). Two snapshots taken on the shared
// histBuckets layout merge exactly — merging is commutative and associative,
// which is what lets per-machine cluster rollups be folded in any order.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	MinNs   int64   `json:"min_ns"`
	MaxNs   int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Safe on a nil receiver
// (returns the zero snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil || h.count == 0 {
		return HistSnapshot{}
	}
	b := h.buckets()
	last := 0
	for i, c := range b {
		if c != 0 {
			last = i + 1
		}
	}
	return HistSnapshot{
		Count:   h.count,
		SumNs:   int64(h.sum),
		MinNs:   int64(h.min),
		MaxNs:   int64(h.max),
		Buckets: append([]int64(nil), b[:last]...),
	}
}

// Merge folds b into a. Empty snapshots are identities, so any merge order
// over a set of snapshots yields identical bytes.
func (a *HistSnapshot) Merge(b HistSnapshot) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		a.Buckets = append([]int64(nil), b.Buckets...)
		return
	}
	if b.MinNs < a.MinNs {
		a.MinNs = b.MinNs
	}
	if b.MaxNs > a.MaxNs {
		a.MaxNs = b.MaxNs
	}
	a.Count += b.Count
	a.SumNs += b.SumNs
	if len(b.Buckets) > len(a.Buckets) {
		grown := make([]int64, len(b.Buckets))
		copy(grown, a.Buckets)
		a.Buckets = grown
	}
	for i, c := range b.Buckets {
		a.Buckets[i] += c
	}
}

// mergeHist folds h into a exactly as a.Merge(h.Snapshot()) does, without
// building the snapshot.
func (a *HistSnapshot) mergeHist(h *Histogram) {
	if h.count == 0 {
		return
	}
	if a.Count == 0 {
		*a = HistSnapshot{MinNs: int64(h.min), MaxNs: int64(h.max)}
	}
	a.MinNs = min(a.MinNs, int64(h.min))
	a.MaxNs = max(a.MaxNs, int64(h.max))
	a.Count += h.count
	a.SumNs += int64(h.sum)
	for i, c := range h.buckets() {
		if c == 0 {
			continue
		}
		if n := i + 1; n > len(a.Buckets) {
			a.Buckets = append(a.Buckets, make([]int64, n-len(a.Buckets))...)
		}
		a.Buckets[i] += c
	}
}

// Quantile mirrors Histogram.Quantile on the snapshot: bucket-interpolated,
// clamped to the exact min/max.
func (h HistSnapshot) Quantile(q float64) time.Duration {
	return bucketQuantile(q, h.Count, time.Duration(h.MinNs), time.Duration(h.MaxNs), h.Buckets)
}

// Mean returns the mean sample, or 0 when empty.
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNs / h.Count)
}

// SummaryCounter is one counter aggregated across all domains.
type SummaryCounter struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Value     int64  `json:"value"`
}

// SummaryHop is the latency rollup of one fault-path hop across every
// domain and fault class that observed it.
type SummaryHop struct {
	Hop  string       `json:"hop"`
	Hist HistSnapshot `json:"hist"`
}

// SummaryDomain ranks one domain by total fault-blocked time (the sum of
// its end-to-end span latencies). ElapsedNs is the clock of the registry
// the entry came from, so shares stay exact after cross-machine merges.
type SummaryDomain struct {
	Domain    string `json:"domain"`
	Spans     int64  `json:"spans"`
	BlockedNs int64  `json:"blocked_ns"`
	ElapsedNs int64  `json:"elapsed_ns"`
}

// Share is the fraction of the domain's machine-elapsed time spent blocked
// on faults.
func (d SummaryDomain) Share() float64 {
	if d.ElapsedNs <= 0 {
		return 0
	}
	return float64(d.BlockedNs) / float64(d.ElapsedNs)
}

// Summary is a compact, deterministic, mergeable rollup of one Registry:
// cross-domain counter sums, hop-latency histograms and the top domains by
// fault-blocked time. Cluster runs build one per machine and fold them into
// a single cluster-wide report; Merge is commutative and associative (all
// slices are canonically sorted), so any fold order — including a parallel
// sweep's nondeterministic completion order — yields identical bytes.
type Summary struct {
	NowNs        int64            `json:"now_ns"`
	Spans        int64            `json:"spans"`
	SpansEvicted int64            `json:"spans_evicted,omitempty"`
	AuditEvents  int64            `json:"audit_events,omitempty"`
	AuditEvicted int64            `json:"audit_evicted,omitempty"`
	Flags        int64            `json:"crosstalk_flags,omitempty"`
	Counters     []SummaryCounter `json:"counters,omitempty"`
	Hops         []SummaryHop     `json:"hops,omitempty"`
	TopDomains   []SummaryDomain  `json:"top_domains,omitempty"`
	// TopK is the per-source truncation each contributing registry applied;
	// Merge keeps the union (bounded by sources × TopK) and Truncate cuts
	// the final report back down, so merge order cannot change the result.
	TopK int `json:"top_k,omitempty"`
}

// Summarize rolls the registry up into a Summary, keeping the topK domains
// by fault-blocked time. Nil registries summarize to the empty Summary.
func (r *Registry) Summarize(topK int) *Summary {
	s := &Summary{TopK: topK}
	if r == nil {
		return s
	}
	s.NowNs = int64(r.now())
	s.Spans = r.spanTotal
	s.SpansEvicted = r.cEvicted.Value()
	s.AuditEvents = r.auditTotal
	s.AuditEvicted = r.cAuditEvicted.Value()
	s.Flags = int64(len(r.flags))

	// Rollup positions by interned family and domain, plus one (0 = none).
	cidx := make([]int, len(r.fams))
	for i := range r.counters.n {
		c := r.counters.at(i)
		if cidx[c.fam] == 0 {
			f := r.fams[c.fam]
			s.Counters = append(s.Counters, SummaryCounter{Subsystem: f.sub, Name: f.name})
			cidx[c.fam] = len(s.Counters)
		}
		s.Counters[cidx[c.fam]-1].Value += c.v
	}
	sortCounters(s.Counters)

	hidx := map[string]int{}
	for i := range r.hops.n {
		h := r.hops.at(i)
		hop := r.fams[h.fam].name
		j, ok := hidx[hop]
		if !ok {
			j = len(s.Hops)
			hidx[hop] = j
			s.Hops = append(s.Hops, SummaryHop{Hop: hop})
		}
		s.Hops[j].Hist.mergeHist(h)
	}
	sortHops(s.Hops)

	// Per-domain fault-blocked time: every finished span observes its e2e
	// latency into a ("span", "e2e."+class, domain) histogram, so the sums
	// survive span-ring eviction. The sums go in one slice indexed by
	// domain number; only the topK ranked domains become entries.
	type blocked struct {
		spans, ns int64
		seen      bool
	}
	sums := make([]blocked, len(r.doms))
	for i := range r.hists.n {
		h := r.hists.at(i)
		f := r.fams[h.fam]
		if f.sub != "span" || !strings.HasPrefix(f.name, "e2e.") {
			continue
		}
		b := &sums[h.dom]
		b.spans += h.count
		b.ns += int64(h.sum)
		b.seen = true
	}
	for dom, b := range sums {
		if b.seen {
			s.TopDomains = rankDomain(s.TopDomains, topK, SummaryDomain{Domain: r.doms[dom], Spans: b.spans, BlockedNs: b.ns, ElapsedNs: s.NowNs})
		}
	}
	if topK <= 0 {
		sortDomains(s.TopDomains)
	}
	return s
}

// rankDomain adds d to top, the k highest-ranked domains so far in
// sortDomains order, and returns top. For k <= 0 it appends d unranked.
func rankDomain(top []SummaryDomain, k int, d SummaryDomain) []SummaryDomain {
	if k <= 0 {
		return append(top, d)
	}
	if len(top) == k {
		if !ranksBefore(d, top[k-1]) {
			return top
		}
		top = top[:k-1]
	}
	i := len(top)
	for i > 0 && ranksBefore(d, top[i-1]) {
		i--
	}
	return slices.Insert(top, i, d)
}

// ranksBefore is the domain ranking: fault-blocked time descending, then
// name.
func ranksBefore(a, b SummaryDomain) bool {
	if a.BlockedNs != b.BlockedNs {
		return a.BlockedNs > b.BlockedNs
	}
	return a.Domain < b.Domain
}

// Merge folds o into s. The zero Summary is an identity and slices stay
// canonically sorted, so merging a set of summaries in any order — or any
// association — produces identical results (pinned by test).
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	if o.NowNs > s.NowNs {
		s.NowNs = o.NowNs
	}
	s.Spans += o.Spans
	s.SpansEvicted += o.SpansEvicted
	s.AuditEvents += o.AuditEvents
	s.AuditEvicted += o.AuditEvicted
	s.Flags += o.Flags
	if o.TopK > s.TopK {
		s.TopK = o.TopK
	}

	cidx := map[[2]string]int{}
	for i, c := range s.Counters {
		cidx[[2]string{c.Subsystem, c.Name}] = i
	}
	for _, c := range o.Counters {
		key := [2]string{c.Subsystem, c.Name}
		if i, ok := cidx[key]; ok {
			s.Counters[i].Value += c.Value
		} else {
			cidx[key] = len(s.Counters)
			s.Counters = append(s.Counters, c)
		}
	}
	sortCounters(s.Counters)

	hidx := map[string]int{}
	for i, h := range s.Hops {
		hidx[h.Hop] = i
	}
	for _, h := range o.Hops {
		if i, ok := hidx[h.Hop]; ok {
			s.Hops[i].Hist.Merge(h.Hist)
		} else {
			hidx[h.Hop] = len(s.Hops)
			nh := SummaryHop{Hop: h.Hop}
			nh.Hist.Merge(h.Hist)
			s.Hops = append(s.Hops, nh)
		}
	}
	sortHops(s.Hops)

	didx := map[string]int{}
	for i, d := range s.TopDomains {
		didx[d.Domain] = i
	}
	for _, d := range o.TopDomains {
		if i, ok := didx[d.Domain]; ok {
			s.TopDomains[i].Spans += d.Spans
			s.TopDomains[i].BlockedNs += d.BlockedNs
			if d.ElapsedNs > s.TopDomains[i].ElapsedNs {
				s.TopDomains[i].ElapsedNs = d.ElapsedNs
			}
		} else {
			didx[d.Domain] = len(s.TopDomains)
			s.TopDomains = append(s.TopDomains, d)
		}
	}
	sortDomains(s.TopDomains)
}

// Prefix qualifies every domain entry with p (e.g. "m3/"), so per-machine
// summaries stay distinguishable after a cluster merge.
func (s *Summary) Prefix(p string) {
	for i := range s.TopDomains {
		s.TopDomains[i].Domain = p + s.TopDomains[i].Domain
	}
}

// Truncate cuts the domain ranking to the top k entries (no-op for k <= 0).
// Callers truncate once, after the last Merge.
func (s *Summary) Truncate(k int) {
	if k > 0 && len(s.TopDomains) > k {
		s.TopDomains = s.TopDomains[:k]
	}
}

func sortCounters(cs []SummaryCounter) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Subsystem != cs[j].Subsystem {
			return cs[i].Subsystem < cs[j].Subsystem
		}
		return cs[i].Name < cs[j].Name
	})
}

func sortHops(hs []SummaryHop) {
	sort.Slice(hs, func(i, j int) bool { return hs[i].Hop < hs[j].Hop })
}

func sortDomains(ds []SummaryDomain) {
	sort.Slice(ds, func(i, j int) bool { return ranksBefore(ds[i], ds[j]) })
}

// WriteText renders the rollup as the aligned report WriteTopTable and the
// cluster summary embed: hop latency distributions, then the top domains by
// fault-blocked share.
func (s *Summary) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "rollup: %d spans", s.Spans); err != nil {
		return err
	}
	if s.SpansEvicted > 0 {
		if _, err := fmt.Fprintf(w, " (%d evicted)", s.SpansEvicted); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "   %d audit events", s.AuditEvents); err != nil {
		return err
	}
	if s.AuditEvicted > 0 {
		if _, err := fmt.Fprintf(w, " (%d evicted)", s.AuditEvicted); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "   %d crosstalk flags\n", s.Flags); err != nil {
		return err
	}
	if len(s.Hops) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "HOP\tCOUNT\tP50us\tP95us\tP99us\tMAXus")
		for _, h := range s.Hops {
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
				h.Hop, h.Hist.Count,
				float64(h.Hist.Quantile(0.50))/1e3,
				float64(h.Hist.Quantile(0.95))/1e3,
				float64(h.Hist.Quantile(0.99))/1e3,
				float64(h.Hist.MaxNs)/1e3)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(s.TopDomains) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "TOP-DOMAIN\tSPANS\tBLOCKEDms\tSHARE%")
		for _, d := range s.TopDomains {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.2f\n",
				d.Domain, d.Spans, float64(d.BlockedNs)/1e6, 100*d.Share())
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
