package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nemesis/internal/sim"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ t sim.Time }

func (f *fakeClock) now() sim.Time           { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestRegistry() (*Registry, *fakeClock) {
	fc := &fakeClock{}
	return NewRegistry(fc.now), fc
}

func TestCounterGaugeBasics(t *testing.T) {
	r, fc := newTestRegistry()
	c := r.Counter("domain", "faults", "d1")
	c.Inc()
	fc.advance(time.Millisecond)
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	if c.Updated() != sim.Time(time.Millisecond) {
		t.Fatalf("updated = %v", c.Updated())
	}
	// Same key returns the same counter.
	if r.Counter("domain", "faults", "d1") != c {
		t.Fatal("counter not cached")
	}

	g := r.Gauge("mem", "free", "")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramStatsAndQuantiles(t *testing.T) {
	r, _ := newTestRegistry()
	h := r.Histogram("usd", "service", "d1")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	p50 := h.Quantile(0.50)
	if p50 < 30*time.Millisecond || p50 > 70*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 64*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile extremes not clamped to min/max")
	}
	// Negative samples are clamped to zero, not dropped.
	h.Observe(-time.Second)
	if h.Count() != 101 || h.Min() != 0 {
		t.Fatalf("negative sample: count=%d min=%v", h.Count(), h.Min())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r, _ := newTestRegistry()
	h := r.Histogram("x", "y", "")
	huge := 500 * time.Second // beyond the last bucket bound
	h.Observe(huge)
	if h.Max() != huge || h.Quantile(0.5) != huge {
		t.Fatalf("overflow: max=%v p50=%v", h.Max(), h.Quantile(0.5))
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a", "b", "c").Inc()
	r.Gauge("a", "b", "c").Set(1)
	r.Histogram("a", "b", "c").Observe(time.Second)
	sp := r.StartSpan("d", "page")
	sp.BeginHop("dispatch")
	sp.SplitHop(0, "x")
	sp.SetThread("t")
	sp.EndHop()
	sp.Finish("fast")
	if sp != nil {
		t.Fatal("nil registry produced a span")
	}
	if r.Spans() != nil || r.HopSummaries() != nil || r.Flags() != nil {
		t.Fatal("nil registry returned data")
	}
	if err := r.WriteMetricsTSV(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSpansTSV(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
	var m *CrosstalkMonitor
	m.Start()
	m.Stop()
	if m.Flags() != nil || m.Ticks() != 0 {
		t.Fatal("nil monitor returned data")
	}
}

func TestSpanHopsAreContiguous(t *testing.T) {
	r, fc := newTestRegistry()
	sp := r.StartSpan("d1", "page")
	sp.SetThread("t0")
	sp.BeginHop("dispatch")
	fc.advance(2 * time.Microsecond)
	sp.BeginHop("mmentry")
	fc.advance(10 * time.Microsecond)
	sp.BeginHop("driver")
	fc.advance(time.Millisecond)
	// Retroactive split: the I/O started 600µs ago.
	sp.SplitHop(fc.t.Add(-600*time.Microsecond), "usd.read")
	sp.BeginHop("map")
	fc.advance(5 * time.Microsecond)
	sp.Finish("worker")

	if sp.Duration() != sp.HopSum() {
		t.Fatalf("hop sum %v != duration %v", sp.HopSum(), sp.Duration())
	}
	hops := sp.Hops()
	if len(hops) != 5 {
		t.Fatalf("hops = %d", len(hops))
	}
	for i := 1; i < len(hops); i++ {
		if hops[i].Start != hops[i-1].End {
			t.Fatalf("gap between hop %d and %d: %v != %v", i-1, i, hops[i-1].End, hops[i].Start)
		}
	}
	if hops[0].Start != sp.Start || hops[len(hops)-1].End != sp.End {
		t.Fatal("hop chain does not cover the span")
	}
	if hops[3].Name != "usd.read" || hops[3].Duration() != 600*time.Microsecond {
		t.Fatalf("split hop = %+v", hops[3])
	}
	// Double finish is ignored.
	end := sp.End
	fc.advance(time.Second)
	sp.Finish("again")
	if sp.End != end || sp.Outcome != "worker" {
		t.Fatal("double Finish mutated span")
	}
}

func TestSpanRecordingAndRing(t *testing.T) {
	r, fc := newTestRegistry()
	r.SetSpanCap(3)
	for i := 0; i < 5; i++ {
		sp := r.StartSpan("d1", "page")
		sp.BeginHop("dispatch")
		fc.advance(time.Duration(i+1) * time.Millisecond)
		sp.Finish("fast")
	}
	if r.SpanTotal() != 5 {
		t.Fatalf("total = %d", r.SpanTotal())
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained = %d", len(spans))
	}
	// Oldest-first: durations 3,4,5 ms.
	for i, want := range []time.Duration{3, 4, 5} {
		if spans[i].Duration() != want*time.Millisecond {
			t.Fatalf("span %d duration = %v", i, spans[i].Duration())
		}
	}
	// Aggregates: e2e histogram and hop histogram.
	if h := r.Histogram("span", "e2e.page", "d1"); h.Count() != 5 {
		t.Fatalf("e2e count = %d", h.Count())
	}
	sums := r.HopSummaries()
	if len(sums) != 1 || sums[0].Hop != "dispatch" || sums[0].Count != 5 {
		t.Fatalf("hop summaries = %+v", sums)
	}
}

func TestExports(t *testing.T) {
	r, fc := newTestRegistry()
	r.Counter("domain", "faults", "d1").Add(7)
	r.Gauge("mem", "free", "").Set(42)
	r.Histogram("usd", "service", "d1").Observe(3 * time.Millisecond)
	sp := r.StartSpan("d1", "page")
	sp.BeginHop("dispatch")
	fc.advance(time.Millisecond)
	sp.Finish("fast")
	r.addFlag(Flag{At: fc.t, Window: time.Second, Victim: "d2", Suspect: "d1"})

	var tsv strings.Builder
	if err := r.WriteMetricsTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	out := tsv.String()
	for _, want := range []string{"counter\tdomain\tfaults\td1\t7", "gauge\tmem\tfree\t\t42", "histogram\tusd\tservice\td1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics TSV missing %q:\n%s", want, out)
		}
	}

	var stsv strings.Builder
	if err := r.WriteSpansTSV(&stsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stsv.String(), "d1\tpage\tdispatch\t1") {
		t.Fatalf("spans TSV:\n%s", stsv.String())
	}

	var ftsv strings.Builder
	if err := r.WriteFlagsTSV(&ftsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ftsv.String(), "d2\td1") {
		t.Fatalf("flags TSV:\n%s", ftsv.String())
	}

	var jbuf strings.Builder
	if err := r.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(jbuf.String()), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	for _, k := range []string{"metrics", "fault_hops", "recent_spans", "crosstalk_flags"} {
		if snap[k] == nil {
			t.Fatalf("JSON missing %q", k)
		}
	}
}

// crosstalkHarness drives a monitor from a scripted set of per-window rates.
func TestCrosstalkMonitorFlagsDegradedWindow(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s.Now)

	// Cumulative counters for two domains. d1 is steady; in the attack
	// window d2's faults surge while d1's progress collapses.
	var tick int
	var d1 DomainSample = DomainSample{Name: "d1"}
	var d2 DomainSample = DomainSample{Name: "d2", Order: 1}
	sample := func() ([]DomainSample, Pressure) {
		tick++
		switch {
		case tick <= 6: // warm-up + baseline: both steady
			d1.Progress += 1000
			d1.Faults += 10
			d2.Progress += 500
			d2.Faults += 20
		case tick == 7: // attack window
			d1.Progress += 100 // collapsed to 10% of baseline
			d1.Faults += 10
			d2.Progress += 500
			d2.Faults += 200 // 10× surge
		default: // recovery
			d1.Progress += 1000
			d1.Faults += 10
			d2.Progress += 500
			d2.Faults += 20
		}
		free := 100
		if tick == 7 {
			free = 2
		}
		return []DomainSample{d1, d2}, Pressure{FreeFrames: free}
	}

	m := NewCrosstalkMonitor(reg, s, CrosstalkConfig{Period: time.Second, Baseline: 3}, sample)
	m.Start()
	s.RunFor(10 * time.Second)
	m.Stop()

	flags := m.Flags()
	if len(flags) != 1 {
		t.Fatalf("flags = %d (%+v)", len(flags), flags)
	}
	f := flags[0]
	if f.Victim != "d1" || f.Suspect != "d2" {
		t.Fatalf("flag = %+v", f)
	}
	if f.FreeFrames != 2 {
		t.Fatalf("free frames = %d", f.FreeFrames)
	}
	if f.VictimRate >= f.VictimBaseline || f.SuspectRate <= f.SuspectBaseline {
		t.Fatalf("rates not consistent: %+v", f)
	}
	if m.Ticks() < 9 {
		t.Fatalf("ticks = %d", m.Ticks())
	}
	// Gauges were published.
	if reg.Gauge("crosstalk", "fault_rate", "d2").Value() == 0 {
		t.Fatal("fault_rate gauge never set")
	}
	// Stop really stops.
	n := m.Ticks()
	s.RunFor(5 * time.Second)
	if m.Ticks() != n {
		t.Fatal("monitor ticked after Stop")
	}
}

func TestCrosstalkSteadyStateNoFlags(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s.Now)
	d := DomainSample{Name: "only"}
	sample := func() ([]DomainSample, Pressure) {
		d.Progress += 100
		d.Faults += 5
		return []DomainSample{d}, Pressure{FreeFrames: 50}
	}
	m := NewCrosstalkMonitor(reg, s, CrosstalkConfig{Period: 500 * time.Millisecond}, sample)
	m.Start()
	s.RunFor(8 * time.Second)
	if len(m.Flags()) != 0 {
		t.Fatalf("steady state flagged: %+v", m.Flags())
	}
}

// TestPooledSpansPreserveHopsUnderChurn drives far more spans than the ring
// retains, with varying hop counts, and checks that span recycling (the
// free-list fed by ring eviction) never truncates or leaks hop breakdowns: a
// recycled span that carried five hops must not smuggle them into its next
// one-hop incarnation, and the per-hop aggregates must count every finished
// span exactly once.
func TestPooledSpansPreserveHopsUnderChurn(t *testing.T) {
	r, fc := newTestRegistry()
	hopNames := []string{"dispatch", "mmentry", "driver", "usd.read", "map"}
	const total = 3*DefaultSpanCap + 17
	wantPerHop := make(map[string]int64)
	for i := 0; i < total; i++ {
		nHops := i%len(hopNames) + 1
		sp := r.StartSpan("d1", "page")
		for h := 0; h < nHops; h++ {
			sp.BeginHop(hopNames[h])
			fc.advance(time.Microsecond)
			wantPerHop[hopNames[h]]++
		}
		sp.Finish("worker")
		if got := len(sp.Hops()); got != nHops {
			t.Fatalf("span %d finished with %d hops, want %d (recycled span leaked hops)", i, got, nHops)
		}
	}
	if r.SpanTotal() != total {
		t.Fatalf("SpanTotal = %d, want %d", r.SpanTotal(), total)
	}
	spans := r.Spans()
	if len(spans) != DefaultSpanCap {
		t.Fatalf("retained %d spans, want %d", len(spans), DefaultSpanCap)
	}
	// Oldest retained span is index total-DefaultSpanCap; its hop count and
	// names must match what it was finished with, hop chain contiguous.
	for j, sp := range spans {
		i := total - DefaultSpanCap + j
		nHops := i%len(hopNames) + 1
		hops := sp.Hops()
		if len(hops) != nHops {
			t.Fatalf("retained span %d has %d hops, want %d", i, len(hops), nHops)
		}
		for h, hop := range hops {
			if hop.Name != hopNames[h] {
				t.Fatalf("retained span %d hop %d = %q, want %q", i, h, hop.Name, hopNames[h])
			}
		}
		if sp.HopSum() != sp.Duration() {
			t.Fatalf("retained span %d: hop sum %v != duration %v", i, sp.HopSum(), sp.Duration())
		}
	}
	// Aggregates saw every span, ring eviction notwithstanding.
	sums := r.HopSummaries()
	if len(sums) != len(hopNames) {
		t.Fatalf("hop summaries = %d, want %d", len(sums), len(hopNames))
	}
	for _, hs := range sums {
		if hs.Count != wantPerHop[hs.Hop] {
			t.Fatalf("hop %q count = %d, want %d", hs.Hop, hs.Count, wantPerHop[hs.Hop])
		}
	}
	// The TSV render carries the full breakdown.
	var buf strings.Builder
	if err := r.WriteSpansTSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range hopNames {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("WriteSpansTSV missing hop %q:\n%s", name, buf.String())
		}
	}
}
