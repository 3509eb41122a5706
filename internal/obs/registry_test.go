package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// exports renders everything the registry writes about its metrics.
func exports(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteMetricsTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSpansTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSlabHandlesStayValid registers enough metrics of each kind to fill
// more than three slab chunks, then checks every cached handle is still the
// one the registry returns, that no two share storage, and that each holds
// the value written through it.
func TestSlabHandlesStayValid(t *testing.T) {
	r, _ := newTestRegistry()
	n := 3*slabChunk + 7
	cs := make([]*Counter, n)
	gs := make([]*Gauge, n)
	hs := make([]*Histogram, n)
	for i := 0; i < n; i++ {
		dom := fmt.Sprintf("d%d", i)
		cs[i] = r.Counter("domain", "faults", dom)
		gs[i] = r.Gauge("frames", "held", dom)
		hs[i] = r.Histogram("usd", "service", dom)
		cs[i].Add(int64(i))
		gs[i].Set(int64(-i))
		hs[i].Observe(time.Duration(i) * time.Microsecond)
	}
	if len(r.counters.chunks) < 4 || len(r.gauges.chunks) < 4 || len(r.hists.chunks) < 4 {
		t.Fatalf("chunks: %d counters, %d gauges, %d histograms; want at least 4 each",
			len(r.counters.chunks), len(r.gauges.chunks), len(r.hists.chunks))
	}
	seenC := map[*Counter]bool{}
	seenG := map[*Gauge]bool{}
	seenH := map[*Histogram]bool{}
	for i := 0; i < n; i++ {
		dom := fmt.Sprintf("d%d", i)
		if r.Counter("domain", "faults", dom) != cs[i] || r.LookupCounter("domain", "faults", dom) != cs[i] {
			t.Fatalf("counter %s moved", dom)
		}
		if r.Gauge("frames", "held", dom) != gs[i] || r.LookupGauge("frames", "held", dom) != gs[i] {
			t.Fatalf("gauge %s moved", dom)
		}
		if r.Histogram("usd", "service", dom) != hs[i] || r.LookupHistogram("usd", "service", dom) != hs[i] {
			t.Fatalf("histogram %s moved", dom)
		}
		if seenC[cs[i]] || seenG[gs[i]] || seenH[hs[i]] {
			t.Fatalf("%s shares a handle with an earlier domain", dom)
		}
		seenC[cs[i]], seenG[gs[i]], seenH[hs[i]] = true, true, true
		if cs[i].Value() != int64(i) || gs[i].Value() != int64(-i) ||
			hs[i].Count() != 1 || hs[i].Max() != time.Duration(i)*time.Microsecond {
			t.Fatalf("%s: counter %d, gauge %d, histogram count %d max %v",
				dom, cs[i].Value(), gs[i].Value(), hs[i].Count(), hs[i].Max())
		}
	}
}

// TestKindsAreSeparateMetrics registers one (subsystem, name, domain) as a
// counter, a gauge and a histogram: three metrics, three export rows.
func TestKindsAreSeparateMetrics(t *testing.T) {
	r, _ := newTestRegistry()
	c := r.Counter("x", "y", "d1")
	g := r.Gauge("x", "y", "d1")
	h := r.Histogram("x", "y", "d1")
	c.Add(5)
	g.Set(9)
	h.Observe(time.Millisecond)
	if c.Value() != 5 || g.Value() != 9 || h.Count() != 1 {
		t.Fatalf("counter %d, gauge %d, histogram count %d", c.Value(), g.Value(), h.Count())
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsTSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	want := []string{"counter\tx\ty\td1\t5\t", "gauge\tx\ty\td1\t9\t", "histogram\tx\ty\td1\t\t1\t"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), len(want), buf.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(rows[i], w) {
			t.Errorf("row %d = %q, want prefix %q", i, rows[i], w)
		}
	}
}

// TestLookupsAddNothing asks for unknown families, unknown domains, a
// domain past the end of its family's index row and known keys under
// another kind: every lookup returns nil, and neither the exports, the
// interned tables nor the index change.
func TestLookupsAddNothing(t *testing.T) {
	r, fc := newTestRegistry()
	r.Counter("domain", "faults", "d1").Inc()
	r.Gauge("frames", "held", "d2").Set(3)
	sp := r.StartSpan("d1", "page")
	sp.BeginHop("dispatch")
	fc.advance(time.Millisecond)
	sp.Finish("fast")
	r.Counter("domain", "faults", "d3") // interned after the gauge's row was sized
	before := exports(t, r)
	fams, doms, index := len(r.fams), len(r.doms), fmt.Sprint(r.index)

	if r.LookupCounter("domain", "nope", "d1") != nil || r.LookupCounter("domain", "faults", "d9") != nil ||
		r.LookupCounter("frames", "held", "d2") != nil {
		t.Error("LookupCounter found a counter that was never created")
	}
	if r.LookupGauge("nope", "held", "d2") != nil || r.LookupGauge("frames", "held", "d9") != nil ||
		r.LookupGauge("domain", "faults", "d1") != nil || r.LookupGauge("frames", "held", "d3") != nil {
		t.Error("LookupGauge found a gauge that was never created")
	}
	if r.LookupHistogram("span", "e2e.nope", "d1") != nil || r.LookupHistogram("span", "e2e.page", "d9") != nil ||
		r.LookupHistogram("domain", "faults", "d1") != nil {
		t.Error("LookupHistogram found a histogram that was never created")
	}
	if r.HopHistogram("d1", "page", "nope") != nil || r.HopHistogram("d9", "page", "dispatch") != nil ||
		r.HopHistogram("d1", "protection", "dispatch") != nil {
		t.Error("HopHistogram found a hop that was never observed")
	}
	if r.HopHistogram("d1", "page", "dispatch").Count() != 1 {
		t.Error("HopHistogram lost the observed hop")
	}
	if after := exports(t, r); after != before {
		t.Errorf("lookups changed the exports:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if len(r.fams) != fams || len(r.doms) != doms {
		t.Errorf("lookups interned: families %d → %d, domains %d → %d", fams, len(r.fams), doms, len(r.doms))
	}
	if got := fmt.Sprint(r.index); got != index {
		t.Errorf("lookups changed the index:\nbefore %s\nafter  %s", index, got)
	}
}

// TestIndexLateDomain registers a family for thousands of domains, then
// gives a family and a domain their first metrics only after all of them:
// every handle is found again, each kind stays apart, and domains without
// a metric of the late family find nothing.
func TestIndexLateDomain(t *testing.T) {
	r, _ := newTestRegistry()
	const n = 3000
	early := make([]*Counter, n)
	for i := range early {
		early[i] = r.Counter("domain", "faults", fmt.Sprintf("d%d", i))
		early[i].Add(int64(i))
	}
	h := r.Histogram("frames", "alloc_wait", "d2999")
	h.Observe(time.Millisecond)
	late := r.Counter("domain", "faults", "late")
	late.Add(-1)
	lateG := r.Gauge("domain", "faults", "late")
	lateG.Set(7)
	lateH := r.Histogram("domain", "faults", "late")
	if late == early[n-1] || r.Counter("domain", "faults", "late") != late ||
		r.LookupCounter("domain", "faults", "late") != late || late.Value() != -1 {
		t.Fatal("late domain's counter not found again")
	}
	if r.LookupGauge("domain", "faults", "late") != lateG || r.LookupHistogram("domain", "faults", "late") != lateH ||
		lateG.Value() != 7 || lateH.Count() != 0 {
		t.Fatal("late domain's gauge or histogram not found again")
	}
	if r.LookupHistogram("frames", "alloc_wait", "d2999") != h || h.Count() != 1 {
		t.Fatal("late family's histogram not found again")
	}
	for i, c := range early {
		dom := fmt.Sprintf("d%d", i)
		if r.LookupCounter("domain", "faults", dom) != c || c.Value() != int64(i) {
			t.Fatalf("%s: counter moved or changed", dom)
		}
		if i < n-1 && r.LookupHistogram("frames", "alloc_wait", dom) != nil {
			t.Fatalf("%s: found a histogram never created", dom)
		}
		if r.LookupGauge("domain", "faults", dom) != nil {
			t.Fatalf("%s: found a gauge never created", dom)
		}
	}
	if r.LookupHistogram("frames", "alloc_wait", "late") != nil {
		t.Fatal("late domain found a histogram never created")
	}
}

// TestExportOrderIsCreationOrder interleaves kinds and domains and checks
// each kind exports in its own creation order, and hop summaries in
// first-seen order.
func TestExportOrderIsCreationOrder(t *testing.T) {
	r, fc := newTestRegistry()
	r.Counter("b", "x", "d2")
	r.Histogram("a", "h", "d1")
	r.Gauge("c", "g", "")
	r.Counter("a", "x", "d1")
	r.Gauge("a", "g", "d2")
	r.Histogram("b", "h", "d2")
	r.Counter("b", "x", "d1")
	r.Gauge("c", "g", "d1")
	r.Counter("b", "x", "d2") // already exists: no new row
	r.Counter("a", "y", "")

	spans := []struct{ dom, class string }{{"d2", "page"}, {"d1", "page"}, {"d2", "protection"}, {"d2", "page"}}
	for _, s := range spans {
		sp := r.StartSpan(s.dom, s.class)
		sp.BeginHop("dispatch")
		fc.advance(time.Microsecond)
		if s.class == "page" {
			sp.BeginHop("usd.read")
			fc.advance(time.Microsecond)
		}
		sp.Finish("worker")
	}

	var buf bytes.Buffer
	if err := r.WriteMetricsTSV(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		f := strings.Split(row, "\t")
		got = append(got, f[0]+" "+f[1]+"."+f[2]+"["+f[3]+"]")
	}
	want := []string{
		"counter b.x[d2]", "counter a.x[d1]", "counter b.x[d1]", "counter a.y[]",
		"gauge c.g[]", "gauge a.g[d2]", "gauge c.g[d1]",
		"histogram a.h[d1]", "histogram b.h[d2]",
		"histogram span.e2e.page[d2]", "histogram span.e2e.page[d1]", "histogram span.e2e.protection[d2]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	var hops []string
	for _, h := range r.HopSummaries() {
		hops = append(hops, fmt.Sprintf("%s/%s/%s=%d", h.Domain, h.Class, h.Hop, h.Count))
	}
	wantHops := []string{
		"d2/page/dispatch=2", "d2/page/usd.read=2", "d1/page/dispatch=1", "d1/page/usd.read=1",
		"d2/protection/dispatch=1",
	}
	if strings.Join(hops, " ") != strings.Join(wantHops, " ") {
		t.Errorf("hop order: %v, want %v", hops, wantHops)
	}
}
