package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/obs"
	"nemesis/internal/vm"
)

// telemetrySystem is smallSystem with the observability registry on.
func telemetrySystem() *System {
	cfg := DefaultConfig()
	cfg.MemoryFrames = 64
	cfg.Telemetry = true
	return New(cfg)
}

// runPagedChurn drives a 2-frame domain across enough pages to force
// evictions, write-backs and page-ins — the full fault path.
func runPagedChurn(t *testing.T, sys *System, pages int) *domain.Domain {
	t.Helper()
	d, err := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := sys.NewPagedStretch(d, uint64(pages)*vm.PageSize, int64(4*pages)*vm.PageSize, diskShare())
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	d.Go("main", func(th *domain.Thread) {
		if err := PreallocateFrames(th, 2); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < pages; pg++ {
			buf[0] = byte(pg)
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("write page %d: %v", pg, err)
				return
			}
		}
		for pg := 0; pg < pages; pg++ {
			if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("read page %d: %v", pg, err)
				return
			}
		}
		done = true
	})
	sys.Run(60 * time.Second)
	if !done {
		t.Fatal("workload did not complete")
	}
	return d
}

// TestFaultSpanHopBreakdown is the PR's central acceptance test: a paged
// fault that goes through the worker, the USD and the disk must yield a
// span of at least 4 hops whose per-hop latencies sum to the end-to-end
// latency within 1%.
func TestFaultSpanHopBreakdown(t *testing.T) {
	sys := telemetrySystem()
	runPagedChurn(t, sys, 16)

	spans := sys.Obs.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var best *obs.Span
	for _, sp := range spans {
		if sp.Outcome == "worker" && len(sp.Hops()) >= 4 {
			best = sp
			break
		}
	}
	if best == nil {
		t.Fatalf("no worker-path span with >=4 hops among %d spans", len(spans))
	}
	hops := best.Hops()
	names := make(map[string]bool)
	var prevEnd = best.Start
	for _, h := range hops {
		names[h.Name] = true
		if h.Start != prevEnd {
			t.Fatalf("hop %q starts at %d, previous ended at %d (gap)", h.Name, h.Start, prevEnd)
		}
		prevEnd = h.End
	}
	if prevEnd != best.End {
		t.Fatalf("last hop ends at %d, span ends at %d", prevEnd, best.End)
	}
	for _, want := range []string{"dispatch", "mmentry", "driver", "map"} {
		if !names[want] {
			t.Errorf("span missing hop %q (has %v)", want, hopNames(hops))
		}
	}
	e2e := best.Duration()
	sum := best.HopSum()
	if e2e <= 0 {
		t.Fatalf("span duration %v", e2e)
	}
	diff := sum - e2e
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(e2e) {
		t.Fatalf("hop sum %v vs end-to-end %v: off by more than 1%%", sum, e2e)
	}

	// A span that actually hit the disk carries the USD hops.
	var sawUSD bool
	for _, sp := range spans {
		for _, h := range sp.Hops() {
			if h.Name == "usd.read" || h.Name == "usd.write" {
				sawUSD = true
			}
		}
	}
	if !sawUSD {
		t.Error("no span recorded USD service hops")
	}

	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

func hopNames(hops []obs.Hop) []string {
	out := make([]string, len(hops))
	for i, h := range hops {
		out[i] = h.Name
	}
	return out
}

// TestTopTable checks the per-domain snapshot table renders every domain
// with non-zero fault activity, and that exports carry the same data.
func TestTopTable(t *testing.T) {
	sys := telemetrySystem()
	d := runPagedChurn(t, sys, 8)

	var sb strings.Builder
	if err := sys.WriteTopTable(&sb); err != nil {
		t.Fatal(err)
	}
	table := sb.String()
	if !strings.Contains(table, "app") {
		t.Fatalf("table missing domain row:\n%s", table)
	}
	if st := d.Stats(); st.Faults == 0 {
		t.Fatal("workload produced no faults")
	}
	if !strings.Contains(table, "DOMAIN") || !strings.Contains(table, "free frames:") {
		t.Fatalf("table malformed:\n%s", table)
	}

	sb.Reset()
	if err := sys.Obs.WriteMetricsTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "domain\tfaults\tapp") {
		t.Fatalf("metrics TSV missing domain fault counter:\n%s", sb.String())
	}

	sb.Reset()
	if err := sys.Obs.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"subsystem"`) {
		t.Fatal("JSON export empty")
	}

	// Telemetry off: WriteTopTable must refuse rather than render nothing.
	off := smallSystem()
	if err := off.WriteTopTable(&sb); err == nil {
		t.Fatal("expected error with telemetry disabled")
	}

	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// TestCrosstalkMonitorTicksInSystem is a smoke test that the monitor wired
// through core samples real domains on the simulated clock.
func TestCrosstalkMonitorTicksInSystem(t *testing.T) {
	sys := telemetrySystem()
	cfg := obs.DefaultCrosstalkConfig()
	cfg.Period = 500 * time.Millisecond
	mon := sys.StartCrosstalkMonitor(cfg)
	if mon == nil {
		t.Fatal("monitor not started")
	}
	runPagedChurn(t, sys, 8)
	if mon.Ticks() == 0 {
		t.Fatal("monitor never ticked")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)

	// Telemetry off: monitor refuses to start.
	if smallSystem().StartCrosstalkMonitor(cfg) != nil {
		t.Fatal("monitor started without telemetry")
	}
}

// admitMany admits n domains named app0… to a telemetry system with room
// for them, one frame and a sliver of CPU each.
func admitMany(t *testing.T, n int) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Telemetry = true
	sys := New(cfg)
	for i := 0; i < n; i++ {
		if _, err := sys.NewDomain(fmt.Sprintf("app%d", i), sliverQoS, mem.Contract{Guaranteed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

var sliverQoS = atropos.QoS{P: 100 * time.Millisecond, S: 10 * time.Microsecond, X: true}

// A domain registers its telemetry once, under its name: admitting N
// domains interns N names beside the system's empty one (the next name
// gets number N+1), and the frames allocator registers no placeholder
// "dom<id>" metrics before the domain's name is known.
func TestDomainTelemetryRegisteredOnce(t *testing.T) {
	const n = 40
	sys := admitMany(t, n)
	if got := sys.Obs.DomainNum("probe"); got != obs.DomainNum(n+1) {
		t.Fatalf("admitting %d domains interned %d names, want %d", n, got, n+1)
	}
	for _, d := range sys.Domains() {
		if num := sys.Obs.DomainNum(d.Name()); num != d.TelemetryNum() {
			t.Fatalf("%s has telemetry number %d, its name %d", d.Name(), d.TelemetryNum(), num)
		}
		if sys.Obs.LookupGauge("frames", "held", d.Name()) == nil || sys.Obs.LookupHistogram("frames", "alloc_wait", d.Name()) == nil {
			t.Fatalf("%s has no frames metrics", d.Name())
		}
	}
	placeholders := map[string]bool{}
	for _, d := range sys.Domains() {
		placeholders[fmt.Sprintf("dom%d", d.ID())] = true
	}
	var b strings.Builder
	if err := sys.Obs.WriteMetricsTSV(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Split(line, "\t"); len(f) > 3 && placeholders[f[3]] {
			t.Fatalf("placeholder metric registered: %q", line)
		}
	}
}

// domainObjects is the number of heap objects admitting one more domain
// to a telemetry system allocates, amortized over a few hundred domains:
// its protection domain, CPU and memory clients, MMEntry and worker, and
// its registry entries. A change that makes idle domains cost more
// telemetry, or gives a domain a map or side object again, fails here.
const domainObjects = 23

func TestDomainAdmissionFootprint(t *testing.T) {
	const runs = 600
	sys := admitMany(t, 0)
	names := make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("app%d", i)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := sys.NewDomain(names[next], sliverQoS, mem.Contract{Guaranteed: 1}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got > domainObjects {
		t.Fatalf("admitting a domain allocated %.0f objects, want at most %d", got, domainObjects)
	}
	t.Logf("admitting a domain allocated %.0f objects", got)
}

// A domain that either admission refuses leaves nothing behind: no
// interned name, attribution account, metric, folded-stack line or
// process, and no frames reserved.
func TestRefusedDomainLeavesNothing(t *testing.T) {
	for _, c := range []struct {
		refuser string
		cpu     atropos.QoS
		ct      mem.Contract
	}{
		{"memory", sliverQoS, mem.Contract{Guaranteed: 100}},
		{"cpu", atropos.QoS{P: 100 * time.Millisecond, S: 200 * time.Millisecond}, mem.Contract{Guaranteed: 1}},
	} {
		cfg := DefaultConfig()
		cfg.MemoryFrames = 16
		cfg.Telemetry = true
		sys := New(cfg)
		if _, err := sys.NewDomain("app", sliverQoS, mem.Contract{Guaranteed: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NewDomain("ghost", c.cpu, c.ct); err == nil {
			t.Fatalf("%s: ghost admitted", c.refuser)
		}
		sys.Run(time.Second)

		var metrics, folded strings.Builder
		if err := sys.Obs.WriteMetricsTSV(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteAttributionFolded(&folded); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(metrics.String(), "\n") {
			if f := strings.Split(line, "\t"); len(f) > 3 && f[3] == "ghost" {
				t.Errorf("%s refused ghost, which left a metric: %q", c.refuser, line)
			}
		}
		for _, l := range []struct {
			what string
			left bool
		}{
			{"its interned name", sys.Obs.DomainNum("probe") != 2},
			{"an attribution account", slices.Contains(sys.Obs.Attr().Domains(), "ghost")},
			{"folded stacks", strings.Contains(folded.String(), "ghost;")},
			{"a running mm-worker", slices.Contains(sys.Sim.LiveProcNames(), "ghost/mm-worker")},
			{"guaranteed frames", sys.Frames.GuaranteedTotal() != 1},
		} {
			if l.left {
				t.Errorf("%s refused ghost, which left %s", c.refuser, l.what)
			}
		}
		sys.Shutdown()
	}
}
