package obs

import (
	"strings"
	"testing"
	"time"
)

// driveFault walks one span through dispatch→mmentry→driver→usd.queue and
// finishes it, advancing the clock per hop.
func driveFault(r *Registry, fc *fakeClock, domain string, hop time.Duration) {
	sp := r.StartSpan(domain, "page")
	sp.BeginHop("dispatch")
	fc.advance(hop)
	sp.BeginHop("mmentry")
	fc.advance(hop)
	sp.BeginHop("driver")
	fc.advance(hop)
	sp.BeginHop("usd.queue")
	fc.advance(hop)
	sp.Finish("worker")
}

func TestAttributionExactFaultBreakdown(t *testing.T) {
	r, fc := newTestRegistry()
	a := r.EnableAttribution()
	d := a.Track("d1")

	// 2 ms idle, then a fault with 1 ms per hop, then 3 ms idle.
	fc.advance(2 * time.Millisecond)
	driveFault(r, fc, "d1", time.Millisecond)
	fc.advance(3 * time.Millisecond)

	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	p, ok := a.Profile("d1")
	if !ok {
		t.Fatal("d1 not tracked")
	}
	if p.Elapsed() != 9*time.Millisecond {
		t.Fatalf("elapsed = %v", p.Elapsed())
	}
	want := map[string]time.Duration{
		"idle":                    5 * time.Millisecond,
		"blocked-fault;dispatch":  time.Millisecond,
		"blocked-fault;mmentry":   time.Millisecond,
		"blocked-fault;driver":    time.Millisecond,
		"blocked-fault;usd.queue": time.Millisecond,
	}
	got := map[string]time.Duration{}
	for _, acc := range p.Accounts {
		k := acc.State.String()
		if acc.Hop != "" {
			k += ";" + acc.Hop
		}
		got[k] += acc.Total
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("account %q = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
	if d.StateTotal(AttrFault) != 4*time.Millisecond {
		t.Fatalf("fault total = %v", d.StateTotal(AttrFault))
	}
}

func TestAttributionCPUStates(t *testing.T) {
	r, fc := newTestRegistry()
	a := r.EnableAttribution()
	d := a.Track("d1")

	// Wait 2 ms for the CPU, run 5 ms, then idle 1 ms.
	d.CPUWait()
	fc.advance(2 * time.Millisecond)
	d.CPURun()
	fc.advance(5 * time.Millisecond)
	d.CPUYield()
	fc.advance(time.Millisecond)

	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := d.StateTotal(AttrRunnable); got != 2*time.Millisecond {
		t.Fatalf("runnable = %v", got)
	}
	if got := d.StateTotal(AttrRunning); got != 5*time.Millisecond {
		t.Fatalf("running = %v", got)
	}
	if got := d.StateTotal(AttrIdle); got != time.Millisecond {
		t.Fatalf("idle = %v", got)
	}
}

func TestAttributionFaultDominatesCPU(t *testing.T) {
	// While a fault span is open, CPU consumed servicing it (the MMEntry
	// worker computing on the domain's contract) stays attributed to the
	// fault hop — the paper's "pay with your own resources" story.
	r, fc := newTestRegistry()
	a := r.EnableAttribution()
	d := a.Track("d1")

	sp := r.StartSpan("d1", "page")
	sp.BeginHop("mmentry")
	d.CPUWait()
	fc.advance(time.Millisecond)
	d.CPURun()
	fc.advance(time.Millisecond)
	d.CPUYield()
	sp.Finish("worker")
	fc.advance(time.Millisecond)

	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := d.StateTotal(AttrFault); got != 2*time.Millisecond {
		t.Fatalf("fault = %v (want the CPU time inside the span)", got)
	}
	if got := d.StateTotal(AttrRunning); got != 0 {
		t.Fatalf("running = %v, want 0", got)
	}
}

func TestAttributionRetroactiveSplitHop(t *testing.T) {
	// The USD records service start/completion retroactively via SplitHop;
	// the attribution must split the blocked time at those past instants.
	r, fc := newTestRegistry()
	a := r.EnableAttribution()

	sp := r.StartSpan("d1", "page")
	sp.BeginHop("usd.queue")
	start := r.Now().Add(2 * time.Millisecond)
	fc.advance(6 * time.Millisecond)
	sp.SplitHop(start, "usd.read")
	sp.SplitHop(start.Add(3*time.Millisecond), "usd.complete")
	fc.advance(time.Millisecond)
	sp.Finish("worker")

	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	p, _ := a.Profile("d1")
	want := map[string]time.Duration{
		"usd.queue":    2 * time.Millisecond,
		"usd.read":     3 * time.Millisecond,
		"usd.complete": 2 * time.Millisecond,
	}
	for _, acc := range p.Accounts {
		if acc.State != AttrFault {
			continue
		}
		if w, ok := want[acc.Hop]; ok && acc.Total != w {
			t.Fatalf("hop %q = %v, want %v", acc.Hop, acc.Total, w)
		}
	}
}

func TestAttributionKilledDomainConserves(t *testing.T) {
	r, fc := newTestRegistry()
	a := r.EnableAttribution()
	d := a.Track("victim")

	// A fault is in flight and a thread is waiting when the kill lands.
	sp := r.StartSpan("victim", "page")
	sp.BeginHop("driver")
	d.CPUWait()
	fc.advance(2 * time.Millisecond)
	a.DomainKilled("victim")
	// The span never finishes and the waiter never reports back.
	fc.advance(3 * time.Millisecond)

	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := d.StateTotal(AttrFault); got != 2*time.Millisecond {
		t.Fatalf("fault = %v", got)
	}
	if got := d.StateTotal(AttrIdle); got != 3*time.Millisecond {
		t.Fatalf("post-kill idle = %v", got)
	}
	// Later events on the corpse are ignored.
	d.CPUWait()
	fc.advance(time.Millisecond)
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestAttributionFoldedOutput(t *testing.T) {
	r, fc := newTestRegistry()
	a := r.EnableAttribution()
	a.Track("d1")

	fc.advance(time.Millisecond)
	driveFault(r, fc, "d1", 500*time.Microsecond)

	var b1, b2 strings.Builder
	if err := a.WriteFolded(&b1); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFolded(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("folded output not stable across calls")
	}
	want := "d1;idle 1000\nd1;blocked-fault;dispatch 500\nd1;blocked-fault;mmentry 500\nd1;blocked-fault;driver 500\nd1;blocked-fault;usd.queue 500\n"
	if b1.String() != want {
		t.Fatalf("folded:\n%s\nwant:\n%s", b1.String(), want)
	}
}

func TestAttributionNilSafe(t *testing.T) {
	var a *Attribution
	var d *DomainAttr
	a.Track("x")
	a.DomainKilled("x")
	d.CPUWait()
	d.CPURun()
	d.CPUYield()
	if a.Profiles() != nil || a.Domains() != nil {
		t.Fatal("nil attribution should report nothing")
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFolded(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if d.StateTotal(AttrRunning) != 0 || d.Name() != "" {
		t.Fatal("nil domain attr should be zero")
	}
	// A registry without EnableAttribution records spans without feeding
	// any attribution.
	r, _ := newTestRegistry()
	sp := r.StartSpan("d1", "page")
	sp.BeginHop("dispatch")
	sp.Finish("fast")
	if r.Attr() != nil {
		t.Fatal("attribution should be off by default")
	}
}

// Track and statsFor size a domain's accounts and its span population's hop
// slots once, for the longest path a cluster run records: a worker fault
// that evicts a page to a remote store, with the hops and zero-time hops of
// a remote pager in a 1×5000×6 run, between a wait for the CPU and a
// quantum on it. The first cycle fills all attrAccountCap accounts and
// popHopCap hop slots without regrowing either, and once it has created the
// span and its histograms a further cycle allocates nothing.
func TestAttributionAccountsSizedOnce(t *testing.T) {
	r, fc := newTestRegistry()
	r.SetSpanCap(1) // evicted spans are recycled, so a cycle reuses one
	a := r.EnableAttribution()
	d := a.Track("d1")
	accounts := cap(d.accounts)
	cycle := func() {
		d.CPUWait()
		fc.advance(time.Millisecond)
		d.CPURun()
		fc.advance(time.Millisecond)
		sp := r.StartSpan("d1", "page")
		sp.BeginHop("dispatch")
		fc.advance(time.Millisecond)
		sp.BeginHop("mmentry")
		fc.advance(time.Millisecond)
		sp.BeginHop("driver") // the fast path retries at once
		sp.BeginHop("queue")
		fc.advance(time.Millisecond)
		sp.BeginHop("driver")
		sp.BeginHop("evict")
		sp.BeginHop("net.out") // the write RPC, split when it is acknowledged
		fc.advance(3 * time.Millisecond)
		sp.SplitHop(fc.t.Add(-2*time.Millisecond), "remote.store")
		sp.SplitHop(fc.t.Add(-time.Millisecond), "net.back")
		sp.BeginHop("map")
		sp.Finish("worker")
		d.CPUYield()
	}
	cycle()
	if len(d.accounts) != attrAccountCap || cap(d.accounts) != accounts {
		t.Fatalf("first cycle: %d accounts, capacity %d → %d", len(d.accounts), accounts, cap(d.accounts))
	}
	if ss := r.spanStats[spanKey{"d1", "page"}]; len(ss.hops) != popHopCap || cap(ss.hops) != popHopCap {
		t.Fatalf("first cycle: %d hop slots, capacity %d", len(ss.hops), cap(ss.hops))
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a repeated fault cycle allocated %.1f times", n)
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
