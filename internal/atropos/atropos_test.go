package atropos

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nemesis/internal/sim"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
func at(n int64) sim.Time      { return sim.Time(ms(n)) }

func mustAdmit(t *testing.T, co *Core, name string, q QoS, now sim.Time) *Client {
	t.Helper()
	c, err := co.Admit(name, q, now)
	if err != nil {
		t.Fatalf("Admit(%s): %v", name, err)
	}
	return c
}

func TestAdmissionControl(t *testing.T) {
	co := NewCore(1.0)
	mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(100)}, 0)
	mustAdmit(t, co, "b", QoS{P: ms(250), S: ms(100)}, 0)
	// 0.4+0.4+0.4 > 1.0 must be rejected.
	if _, err := co.Admit("c", QoS{P: ms(250), S: ms(100)}, 0); !errors.Is(err, ErrOvercommitted) {
		t.Fatalf("err = %v, want ErrOvercommitted", err)
	}
	// Exactly filling capacity is allowed.
	mustAdmit(t, co, "d", QoS{P: ms(250), S: ms(50)}, 0)
	if got := co.Contracted(); got < 0.999 || got > 1.001 {
		t.Fatalf("Contracted = %v", got)
	}
}

func TestAdmitValidation(t *testing.T) {
	co := NewCore(1.0)
	bad := []QoS{
		{P: 0, S: ms(1)},
		{P: ms(10), S: 0},
		{P: ms(10), S: ms(20)}, // slice > period
		{P: ms(10), S: ms(5), L: -ms(1)},
	}
	for _, q := range bad {
		if _, err := co.Admit("x", q, 0); !errors.Is(err, ErrBadQoS) {
			t.Errorf("Admit(%+v) err = %v, want ErrBadQoS", q, err)
		}
	}
	mustAdmit(t, co, "a", QoS{P: ms(10), S: ms(1)}, 0)
	if _, err := co.Admit("a", QoS{P: ms(10), S: ms(1)}, 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	co := NewCore(1.0)
	mustAdmit(t, co, "a", QoS{P: ms(10), S: ms(5)}, 0)
	if err := co.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := co.Remove("a"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("second remove err = %v", err)
	}
	if co.Lookup("a") != nil {
		t.Fatal("removed client still found")
	}
}

func TestInitialAllocation(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(100)}, at(5))
	if c.State() != Runnable || c.Remain() != ms(100) {
		t.Fatalf("state=%v remain=%v", c.State(), c.Remain())
	}
	if c.Deadline() != at(255) {
		t.Fatalf("deadline = %v", c.Deadline())
	}
	if c.Allocations() != 1 {
		t.Fatalf("allocations = %d", c.Allocations())
	}
}

func TestChargeExhaustsSlice(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(25)}, 0)
	co.Charge(c, ms(10))
	if c.State() != Runnable || c.Remain() != ms(15) {
		t.Fatalf("state=%v remain=%v", c.State(), c.Remain())
	}
	co.Charge(c, ms(15))
	if c.State() != Waiting {
		t.Fatalf("state = %v, want Waiting", c.State())
	}
	if c.Charged() != ms(25) {
		t.Fatalf("Charged = %v", c.Charged())
	}
}

func TestRollOverAccounting(t *testing.T) {
	// A transaction that overruns leaves a negative balance which counts
	// against the next allocation — the paper's scheme preventing clients
	// deterministically exceeding their guarantee.
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(25)}, 0)
	co.SetReady(c, true)
	co.Charge(c, ms(24)) // 1ms left: still runnable
	if co.PickEDFReady() != c {
		t.Fatal("client with 1ms left not picked")
	}
	co.Charge(c, ms(12)) // transaction overran: remain = -11ms
	if c.State() != Waiting || c.Remain() != -ms(11) {
		t.Fatalf("state=%v remain=%v", c.State(), c.Remain())
	}
	co.Refresh(at(250))
	if c.Remain() != ms(14) { // 25 - 11
		t.Fatalf("post-refresh remain = %v, want 14ms", c.Remain())
	}
	if c.State() != Runnable {
		t.Fatalf("state = %v", c.State())
	}
}

func TestPositiveBalanceDoesNotAccumulate(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(25)}, 0)
	co.Charge(c, ms(5)) // uses only 5 of 25
	co.Refresh(at(250))
	if c.Remain() != ms(25) {
		t.Fatalf("remain = %v, want 25ms (no carry of unused time)", c.Remain())
	}
}

func TestRefreshCatchesUpMissedPeriods(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(100), S: ms(10)}, 0)
	co.Charge(c, ms(10))
	// Three periods pass unserviced; only one slice is granted.
	granted := co.Refresh(at(350))
	if len(granted) != 1 || granted[0] != c {
		t.Fatalf("granted = %v", granted)
	}
	if c.Remain() != ms(10) {
		t.Fatalf("remain = %v", c.Remain())
	}
	if c.Deadline() != at(400) {
		t.Fatalf("deadline = %v, want 400ms", c.Deadline())
	}
}

func TestRefreshSkipsFutureDeadlines(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(100), S: ms(10)}, 0)
	if got := co.Refresh(at(50)); got != nil {
		t.Fatalf("early refresh granted %v", got)
	}
	if c.Allocations() != 1 {
		t.Fatal("allocation count changed")
	}
}

func TestPickEDFOrdersByDeadline(t *testing.T) {
	co := NewCore(1.0)
	// b has the shorter period => earlier deadline => picked first.
	a := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(50)}, 0)
	b := mustAdmit(t, co, "b", QoS{P: ms(100), S: ms(10)}, 0)
	if got := co.PickEDFReady(); got != nil {
		t.Fatalf("picked %v with nobody ready", got.Name())
	}
	co.SetReady(a, true)
	co.SetReady(b, true)
	if got := co.PickEDFReady(); got != b {
		t.Fatalf("picked %v", got.Name())
	}
	// An earlier deadline with no work queued is passed over.
	co.SetReady(b, false)
	if got := co.PickEDFReady(); got != a {
		t.Fatalf("picked %v with b not ready", got.Name())
	}
	co.SetReady(b, true)
	co.Charge(b, ms(10)) // b exhausted
	if got := co.PickEDFReady(); got != a {
		t.Fatalf("picked %v after b exhausted", got.Name())
	}
	co.Charge(a, ms(50))
	if got := co.PickEDFReady(); got != nil {
		t.Fatalf("picked %v with all exhausted", got.Name())
	}
}

func TestPickEDFTieBreaksByAdmissionOrder(t *testing.T) {
	co := NewCore(1.0)
	a := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(25)}, 0)
	b := mustAdmit(t, co, "b", QoS{P: ms(250), S: ms(25)}, 0)
	// b becomes ready first, so its entry is pushed first; admission order
	// still decides the tie.
	co.SetReady(b, true)
	co.SetReady(a, true)
	if got := co.PickEDFReady(); got != a {
		t.Fatalf("tie broke to %v", got.Name())
	}
}

func TestLaxityCharging(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(100), L: ms(10)}, 0)
	co.ChargeLax(c, ms(6))
	if c.State() != Runnable || c.LaxBudget() != ms(4) {
		t.Fatalf("state=%v budget=%v", c.State(), c.LaxBudget())
	}
	// Work arriving resets the continuous span.
	co.NoteWork(c)
	if c.LaxBudget() != ms(10) {
		t.Fatalf("budget after work = %v", c.LaxBudget())
	}
	// Real work charging also resets the span.
	co.ChargeLax(c, ms(7))
	co.Charge(c, ms(2))
	if c.LaxBudget() != ms(10) {
		t.Fatalf("budget after charge = %v", c.LaxBudget())
	}
	if c.LaxCharged() != ms(13) {
		t.Fatalf("LaxCharged = %v", c.LaxCharged())
	}
}

func TestLaxityExhaustionIdles(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(100), L: ms(10)}, 0)
	co.ChargeLax(c, ms(10))
	if c.State() != Idle {
		t.Fatalf("state = %v, want Idle", c.State())
	}
	if c.LaxBudget() != 0 {
		t.Fatalf("budget = %v", c.LaxBudget())
	}
	// Idle clients are not picked, even with work queued.
	co.SetReady(c, true)
	if co.PickEDFReady() != nil {
		t.Fatal("idle client picked")
	}
	// Next allocation revives it.
	co.Refresh(at(250))
	if c.State() != Runnable || c.LaxBudget() != ms(10) {
		t.Fatalf("state=%v budget=%v after refresh", c.State(), c.LaxBudget())
	}
}

func TestLaxExhaustsSliceGoesWaiting(t *testing.T) {
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(5), L: ms(10)}, 0)
	co.ChargeLax(c, ms(5))
	if c.State() != Waiting {
		t.Fatalf("state = %v, want Waiting (slice gone)", c.State())
	}
}

func TestZeroLaxityIdlesImmediately(t *testing.T) {
	// With l=0 a workless client idles at once — the short-block problem
	// the paper describes for early USD versions.
	co := NewCore(1.0)
	c := mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(100), L: 0}, 0)
	co.ChargeLax(c, 0)
	if c.State() != Idle {
		t.Fatalf("state = %v, want Idle", c.State())
	}
}

func TestPickSlackRoundRobin(t *testing.T) {
	co := NewCore(1.0)
	a := mustAdmit(t, co, "a", QoS{P: ms(100), S: ms(10), X: true}, 0)
	b := mustAdmit(t, co, "b", QoS{P: ms(100), S: ms(10), X: false}, 0)
	c := mustAdmit(t, co, "c", QoS{P: ms(100), S: ms(10), X: true}, 0)
	for _, cl := range []*Client{a, b, c} {
		co.SetReady(cl, true)
	}
	// Slack ignores the remaining allocation: an exhausted client gets it.
	co.Charge(c, ms(10))
	if got := co.PickSlackReady(); got != a {
		t.Fatalf("first slack pick = %v", got.Name())
	}
	if got := co.PickSlackReady(); got != c {
		t.Fatalf("second slack pick = %v", got.Name())
	}
	if got := co.PickSlackReady(); got != a {
		t.Fatalf("third slack pick = %v", got.Name())
	}
	co.SetReady(a, false)
	co.SetReady(c, false)
	if got := co.PickSlackReady(); got != nil {
		t.Fatalf("slack picked %v with no x=true client ready", got.Name())
	}
}

func TestNextBoundary(t *testing.T) {
	co := NewCore(1.0)
	if _, ok := co.NextBoundary(); ok {
		t.Fatal("boundary with no clients")
	}
	mustAdmit(t, co, "a", QoS{P: ms(250), S: ms(10)}, 0)
	mustAdmit(t, co, "b", QoS{P: ms(100), S: ms(10)}, 0)
	b, ok := co.NextBoundary()
	if !ok || b != at(100) {
		t.Fatalf("boundary = %v, %v", b, ok)
	}
}

func TestStateString(t *testing.T) {
	if Runnable.String() != "runnable" || Waiting.String() != "waiting" || Idle.String() != "idle" {
		t.Fatal("state strings")
	}
	if State(9).String() != "state(9)" {
		t.Fatal("unknown state string")
	}
}

// Property: over any sequence of charge/refresh operations, total charged
// time within any window of k periods never exceeds (k+1) slices plus one
// roll-over transaction — i.e. the guarantee cannot be deterministically
// exceeded. We verify the weaker invariant actually used by the paper:
// after every refresh, remain <= S.
func TestRemainNeverExceedsSliceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		co := NewCore(1.0)
		c, err := co.Admit("a", QoS{P: ms(250), S: ms(100), L: ms(10)}, 0)
		if err != nil {
			return false
		}
		now := sim.Time(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				co.Charge(c, time.Duration(op)*time.Millisecond)
			case 1:
				co.ChargeLax(c, time.Duration(op%16)*time.Millisecond)
			case 2:
				now = now.Add(ms(250))
				co.Refresh(now)
			case 3:
				co.NoteWork(c)
			}
			if c.Remain() > ms(100) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sum of admitted shares never exceeds capacity no matter the
// order of admissions and removals.
func TestAdmissionInvariantProperty(t *testing.T) {
	f := func(shares []uint8) bool {
		co := NewCore(1.0)
		i := 0
		for _, sh := range shares {
			s := time.Duration(sh%100+1) * time.Millisecond
			_, err := co.Admit(string(rune('a'+i%26))+string(rune('0'+i/26%10)), QoS{P: ms(100), S: s}, 0)
			if err == nil {
				i++
			}
			if co.Contracted() > 1.0+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyHeapsStayBounded drives a core the way its drivers do — Refresh,
// SetReady, PickEDFReady and PickSlackReady — with 1,000 clients over 200
// periods, each client drawn for a readiness flip about once a step. Every
// Refresh pushes a ready-heap entry per ready runnable client and every
// flip to ready pushes one more, while a pick pops only the stale entries
// above the earliest live one, so a period leaves a few stale entries per
// client behind the live ones; without compaction the ready heap would
// pass its bound within a period. The release calendar is held to the same
// bound, counted in the clients filed across its entries.
func TestLazyHeapsStayBounded(t *testing.T) {
	const clients, periods, steps = 1000, 200, 10
	co := NewCore(1.0)
	q := QoS{P: ms(100), S: ms(100) / clients, X: true}
	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = mustAdmit(t, co, fmt.Sprintf("c%d", i), q, 0)
	}
	rng := rand.New(rand.NewSource(1))
	bound := 2*clients + heapSlack
	for step := 1; step <= periods*steps; step++ {
		co.Refresh(sim.Time(ms(100) / steps * time.Duration(step)))
		for k := 0; k < clients; k++ {
			co.SetReady(cs[rng.Intn(clients)], rng.Intn(2) == 0)
		}
		co.PickEDFReady()
		co.PickSlackReady()
		filed := 0
		for _, e := range co.cal.heap {
			filed += len(e.clients)
		}
		if len(co.readyq) > bound || filed > bound {
			t.Fatalf("step %d: readyq %d entries, calendar %d filed in %d entries, bound %d",
				step, len(co.readyq), filed, len(co.cal.heap), bound)
		}
	}
}
