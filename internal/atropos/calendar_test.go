package atropos

import (
	"strconv"
	"testing"

	"nemesis/internal/sim"
)

// TestBoundaryAllocatesNothing grants a whole 5,000-client population, the
// cluster's, at each of a run of period boundaries. The calendar recycles
// its entries and their client lists, and the lazy heaps and the granted
// list keep their storage, so from the third boundary on a boundary
// allocates nothing.
func TestBoundaryAllocatesNothing(t *testing.T) {
	const n = 5000
	co := NewCore(1.0)
	q := QoS{P: ms(100), S: ms(100) / n, X: true}
	for i := 0; i < n; i++ {
		c := mustAdmit(t, co, strconv.Itoa(i), q, 0)
		co.SetReady(c, i%2 == 0)
	}
	now := sim.Time(0)
	boundary := func() {
		now = now.Add(q.P)
		if g := co.Refresh(now); len(g) != n {
			t.Fatalf("boundary at %v granted %d clients, want %d", now, len(g), n)
		}
	}
	boundary()
	boundary()
	if allocs := testing.AllocsPerRun(20, boundary); allocs != 0 {
		t.Fatalf("a boundary allocated %v times", allocs)
	}
}

// TestNextBoundaryPastRemovedInstant removes every client filed at the
// earliest release instant. NextBoundary must skip that instant for the
// next one that still holds a client, a Refresh past it must grant
// nothing, and with no client left there is no boundary.
func TestNextBoundaryPastRemovedInstant(t *testing.T) {
	co := NewCore(1.0)
	mustAdmit(t, co, "a", QoS{P: ms(10), S: ms(1)}, 0)
	mustAdmit(t, co, "b", QoS{P: ms(10), S: ms(1)}, 0)
	mustAdmit(t, co, "c", QoS{P: ms(30), S: ms(1)}, 0)
	for _, name := range []string{"a", "b"} {
		if err := co.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if b, ok := co.NextBoundary(); !ok || b != at(30) {
		t.Fatalf("NextBoundary = %v, %v; want %v, true", b, ok, at(30))
	}
	if g := co.Refresh(at(20)); len(g) != 0 {
		t.Fatalf("Refresh at 20 ms granted %d clients, want none", len(g))
	}
	if err := co.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if b, ok := co.NextBoundary(); ok {
		t.Fatalf("NextBoundary = %v with no clients left", b)
	}
}

// TestThreeClientCoreAllocations prices the calendar of a core with three
// clients at distinct periods, the size of a figure world's CPU and USD
// cores. Filing them takes three entries, their client lists and the
// heap's growth to four slots; a boundary, which re-files the clients it
// grants in recycled entries, allocates nothing.
func TestThreeClientCoreAllocations(t *testing.T) {
	co := NewCore(1.0)
	for i, p := range []int64{10, 15, 25} {
		mustAdmit(t, co, strconv.Itoa(i), QoS{P: ms(p), S: ms(1)}, 0)
	}
	clients := co.Clients()
	cal := new(calendar)
	if allocs := testing.AllocsPerRun(20, func() {
		*cal = calendar{}
		for _, c := range clients {
			cal.file(c)
		}
	}); allocs != 9 {
		t.Fatalf("filing three clients at distinct instants allocated %v times, want 9", allocs)
	}
	now := int64(0)
	boundary := func() {
		now += 5
		co.Refresh(at(now))
	}
	for i := 0; i < 30; i++ {
		boundary()
	}
	if allocs := testing.AllocsPerRun(60, boundary); allocs != 0 {
		t.Fatalf("a boundary allocated %v times", allocs)
	}
}
