package mem

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"nemesis/internal/sim"
)

func newAlloc(nframes int) (*sim.Simulator, *FramesAllocator) {
	s := sim.New(1)
	store := NewFrameStore(nframes)
	return s, NewFramesAllocator(s, store, NewRamTab(nframes))
}

func TestAdmissionControlFrames(t *testing.T) {
	_, fa := newAlloc(10)
	if _, err := fa.Admit(1, Contract{Guaranteed: 6}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Admit(2, Contract{Guaranteed: 5}, nil); !errors.Is(err, ErrOverbooked) {
		t.Fatalf("err = %v", err)
	}
	// Optimistic quota is not admission-controlled.
	if _, err := fa.Admit(3, Contract{Guaranteed: 4, Optimistic: 100}, nil); err != nil {
		t.Fatal(err)
	}
	if fa.GuaranteedTotal() != 10 {
		t.Fatalf("GuaranteedTotal = %d", fa.GuaranteedTotal())
	}
	if _, err := fa.Admit(1, Contract{}, nil); err == nil {
		t.Fatal("duplicate admit")
	}
}

// TestSentinelErrors: the sentinel names are reachable via errors.Is.
func TestSentinelErrors(t *testing.T) {
	_, fa := newAlloc(4)
	c, _ := fa.Admit(1, Contract{Guaranteed: 2}, nil)
	c.TryAllocFrame()
	c.TryAllocFrame()
	_, err := c.TryAllocFrame()
	if !errors.Is(err, ErrContractExhausted) {
		t.Fatalf("not ErrContractExhausted: %v", err)
	}
	if _, err := fa.Admit(1, Contract{}, nil); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("not ErrAlreadyAdmitted: %v", err)
	}
}

func TestGuaranteedAllocationAlwaysSucceeds(t *testing.T) {
	_, fa := newAlloc(8)
	c, _ := fa.Admit(1, Contract{Guaranteed: 5}, nil)
	for i := 0; i < 5; i++ {
		if _, err := c.TryAllocFrame(); err != nil {
			t.Fatalf("guaranteed alloc %d failed: %v", i, err)
		}
	}
	if c.Allocated() != 5 {
		t.Fatalf("n = %d", c.Allocated())
	}
	// Beyond g+o: quota error.
	if _, err := c.TryAllocFrame(); !errors.Is(err, ErrContractExhausted) {
		t.Fatalf("err = %v", err)
	}
	if fa.FreeFrames() != 3 {
		t.Fatalf("free = %d", fa.FreeFrames())
	}
}

func TestOptimisticAllocation(t *testing.T) {
	_, fa := newAlloc(8)
	c, _ := fa.Admit(1, Contract{Guaranteed: 2, Optimistic: 4}, nil)
	for i := 0; i < 6; i++ {
		if _, err := c.TryAllocFrame(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if !c.HoldsOptimistic() {
		t.Fatal("HoldsOptimistic = false")
	}
	if _, err := c.TryAllocFrame(); !errors.Is(err, ErrContractExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestOptimisticFailsWhenMemoryTight(t *testing.T) {
	s, fa := newAlloc(4)
	a, _ := fa.Admit(1, Contract{Guaranteed: 4}, nil)
	b, _ := fa.Admit(2, Contract{Guaranteed: 0, Optimistic: 4}, nil)
	for i := 0; i < 4; i++ {
		a.TryAllocFrame()
	}
	// b's optimistic request must fail immediately, with no revocation.
	if _, err := b.TryAllocFrame(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v", err)
	}
	var blockErr error
	s.Spawn("b", func(p *sim.Proc) {
		_, blockErr = b.AllocFrame(p)
	})
	s.RunFor(time.Second)
	if !errors.Is(blockErr, ErrNoMemory) {
		t.Fatalf("AllocFrame err = %v", blockErr)
	}
}

func TestAllocSpecificAndRegion(t *testing.T) {
	_, fa := newAlloc(16)
	c, _ := fa.Admit(1, Contract{Guaranteed: 8}, nil)
	if err := c.AllocSpecific(7); err != nil {
		t.Fatal(err)
	}
	if err := c.AllocSpecific(7); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("double specific alloc: %v", err)
	}
	pfn, err := c.AllocInRegion(10, 12)
	if err != nil || pfn < 10 || pfn >= 12 {
		t.Fatalf("AllocInRegion = %d, %v", pfn, err)
	}
	if _, err := c.AllocInRegion(100, 200); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("out-of-range region: %v", err)
	}
	if owner, _ := fa.RamTab().Owner(7); owner != 1 {
		t.Fatal("ramtab owner not set")
	}
	if !c.Stack().Contains(7) || !c.Stack().Contains(pfn) {
		t.Fatal("allocated frames not on stack")
	}
}

func TestFreeFrame(t *testing.T) {
	_, fa := newAlloc(4)
	c, _ := fa.Admit(1, Contract{Guaranteed: 2}, nil)
	pfn, _ := c.TryAllocFrame()
	if err := c.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
	if c.Allocated() != 0 || fa.FreeFrames() != 4 {
		t.Fatalf("n=%d free=%d", c.Allocated(), fa.FreeFrames())
	}
	// Double free fails.
	if err := c.FreeFrame(pfn); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("double free: %v", err)
	}
	// Mapped frames cannot be freed.
	pfn2, _ := c.TryAllocFrame()
	fa.RamTab().SetState(pfn2, 1, Mapped)
	if err := c.FreeFrame(pfn2); !errors.Is(err, ErrFrameBusy) {
		t.Fatalf("freed mapped frame: %v", err)
	}
}

func TestFreeFrameOfOtherDomain(t *testing.T) {
	_, fa := newAlloc(4)
	a, _ := fa.Admit(1, Contract{Guaranteed: 2}, nil)
	b, _ := fa.Admit(2, Contract{Guaranteed: 2}, nil)
	pfn, _ := a.TryAllocFrame()
	if err := b.FreeFrame(pfn); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("cross-domain free: %v", err)
	}
}

// TestTransparentRevocation: a guaranteed request reclaims an unused
// optimistic frame from another domain without involving it.
func TestTransparentRevocation(t *testing.T) {
	s, fa := newAlloc(4)
	hog, _ := fa.Admit(1, Contract{Guaranteed: 1, Optimistic: 3}, nil)
	needy, _ := fa.Admit(2, Contract{Guaranteed: 3}, nil)
	for i := 0; i < 4; i++ {
		hog.TryAllocFrame() // all memory, 3 optimistic, all Unused
	}
	var got []PFN
	s.Spawn("needy", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			pfn, err := needy.AllocFrame(p)
			if err != nil {
				t.Errorf("alloc %d: %v", i, err)
				return
			}
			got = append(got, pfn)
		}
	})
	s.RunFor(time.Second)
	if len(got) != 3 {
		t.Fatalf("got %d frames", len(got))
	}
	if hog.Allocated() != 1 {
		t.Fatalf("hog retains %d frames, want 1 (its guarantee)", hog.Allocated())
	}
	if hog.Killed() {
		t.Fatal("transparent revocation killed the victim")
	}
}

// revocableApp models a cooperative domain: on notification it unmaps (after
// a cleaning delay) the top k frames and completes the protocol.
type revocableApp struct {
	s        *sim.Simulator
	fa       *FramesAllocator
	c        *Client
	cleaning time.Duration
	notified int
}

func (r *revocableApp) RevokeNotification(k int, deadline sim.Time) {
	r.notified++
	r.s.Spawn("revoke-worker", func(p *sim.Proc) {
		p.Sleep(r.cleaning) // "clean some dirty pages"
		for _, e := range r.c.Stack().Top(k) {
			r.fa.RamTab().SetState(e.PFN, r.c.Domain(), Unused)
		}
		r.c.RevocationComplete()
	})
}

// TestIntrusiveRevocation: the victim's frames are mapped, so the allocator
// must notify and wait; the victim cleans and completes in time.
func TestIntrusiveRevocation(t *testing.T) {
	s, fa := newAlloc(4)
	hog, _ := fa.Admit(1, Contract{Guaranteed: 1, Optimistic: 3}, nil)
	app := &revocableApp{s: s, fa: fa, cleaning: 20 * time.Millisecond}
	app.c = hog
	hog.handler = app
	needy, _ := fa.Admit(2, Contract{Guaranteed: 2}, nil)
	for i := 0; i < 4; i++ {
		pfn, _ := hog.TryAllocFrame()
		fa.RamTab().SetState(pfn, 1, Mapped) // dirty: transparent impossible
	}
	var got []PFN
	var allocAt sim.Time
	s.Spawn("needy", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			pfn, err := needy.AllocFrame(p)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			got = append(got, pfn)
		}
		allocAt = p.Now()
	})
	s.RunFor(time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d frames", len(got))
	}
	if app.notified != 2 {
		t.Fatalf("notified %d times, want 2 (one per frame)", app.notified)
	}
	if hog.Killed() {
		t.Fatal("cooperative victim was killed")
	}
	if hog.Allocated() != 2 {
		t.Fatalf("hog holds %d", hog.Allocated())
	}
	// Both rounds each took ~20ms of cleaning.
	if allocAt < sim.Time(40*time.Millisecond) {
		t.Fatalf("allocation completed too early: %v", allocAt)
	}
}

// TestRevocationTimeoutKills: a victim that ignores the notification is
// killed at the deadline and all its frames reclaimed.
func TestRevocationTimeoutKills(t *testing.T) {
	s, fa := newAlloc(4)
	var killed []DomainID
	fa.OnKill = func(d DomainID) { killed = append(killed, d) }
	hog, _ := fa.Admit(1, Contract{Guaranteed: 1, Optimistic: 3}, nil) // no handler
	needy, _ := fa.Admit(2, Contract{Guaranteed: 2}, nil)
	for i := 0; i < 4; i++ {
		pfn, _ := hog.TryAllocFrame()
		fa.RamTab().SetState(pfn, 1, Mapped)
	}
	var got []PFN
	s.Spawn("needy", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			pfn, err := needy.AllocFrame(p)
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			got = append(got, pfn)
		}
	})
	s.RunFor(time.Second)
	if len(got) != 2 {
		t.Fatalf("got %d frames", len(got))
	}
	if !hog.Killed() {
		t.Fatal("non-compliant victim not killed")
	}
	if len(killed) != 1 || killed[0] != 1 {
		t.Fatalf("killed = %v", killed)
	}
	if hog.Allocated() != 0 {
		t.Fatalf("dead domain holds %d frames", hog.Allocated())
	}
	// Dead domains cannot allocate.
	if _, err := hog.TryAllocFrame(); !errors.Is(err, ErrKilledByAlloc) {
		t.Fatalf("err = %v", err)
	}
}

// TestNonCompliantCompletionKills: replying without actually unmapping the
// frames also kills the domain.
func TestNonCompliantCompletionKills(t *testing.T) {
	s, fa := newAlloc(4)
	hog, _ := fa.Admit(1, Contract{Guaranteed: 1, Optimistic: 3}, nil)
	lazy := &lazyApp{c: nil}
	hog.handler = lazy
	lazy.c = hog
	needy, _ := fa.Admit(2, Contract{Guaranteed: 2}, nil)
	for i := 0; i < 4; i++ {
		pfn, _ := hog.TryAllocFrame()
		fa.RamTab().SetState(pfn, 1, Mapped)
	}
	s.Spawn("needy", func(p *sim.Proc) { needy.AllocFrame(p) })
	s.RunFor(time.Second)
	if !hog.Killed() {
		t.Fatal("lying victim not killed")
	}
}

type lazyApp struct{ c *Client }

func (l *lazyApp) RevokeNotification(k int, deadline sim.Time) {
	// Reply immediately without making any frames unused.
	l.c.RevocationComplete()
}

func TestRemoveClient(t *testing.T) {
	_, fa := newAlloc(4)
	c, _ := fa.Admit(1, Contract{Guaranteed: 2}, nil)
	pfn, _ := c.TryAllocFrame()
	if err := fa.Remove(1); err == nil {
		t.Fatal("removed client holding frames")
	}
	c.FreeFrame(pfn)
	if err := fa.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := fa.Remove(1); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("err = %v", err)
	}
	if fa.Lookup(1) != nil {
		t.Fatal("Lookup after remove")
	}
}

// Property: frame conservation — free + sum(allocated) == total under any
// interleaving of allocations and frees.
func TestFrameConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		_, fa := newAlloc(32)
		a, _ := fa.Admit(1, Contract{Guaranteed: 8, Optimistic: 8}, nil)
		b, _ := fa.Admit(2, Contract{Guaranteed: 8, Optimistic: 8}, nil)
		var held []struct {
			c   *Client
			pfn PFN
		}
		for i, op := range ops {
			c := a
			if op%2 == 1 {
				c = b
			}
			if i%3 != 2 {
				if pfn, err := c.TryAllocFrame(); err == nil {
					held = append(held, struct {
						c   *Client
						pfn PFN
					}{c, pfn})
				}
			} else if len(held) > 0 {
				h := held[0]
				held = held[1:]
				if h.c.FreeFrame(h.pfn) != nil {
					return false
				}
			}
			if uint64(fa.FreeFrames())+a.Allocated()+b.Allocated() != 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocColoured(t *testing.T) {
	_, fa := newAlloc(16)
	c, _ := fa.Admit(1, Contract{Guaranteed: 8}, nil)
	for colour := 0; colour < 4; colour++ {
		pfn, err := c.AllocColoured(colour, 4)
		if err != nil {
			t.Fatalf("colour %d: %v", colour, err)
		}
		if int(pfn)%4 != colour {
			t.Fatalf("pfn %d has colour %d, want %d", pfn, int(pfn)%4, colour)
		}
	}
	if _, err := c.AllocColoured(4, 4); err == nil {
		t.Fatal("bad colour accepted")
	}
	if _, err := c.AllocColoured(-1, 4); err == nil {
		t.Fatal("negative colour accepted")
	}
	// Exhaust one colour: 16 frames / 4 colours = 4 of colour 0; one taken.
	c.AllocColoured(0, 4)
	c.AllocColoured(0, 4)
	c.AllocColoured(0, 4)
	if _, err := c.AllocColoured(0, 4); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestAllocContiguous(t *testing.T) {
	_, fa := newAlloc(32)
	c, _ := fa.Admit(1, Contract{Guaranteed: 16, Optimistic: 100}, nil)
	base, err := c.AllocContiguous(8)
	if err != nil {
		t.Fatal(err)
	}
	if base%8 != 0 {
		t.Fatalf("base %d not aligned to 8", base)
	}
	if c.Allocated() != 8 {
		t.Fatalf("allocated = %d", c.Allocated())
	}
	for i := PFN(0); i < 8; i++ {
		if o, _ := fa.RamTab().Owner(base + i); o != 1 {
			t.Fatalf("frame %d not owned", base+i)
		}
	}
	// Non-power-of-two rejected.
	if _, err := c.AllocContiguous(6); err == nil {
		t.Fatal("n=6 accepted")
	}
	if _, err := c.AllocContiguous(0); err == nil {
		t.Fatal("n=0 accepted")
	}
	// Fragment memory, then ask for a run that cannot exist.
	for i := 0; i < 3; i++ {
		c.AllocContiguous(8)
	}
	if _, err := c.AllocContiguous(8); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestAllocContiguousFindsHoleAfterFrees(t *testing.T) {
	_, fa := newAlloc(16)
	c, _ := fa.Admit(1, Contract{Guaranteed: 16}, nil)
	base, _ := c.AllocContiguous(8) // [0,8)
	// Free the run out of order; a fresh aligned request must find it.
	for _, off := range []PFN{3, 0, 7, 1, 2, 6, 5, 4} {
		if err := c.FreeFrame(base + off); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.AllocContiguous(8)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("got %d, want %d", got, base)
	}
}
