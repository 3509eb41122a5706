package mem

import (
	"errors"
	"fmt"
	"time"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// RevocationHandler is implemented by domains that use optimistically
// allocated frames: the frames allocator calls RevokeNotification when it
// needs k frames back by deadline. The domain must arrange for the top k
// frames of its frame stack to be Unused (cleaning dirty pages if needed)
// and then call Client.RevocationComplete. Failure to do so in time kills
// the domain.
type RevocationHandler interface {
	RevokeNotification(k int, deadline sim.Time)
}

// Contract is a client's (g, o) service contract: g frames guaranteed
// (immune from revocation in the short term) and up to o further frames
// allocated optimistically when memory is otherwise idle.
type Contract struct {
	Guaranteed uint64
	Optimistic uint64
}

// freeNode is one slot of the PFN-indexed free-frame table. Free frames are
// threaded onto one intrusive doubly-linked FIFO queue, whose order is
// exactly the order of the old free-list slice: ascending at init, freed
// frames appended at the tail. Links are PFNs; -1 terminates.
type freeNode struct {
	prev, next int32
	free       bool
}

// FramesAllocator is the central physical-memory allocator. Unlike a
// general-purpose OS it performs no system-wide load balancing: each domain
// has a contract, and contention is resolved by revoking optimistically
// allocated frames — with the *selection* of which frames to lose under the
// control of the losing application (via its frame stack).
//
// The free set is one PFN-indexed FIFO queue: O(1) unspecific allocation,
// O(1) removal by PFN (AllocSpecific) and an O(1) free test per frame.
// The platform-knowledge paths (AllocColoured, AllocInRegion,
// AllocContiguous) search it; no experiment or example calls them. The
// queue keeps the old single-slice semantics: same allocation order, same
// selections.
type FramesAllocator struct {
	sim    *sim.Simulator
	store  *FrameStore
	ramtab *RamTab

	nodes      []freeNode
	freeHead   int32
	freeTail   int32
	nfree      int
	guaranteed uint64 // running sum of admitted guarantees

	clients map[DomainID]*Client
	freed   sim.Cond

	// RevocationTimeout is the deadline T granted to intrusive
	// revocations (the paper suggests ~100 ms, "relatively far in the
	// future" to allow cleaning dirty pages).
	RevocationTimeout time.Duration

	// OnKill, when non-nil, is invoked when a domain fails revocation.
	// The system uses it to tear the domain down; the allocator reclaims
	// the frames itself.
	OnKill func(DomainID)

	revoking bool

	// Telemetry (all handles nil when disabled; every use is a no-op).
	obs          *obs.Registry
	gFree        *obs.Gauge
	cTransparent *obs.Counter
	cIntrusive   *obs.Counter
	cTimeouts    *obs.Counter
	hRevoke      *obs.Histogram
}

// SetObs attaches a telemetry registry. Call before admitting clients so
// per-client handles are created with it; a nil registry disables telemetry.
func (fa *FramesAllocator) SetObs(r *obs.Registry) {
	fa.obs = r
	fa.gFree = r.Gauge("frames", "free", "")
	fa.cTransparent = r.Counter("frames", "revocations_transparent", "")
	fa.cIntrusive = r.Counter("frames", "revocations_intrusive", "")
	fa.cTimeouts = r.Counter("frames", "revocation_timeouts", "")
	fa.hRevoke = r.Histogram("frames", "revocation_latency", "")
	fa.gFree.Set(int64(fa.nfree))
}

// NewFramesAllocator creates an allocator over store/ramtab (which must
// cover the same number of frames).
func NewFramesAllocator(s *sim.Simulator, store *FrameStore, ramtab *RamTab) *FramesAllocator {
	fa := &FramesAllocator{
		sim:               s,
		store:             store,
		ramtab:            ramtab,
		clients:           make(map[DomainID]*Client),
		RevocationTimeout: 100 * time.Millisecond,
	}
	// Every frame starts free, in ascending queue order.
	fa.nodes = make([]freeNode, store.NFrames())
	fa.freeHead, fa.freeTail = -1, -1
	for i := range fa.nodes {
		fa.pushTail(PFN(i))
	}
	return fa
}

// pushTail appends a free frame at the tail of the FIFO queue — the same
// position a freed PFN took in the old append-to-slice scheme.
func (fa *FramesAllocator) pushTail(pfn PFN) {
	nd := &fa.nodes[pfn]
	if nd.free {
		panic(fmt.Sprintf("mem: frame %d freed twice", pfn))
	}
	nd.free = true
	nd.next, nd.prev = -1, fa.freeTail
	if fa.freeTail >= 0 {
		fa.nodes[fa.freeTail].next = int32(pfn)
	} else {
		fa.freeHead = int32(pfn)
	}
	fa.freeTail = int32(pfn)
	fa.nfree++
}

// unlink removes a free frame from the queue, by PFN, in O(1).
func (fa *FramesAllocator) unlink(pfn PFN) {
	nd := &fa.nodes[pfn]
	if !nd.free {
		panic(fmt.Sprintf("mem: frame %d taken while not free", pfn))
	}
	nd.free = false
	if nd.prev >= 0 {
		fa.nodes[nd.prev].next = nd.next
	} else {
		fa.freeHead = nd.next
	}
	if nd.next >= 0 {
		fa.nodes[nd.next].prev = nd.prev
	} else {
		fa.freeTail = nd.prev
	}
	fa.nfree--
}

// popHead takes the frame at the head of the FIFO queue (the frame the old
// slice scheme served first).
func (fa *FramesAllocator) popHead() PFN {
	pfn := PFN(fa.freeHead)
	fa.unlink(pfn)
	return pfn
}

// Store returns the frame store.
func (fa *FramesAllocator) Store() *FrameStore { return fa.store }

// RamTab returns the frame-state table.
func (fa *FramesAllocator) RamTab() *RamTab { return fa.ramtab }

// FreeFrames returns the number of frames on the free list.
func (fa *FramesAllocator) FreeFrames() int { return fa.nfree }

// GuaranteedTotal returns the sum of admitted guarantees.
func (fa *FramesAllocator) GuaranteedTotal() uint64 { return fa.guaranteed }

// Client is one domain's view of the frames allocator: its contract, its
// allocation count and its frame stack. The allocator maintains the tuple
// (g, o, n) for each client.
type Client struct {
	fa       *FramesAllocator
	domain   DomainID
	contract Contract
	n        uint64
	stack    FrameStack
	handler  RevocationHandler

	pendingK        int
	pendingDeadline sim.Time
	pendingSince    sim.Time
	pendingTimer    sim.Timer
	killed          bool

	// label names this client in telemetry and the audit log: the
	// domain's name once the system facade sets it, "dom<id>" until then.
	label string

	// Telemetry handles, registered once under the domain's name by
	// SetTelemetryName (nil until then, and when disabled).
	gHeld      *obs.Gauge
	gStack     *obs.Gauge
	hAllocWait *obs.Histogram
}

// SetTelemetryName names the client in the audit log and registers its
// metrics under that name (the allocator only knows domain IDs; the system
// facade knows names). Call it once, at admission.
func (c *Client) SetTelemetryName(name string) {
	c.label = name
	if r := c.fa.obs; r != nil {
		c.gHeld = r.Gauge("frames", "held", name)
		c.gStack = r.Gauge("frames", "stack_depth", name)
		c.hAllocWait = r.Histogram("frames", "alloc_wait", name)
		c.updateGauges()
	}
}

// name is the client's audit-log name.
func (c *Client) name() string {
	if c.label == "" {
		return fmt.Sprintf("dom%d", c.domain)
	}
	return c.label
}

// updateGauges refreshes the client's level gauges and the allocator's
// free-frames gauge.
func (c *Client) updateGauges() {
	c.gHeld.Set(int64(c.n))
	c.gStack.Set(int64(len(c.stack.Entries())))
	c.fa.gFree.Set(int64(c.fa.nfree))
}

// Admit registers a domain with contract ct. Admission control ensures the
// sum of all guarantees never exceeds main memory, so every guarantee can be
// met simultaneously.
func (fa *FramesAllocator) Admit(domain DomainID, ct Contract, h RevocationHandler) (*Client, error) {
	if _, dup := fa.clients[domain]; dup {
		return nil, fmt.Errorf("%w: %d", ErrAlreadyAdmitted, domain)
	}
	if fa.guaranteed+ct.Guaranteed > uint64(fa.store.NFrames()) {
		return nil, fmt.Errorf("%w: %d + %d > %d frames", ErrOverbooked,
			fa.guaranteed, ct.Guaranteed, fa.store.NFrames())
	}
	c := &Client{fa: fa, domain: domain, contract: ct, handler: h}
	fa.clients[domain] = c
	fa.guaranteed += ct.Guaranteed
	return c, nil
}

// SetHandler binds the client's revocation handler. A domain is admitted
// before it is built, so it becomes its client's handler afterwards; a
// fork's copy of a client is rebound to the forked domain.
func (c *Client) SetHandler(h RevocationHandler) { c.handler = h }

// Lookup returns the client for a domain, or nil.
func (fa *FramesAllocator) Lookup(domain DomainID) *Client { return fa.clients[domain] }

// Remove releases a departed domain's registration. All its frames must
// already have been returned.
func (fa *FramesAllocator) Remove(domain DomainID) error {
	c, ok := fa.clients[domain]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClient, domain)
	}
	if c.n != 0 {
		return fmt.Errorf("mem: domain %d still holds %d frames", domain, c.n)
	}
	delete(fa.clients, domain)
	fa.guaranteed -= c.contract.Guaranteed
	return nil
}

// Domain returns the owning domain.
func (c *Client) Domain() DomainID { return c.domain }

// Contract returns the client's (g, o) contract.
func (c *Client) Contract() Contract { return c.contract }

// Allocated returns n, the number of frames currently held.
func (c *Client) Allocated() uint64 { return c.n }

// HoldsOptimistic reports whether the client holds frames beyond its
// guarantee.
func (c *Client) HoldsOptimistic() bool { return c.n > c.contract.Guaranteed }

// Stack returns the client's frame stack.
func (c *Client) Stack() *FrameStack { return &c.stack }

// Killed reports whether the allocator killed this domain for failing a
// revocation.
func (c *Client) Killed() bool { return c.killed }

// grant hands pfn to c.
func (fa *FramesAllocator) grant(c *Client, pfn PFN) {
	fa.ramtab.Grant(pfn, c.domain, 0)
	c.stack.PushTop(pfn)
	c.n++
	c.updateGauges()
}

// TryAllocFrame allocates one frame without blocking and without triggering
// revocation. As long as n < g the request is guaranteed to succeed when any
// frame is free; beyond g it succeeds optimistically while memory is
// available, up to g+o.
func (c *Client) TryAllocFrame() (PFN, error) {
	if c.killed {
		return 0, ErrKilledByAlloc
	}
	if c.n >= c.contract.Guaranteed+c.contract.Optimistic {
		// Sentinel, unwrapped: the try path runs on every fault once a
		// domain is at quota, and formatting a fresh error there dominates.
		return 0, ErrContractExhausted
	}
	if c.fa.nfree == 0 {
		return 0, ErrNoMemory
	}
	pfn := c.fa.popHead()
	c.fa.grant(c, pfn)
	return pfn, nil
}

// AllocFrame allocates one frame, blocking p while a revocation runs if the
// request is within the guarantee and memory is exhausted. Optimistic
// requests (n >= g) never trigger revocation and fail immediately when
// memory is tight.
func (c *Client) AllocFrame(p *sim.Proc) (PFN, error) {
	start := c.fa.sim.Now()
	for {
		pfn, err := c.TryAllocFrame()
		if err == nil {
			if waited := c.fa.sim.Now().Sub(start); waited > 0 {
				c.hAllocWait.Observe(waited)
			}
			return pfn, nil
		}
		if !errors.Is(err, ErrNoMemory) {
			return 0, err
		}
		if c.n >= c.contract.Guaranteed {
			return 0, err // optimistic request: no safety net
		}
		c.fa.ensureRevocation(c)
		// Transparent revocation frees frames synchronously — retry
		// before sleeping so the wakeup is not lost.
		if pfn, err := c.TryAllocFrame(); err == nil {
			if waited := c.fa.sim.Now().Sub(start); waited > 0 {
				c.hAllocWait.Observe(waited)
			}
			return pfn, nil
		}
		c.fa.freed.Wait(p)
		if c.killed {
			return 0, ErrKilledByAlloc
		}
	}
}

// AllocSpecific allocates a particular frame if it is free — the hook for
// applications with platform knowledge (page colouring, superpages, DMA
// regions).
func (c *Client) AllocSpecific(pfn PFN) error {
	if c.killed {
		return ErrKilledByAlloc
	}
	if c.n >= c.contract.Guaranteed+c.contract.Optimistic {
		return fmt.Errorf("%w: n=%d", ErrContractExhausted, c.n)
	}
	fa := c.fa
	if int(pfn) < len(fa.nodes) && fa.nodes[pfn].free {
		fa.unlink(pfn)
		fa.grant(c, pfn)
		return nil
	}
	return fmt.Errorf("%w: frame %d not free", ErrNoMemory, pfn)
}

// AllocColoured allocates a free frame of the given cache colour
// (pfn mod ncolours == colour) — the page-colouring hook the paper cites
// for avoiding conflict misses in large direct-mapped caches. Applications
// with platform knowledge choose colours; everyone else takes the default
// policy.
func (c *Client) AllocColoured(colour, ncolours int) (PFN, error) {
	if c.killed {
		return 0, ErrKilledByAlloc
	}
	if ncolours <= 0 || colour < 0 || colour >= ncolours {
		return 0, fmt.Errorf("mem: bad colour %d of %d", colour, ncolours)
	}
	if c.n >= c.contract.Guaranteed+c.contract.Optimistic {
		return 0, fmt.Errorf("%w: n=%d", ErrContractExhausted, c.n)
	}
	// The first frame of this colour in queue order.
	fa := c.fa
	for i := fa.freeHead; i >= 0; i = fa.nodes[i].next {
		if int(i)%ncolours == colour {
			pfn := PFN(i)
			fa.unlink(pfn)
			fa.grant(c, pfn)
			return pfn, nil
		}
	}
	return 0, fmt.Errorf("%w: no free frame of colour %d/%d", ErrNoMemory, colour, ncolours)
}

// AllocContiguous allocates n physically contiguous frames whose base is
// aligned to n (which must be a power of two) — the building block for
// superpage TLB mappings. All frames are granted to the client; the base
// PFN is returned.
func (c *Client) AllocContiguous(n int) (PFN, error) {
	if c.killed {
		return 0, ErrKilledByAlloc
	}
	if n <= 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("mem: contiguous run of %d is not a power of two", n)
	}
	if c.n+uint64(n) > c.contract.Guaranteed+c.contract.Optimistic {
		return 0, fmt.Errorf("%w: n=%d + %d", ErrContractExhausted, c.n, n)
	}
	fa := c.fa
	// Exhaustion fast path: fewer free frames than the run needs means no
	// scan can succeed — fragmented memory used to pay a full rescan here.
	if fa.nfree < n {
		return 0, fmt.Errorf("%w: no aligned free run of %d frames", ErrNoMemory, n)
	}
	// Probe aligned bases in the frame table, lowest first — the same base
	// selection as the old full scan, without materialising a set.
	for base := 0; base+n <= len(fa.nodes); base += n {
		if !fa.runFree(base, n) {
			continue
		}
		for i := 0; i < n; i++ {
			fa.unlink(PFN(base + i))
			fa.grant(c, PFN(base+i))
		}
		return PFN(base), nil
	}
	return 0, fmt.Errorf("%w: no aligned free run of %d frames", ErrNoMemory, n)
}

// runFree reports whether frames [base, base+n) are all free.
func (fa *FramesAllocator) runFree(base, n int) bool {
	for _, nd := range fa.nodes[base : base+n] {
		if !nd.free {
			return false
		}
	}
	return true
}

// AllocInRegion allocates a free frame with lo <= pfn < hi (e.g. a
// DMA-accessible region).
func (c *Client) AllocInRegion(lo, hi PFN) (PFN, error) {
	if c.killed {
		return 0, ErrKilledByAlloc
	}
	if c.n >= c.contract.Guaranteed+c.contract.Optimistic {
		return 0, fmt.Errorf("%w: n=%d", ErrContractExhausted, c.n)
	}
	fa := c.fa
	for i := fa.freeHead; i >= 0; i = fa.nodes[i].next {
		if f := PFN(i); f >= lo && f < hi {
			fa.unlink(f)
			fa.grant(c, f)
			return f, nil
		}
	}
	return 0, fmt.Errorf("%w: no free frame in [%d,%d)", ErrNoMemory, lo, hi)
}

// FreeFrame voluntarily returns an Unused frame to the allocator.
func (c *Client) FreeFrame(pfn PFN) error {
	owner, err := c.fa.ramtab.Owner(pfn)
	if err != nil {
		return err
	}
	state, _ := c.fa.ramtab.State(pfn)
	if state == Free || owner != c.domain {
		return fmt.Errorf("%w: frame %d", ErrNotOwner, pfn)
	}
	if state != Unused {
		return fmt.Errorf("%w: frame %d is %s", ErrFrameBusy, pfn, state)
	}
	if err := c.fa.ramtab.Release(pfn); err != nil {
		return err
	}
	c.stack.Remove(pfn)
	c.n--
	c.fa.pushTail(pfn)
	c.updateGauges()
	c.fa.freed.Broadcast()
	return nil
}

// pickVictim selects the domain to revoke from: the one holding the most
// optimistic frames. Only domains with optimistically allocated frames are
// candidates.
func (fa *FramesAllocator) pickVictim() *Client {
	var victim *Client
	var victimExcess uint64
	for _, c := range fa.clients {
		if c.killed || c.n <= c.contract.Guaranteed {
			continue
		}
		excess := c.n - c.contract.Guaranteed
		if victim == nil || excess > victimExcess ||
			(excess == victimExcess && c.domain < victim.domain) {
			victim, victimExcess = c, excess
		}
	}
	return victim
}

// ensureRevocation starts a revocation round if none is running. requester
// is the within-guarantee client whose allocation found memory exhausted —
// a guarantee violation the audit log records against the over-guarantee
// holder about to be revoked from.
func (fa *FramesAllocator) ensureRevocation(requester *Client) {
	victim := fa.pickVictim()
	if victim == nil {
		return // nothing revocable; guarantees invariant says this cannot
		// happen for a within-guarantee request, but be safe
	}
	if requester != nil && victim != requester {
		fa.obs.Audit(obs.AuditGuaranteeViolation, victim.name(), requester.name(),
			int(victim.n-victim.contract.Guaranteed),
			"within-guarantee allocation found memory exhausted")
	}
	// Revoke a single frame per round; rounds repeat as needed.
	fa.revokeFrom(victim, 1)
}

// RequestRevocation directs a revocation round of k frames at a specific
// client — the hook a global-performance policy (rebalancer) uses to move
// optimistic frames from idle domains to thrashing ones. Only frames above
// the victim's guarantee may be taken.
func (fa *FramesAllocator) RequestRevocation(victim DomainID, k int) error {
	c, ok := fa.clients[victim]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClient, victim)
	}
	if c.killed || c.n <= c.contract.Guaranteed {
		return fmt.Errorf("mem: domain %d has no optimistic frames", victim)
	}
	if excess := int(c.n - c.contract.Guaranteed); k > excess {
		k = excess
	}
	fa.revokeFrom(c, k)
	return nil
}

// revokeFrom runs one revocation round (transparent, else intrusive)
// against victim for k frames. A no-op while another round is in flight.
func (fa *FramesAllocator) revokeFrom(victim *Client, k int) {
	if fa.revoking {
		return
	}
	fa.revoking = true
	fa.obs.Audit(obs.AuditRevokeBegin, victim.name(), "", k, "")

	// Transparent revocation: if the top of the victim's stack is unused,
	// reclaim it without troubling the application.
	if got := fa.reclaimTopUnused(victim, k); got > 0 {
		fa.obs.Audit(obs.AuditRevokeTransparent, victim.name(), "", got, "")
		if got >= k {
			fa.cTransparent.Inc()
			fa.obs.Audit(obs.AuditRevokeComplete, victim.name(), "", got, "transparent")
			fa.revoking = false
			return
		}
		k -= got
	}

	// Intrusive revocation: notify and give the victim until T.
	deadline := fa.sim.Now().Add(fa.RevocationTimeout)
	victim.pendingK = k
	victim.pendingDeadline = deadline
	victim.pendingSince = fa.sim.Now()
	victim.pendingTimer = fa.sim.At(deadline, func() { fa.revocationTimeout(victim) })
	fa.obs.Audit(obs.AuditRevokeIntrusive, victim.name(), "", k,
		fmt.Sprintf("deadline %.1fms", deadline.Milliseconds()))
	if victim.handler != nil {
		victim.handler.RevokeNotification(k, deadline)
	}
	// No handler: the timeout will kill the domain — using optimistic
	// frames without handling revocation is a contract violation.
}

// reclaimTopUnused reclaims up to k unused frames from the top of the
// victim's stack, returning how many it got.
func (fa *FramesAllocator) reclaimTopUnused(victim *Client, k int) int {
	got := 0
	for got < k {
		top := victim.stack.Top(1)
		if len(top) == 0 {
			break
		}
		state, err := fa.ramtab.State(top[0].PFN)
		if err != nil || state != Unused {
			break
		}
		pfn := top[0].PFN
		fa.ramtab.Release(pfn)
		victim.stack.Remove(pfn)
		victim.n--
		fa.pushTail(pfn)
		got++
	}
	if got > 0 {
		victim.updateGauges()
		fa.freed.Broadcast()
	}
	return got
}

// RevocationComplete is called by the victim domain once it has arranged
// for the top k frames of its stack to be unused. The allocator verifies
// and reclaims; non-compliance kills the domain.
func (c *Client) RevocationComplete() {
	fa := c.fa
	if c.pendingK == 0 {
		return
	}
	k := c.pendingK
	c.pendingTimer.Stop()
	c.pendingK = 0
	fa.cIntrusive.Inc()
	fa.hRevoke.Observe(fa.sim.Now().Sub(c.pendingSince))
	if fa.reclaimTopUnused(c, k) < k {
		fa.kill(c)
	} else {
		fa.obs.Audit(obs.AuditRevokeComplete, c.name(), "", k, "intrusive")
	}
	fa.revoking = false
}

// revocationTimeout fires when the victim failed to comply by T.
func (fa *FramesAllocator) revocationTimeout(victim *Client) {
	if victim.pendingK == 0 || victim.killed {
		return
	}
	victim.pendingK = 0
	fa.cTimeouts.Inc()
	fa.obs.Audit(obs.AuditRevokeTimeout, victim.name(), "", 0, "revocation deadline passed")
	fa.kill(victim)
	fa.revoking = false
}

// kill reclaims every frame of a non-compliant domain and notifies the
// system so the domain itself can be destroyed.
func (fa *FramesAllocator) kill(c *Client) {
	c.killed = true
	fa.obs.Audit(obs.AuditRevokeKill, c.name(), "", int(c.n), "non-compliant revocation")
	for _, pfn := range fa.ramtab.OwnedBy(c.domain) {
		// Force release regardless of state: the domain is dead.
		fa.ramtab.entries[pfn] = ramtabEntry{}
		fa.pushTail(pfn)
	}
	c.stack.entries = nil
	c.n = 0
	c.updateGauges()
	if fa.OnKill != nil {
		fa.OnKill(c.domain)
	}
	fa.freed.Broadcast()
}
