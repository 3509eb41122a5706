package core

import (
	"fmt"
	"sort"

	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
)

// Snapshot is the result of System.Fork: a complete, independent copy of the
// simulated machine at the fork instant. Fork keeps every domain and stretch
// ID, so a caller finds the twin of a parent handle by ID: System.Domain,
// SA.Lookup and Domain.DriverFor. Forking a warmed world is how the
// experiment server avoids re-paying boot: warm once, fork per job.
type Snapshot struct {
	// Sys is the forked system. It shares nothing mutable with the parent
	// except copy-on-write disk chunks, which are immutable once shared, so
	// parent and fork may run on different goroutines.
	Sys *System
	// Stats describes the copy cost of this fork.
	Stats ForkStats
}

// ForkStats quantifies one fork's copying work.
type ForkStats struct {
	// FrameBytes is how much frame-store memory was copied outright.
	FrameBytes int64
	// SharedChunks is how many populated disk chunks were shared
	// copy-on-write instead of copied; SharedBytes is their total size.
	// Both count chunks written only with zeros, which share the disk
	// package's zero chunk and hold no bytes of their own, so SharedBytes
	// bounds the copying the CoW scheme avoided rather than measuring it.
	SharedChunks int
	SharedBytes  int64
}

// Fork deep-copies the system at the current instant. It carries only what
// a pooled warm Fig. 7/8 world holds: telemetry off, paged stretches over
// local swap files with FIFO replacement, and the linear page table. It
// returns an error naming the cause for anything else: telemetry (and with
// it any crosstalk monitor or timeline recorder), the netswap fabric, a
// guarded page table, any other stretch driver, backing or replacement
// policy, and custom fault handlers. The fork point must also be quiesced:
// Fork is called from host context, every workload thread has exited, the
// CPU is idle, no IO is in flight and no revocation round is open.
//
// Service loops (the USD, each domain's mm-worker) cannot have their
// goroutine stacks cloned; they are respawned in the fork and re-derive
// their parked state, which at a quiesced instant is provably identical.
// Everything else — clock, event queue, random stream, page tables, TLB,
// frame contents, free lists, blok bitmaps, QoS accounting, the USD trace —
// is copied exactly, so a forked world's future event stream is
// byte-identical to the future the parent would have had.
//
// A refused Fork leaves nothing running. Every refusal of a world shape or
// of a busy fork point comes before the fork spawns a process or shares a
// disk chunk. The event accounting and internal consistency checks come
// later, and a failure there shuts the half-built world down; the parent's
// disk chunks stay marked shared, which costs the parent a private copy of
// each on its next write to it and changes no simulated byte.
//
// The parent remains fully usable and may be forked again; sharing disk
// chunks CoW mutates only the parent's shared-flags, so concurrent Forks of
// one parent must be serialised by the caller (run the forks' workloads in
// parallel instead — that is safe).
func (sys *System) Fork() (_ *Snapshot, err error) {
	if err := sys.forkable(); err != nil {
		return nil, err
	}
	ns := sys.Sim.Fork()
	defer func() {
		if err != nil {
			ns.Shutdown()
		}
	}()
	ramtab := sys.RamTab.Fork()
	ts, vmaps, err := sys.TS.Fork(ramtab)
	if err != nil {
		return nil, err
	}
	store, frameBytes := sys.Store.Fork()
	frames, err := sys.Frames.Fork(ns, store, ramtab)
	if err != nil {
		return nil, err
	}
	sched, claimed, err := sys.CPU.Fork(ns)
	if err != nil {
		return nil, err
	}
	nu, chans, usdClaimed, err := sys.USD.Fork(ns)
	if err != nil {
		return nil, err
	}
	nfs, fileMap, err := sys.SFS.Fork(nu, chans)
	if err != nil {
		return nil, err
	}

	// Event accounting: every live callback event in the parent queue must
	// have been re-armed by exactly one subsystem fork. A mismatch means a
	// timer would silently vanish from (or be duplicated in) the forked
	// world; fail loudly instead.
	if err := checkClaimedSeqs(append(claimed, usdClaimed...), sys.Sim.PendingSeqs()); err != nil {
		return nil, err
	}

	sys2 := &System{
		Config:  sys.Config,
		Sim:     ns,
		Store:   store,
		RamTab:  ramtab,
		Frames:  frames,
		TS:      ts,
		SA:      ts.Stretches(),
		CPU:     sched,
		Disk:    nu.Disk(),
		USD:     nu,
		SFS:     nfs,
		USDLog:  nu.Log,
		domains: make(map[mem.DomainID]*domain.Domain, len(sys.domains)),
		nextID:  sys.nextID,
	}
	sys2.env = sys2.newEnv()
	frames.OnKill = func(id mem.DomainID) {
		if dom := sys2.domains[id]; dom != nil {
			dom.Kill()
		}
	}

	for _, dom := range sys.Domains() {
		npd := vmaps.PD[dom.PD()]
		if npd == nil {
			return nil, fmt.Errorf("core: no forked protection domain for %q", dom.Name())
		}
		ncpu, err := sched.AdoptHandle(dom.CPU())
		if err != nil {
			return nil, err
		}
		ndom := dom.Fork(sys2.env, npd, ncpu, frames.Lookup(dom.ID()))
		sys2.domains[dom.ID()] = ndom
		for _, b := range dom.Bindings() {
			if _, err := b.Driver.(*stretchdrv.Paged).Fork(ndom, vmaps, fileMap); err != nil {
				return nil, err
			}
		}
	}

	// Drain the respawned service loops' bootstrap dispatches (all scheduled
	// at the fork instant): each runs to its park point without consuming
	// simulated time, leaving the fork parked exactly as the parent is.
	ns.Run(ns.Now())

	shared, _ := sys2.Disk.SharedChunks()
	return &Snapshot{
		Sys: sys2,
		Stats: ForkStats{
			FrameBytes:   frameBytes,
			SharedChunks: shared,
			SharedBytes:  int64(shared) * disk.ChunkBytes,
		},
	}, nil
}

// forkable refuses, before anything is built, a world Fork does not carry
// or a fork point that is not quiesced at the system and domain level. The
// CPU, USD and frames allocator refuse a busy fork point in their own Forks,
// which spawn nothing before they check.
func (sys *System) forkable() error {
	if sys.Sim.Current() != nil {
		return fmt.Errorf("core: Fork must be called from host context, not from inside the simulation")
	}
	if sys.Obs != nil {
		return fmt.Errorf("core: cannot fork a world with telemetry on — its registry, crosstalk monitor and timeline recorder are not copied")
	}
	if sys.NetSwap != nil {
		return fmt.Errorf("core: cannot fork with the netswap fabric built — create remote stretches after forking")
	}
	allowed := map[string]bool{"usd": true}
	for _, dom := range sys.domains {
		allowed[dom.Name()+"/mm-worker"] = true
	}
	for _, name := range sys.Sim.LiveProcNames() {
		if !allowed[name] {
			return fmt.Errorf("core: cannot fork with workload process %q still live — join all threads first", name)
		}
	}
	for _, dom := range sys.Domains() {
		if err := dom.Forkable(); err != nil {
			return err
		}
		for _, b := range dom.Bindings() {
			drv, ok := b.Driver.(*stretchdrv.Paged)
			if !ok {
				return fmt.Errorf("core: cannot fork the %s stretch %d of domain %q — only paged stretches fork", b.Driver.DriverName(), b.SID, dom.Name())
			}
			if err := drv.Forkable(); err != nil {
				return fmt.Errorf("core: domain %q: %w", dom.Name(), err)
			}
		}
	}
	return nil
}

// checkClaimedSeqs verifies the subsystems re-armed exactly the parent's live
// callback events.
func checkClaimedSeqs(claimed, pending []uint64) error {
	sort.Slice(claimed, func(i, j int) bool { return claimed[i] < claimed[j] })
	ok := len(claimed) == len(pending)
	if ok {
		for i := range claimed {
			if claimed[i] != pending[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		return fmt.Errorf("core: fork event accounting mismatch: subsystems re-armed seqs %v, parent queue holds %v (an unclaimed timer — e.g. a crosstalk monitor tick — cannot be carried across a fork)", claimed, pending)
	}
	return nil
}
