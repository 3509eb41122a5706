// Package core is the public facade of the Nemesis self-paging
// reproduction: it wires the simulator, physical and virtual memory, the
// translation system, the CPU scheduler, the disk, the USD and the SFS into
// one System, and provides the high-level operations a downstream user
// needs — create domains with QoS contracts, create stretches backed by
// nailed/physical/paged stretch drivers, and run the simulation.
package core

import (
	"fmt"
	"io"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/cpu"
	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/netswap"
	"nemesis/internal/obs"
	"nemesis/internal/sfs"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/trace"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// Config sizes a System. The platform itself is the paper's and fixed: the
// Quantum VP3221 disk with swap on its second half, the CPU cost model
// cpu.DefaultCosts, one global virtual address window and the revocation
// deadline T.
type Config struct {
	// Seed drives every random choice; identical seeds give identical runs.
	Seed int64
	// MemoryFrames is the number of 8 KB frames of main memory.
	MemoryFrames int
	// Telemetry enables the observability registry: fault spans, metric
	// series and the crosstalk monitor. Off by default; when off, the
	// fault fast path carries no instrumentation cost at all.
	Telemetry bool
	// NetSwap configures the remote-paging fabric (link, remote swap
	// server, client RPC and tiering options) for stretches that page to a
	// remote or tiered backing. Nil means netswap.DefaultConfig() when
	// such a stretch is first created; the fabric is only built on demand,
	// so purely local systems carry no server machinery.
	NetSwap *netswap.Config
}

// The single global virtual address space stretches are allocated from.
const vaLow, vaHigh vm.VA = 0x0000001000000000, 0x0000002000000000

// revocationTimeout is the deadline T for intrusive revocation. It must be
// long enough to cover cleaning dirty pages through the USD — i.e.
// comfortably more than a disk QoS period — or cooperative domains get
// killed for waiting on their own disk slice.
const revocationTimeout = 600 * time.Millisecond

// DefaultConfig returns the paper's evaluation platform: 64 MB of memory.
func DefaultConfig() Config {
	return Config{Seed: 1, MemoryFrames: 8192}
}

// System is a complete simulated Nemesis machine.
type System struct {
	Config Config
	Sim    *sim.Simulator
	Store  *mem.FrameStore
	RamTab *mem.RamTab
	Frames *mem.FramesAllocator
	TS     *vm.TranslationSystem
	SA     *vm.StretchAllocator
	CPU    *cpu.Scheduler
	Disk   *disk.Disk
	USD    *usd.USD
	SFS    *sfs.SFS
	// USDLog receives the USD scheduler trace (transactions, laxity,
	// allocations) used to regenerate the paper's figures.
	USDLog *trace.Log
	// Obs is the telemetry registry, nil unless Config.Telemetry is set.
	Obs *obs.Registry
	// NetSwap is the remote-paging fabric, nil until a remote or tiered
	// stretch is created (or EnableNetSwap is called).
	NetSwap *netswap.Fabric

	// env is the one environment every domain of the system shares.
	env      *domain.Env
	domains  map[mem.DomainID]*domain.Domain
	nextID   mem.DomainID
	monitor  *obs.CrosstalkMonitor
	recorder *obs.Recorder
	tracker  *domain.ActivityTracker
}

// ForceTelemetry, when set, overrides Config.Telemetry for every System
// built afterwards. It exists for whole-suite invariant tests (attribution
// conservation across every experiment cell): telemetry is purely
// observational — it schedules no simulator events and draws no randomness —
// so forcing it on must not change any experiment's output.
var ForceTelemetry bool

// ShutdownHook, when set, is invoked at the start of every System.Shutdown.
// Whole-suite tests use it to audit each system (conservation checks) at the
// moment its experiment completes. The hook must be safe for concurrent
// calls when suites fan out across workers.
var ShutdownHook func(*System)

// NewHook, when set, is invoked on every System New builds, just before New
// returns. Tests use it to plant a process in an experiment's world, such as
// one that panics, to check that a process panic fails only its own run. The
// hook must be safe for concurrent calls when runs fan out across workers.
var NewHook func(*System)

// New builds a System from cfg.
func New(cfg Config) *System {
	if cfg.MemoryFrames == 0 {
		cfg = DefaultConfig()
	}
	if ForceTelemetry {
		cfg.Telemetry = true
	}
	s := sim.New(cfg.Seed)
	store := mem.NewFrameStore(cfg.MemoryFrames)
	ramtab := mem.NewRamTab(cfg.MemoryFrames)
	frames := mem.NewFramesAllocator(s, store, ramtab)
	ts := vm.NewTranslationSystem(ramtab)
	sa := vm.NewStretchAllocator(ts, vaLow, vaHigh)
	sched := cpu.NewScheduler(s)
	var reg *obs.Registry
	if cfg.Telemetry {
		reg = obs.NewRegistry(s.Now)
		frames.SetObs(reg)
		// Exact sim-time attribution: spans drive the fault states, the CPU
		// scheduler drives running/runnable, admission starts the clock.
		reg.EnableAttribution()
		sched.Obs = reg
	}
	d := disk.New(s, disk.VP3221())
	d.SetObs(reg)
	u := usd.New(s, d)
	u.Obs = reg
	log := &trace.Log{}
	u.Log = log
	half := d.Geom.TotalBlocks / 2
	fs := sfs.New(u, usd.Extent{Start: half, Count: half}) // swap: the disk's second half

	sys := &System{
		Config:  cfg,
		Sim:     s,
		Store:   store,
		RamTab:  ramtab,
		Frames:  frames,
		TS:      ts,
		SA:      sa,
		CPU:     sched,
		Disk:    d,
		USD:     u,
		SFS:     fs,
		USDLog:  log,
		Obs:     reg,
		domains: make(map[mem.DomainID]*domain.Domain),
		nextID:  1, // 0 is the system domain
	}
	sys.env = sys.newEnv()
	if reg != nil {
		sys.tracker = domain.NewActivityTracker()
	}
	frames.RevocationTimeout = revocationTimeout
	frames.OnKill = func(id mem.DomainID) {
		if dom := sys.domains[id]; dom != nil {
			dom.Kill()
		}
	}
	if NewHook != nil {
		NewHook(sys)
	}
	return sys
}

// newEnv bundles what the system's domains need. New and Fork call it once
// per system.
func (sys *System) newEnv() *domain.Env {
	return &domain.Env{
		Sim:    sys.Sim,
		TS:     sys.TS,
		SA:     sys.SA,
		Store:  sys.Store,
		RamTab: sys.RamTab,
		Costs:  sys.CPU.Costs,
		Obs:    sys.Obs,
	}
}

// NewDomain admits a domain with the given CPU contract and physical-memory
// contract, creating its protection domain and memory-management machinery.
// Both admissions are checked before anything registers telemetry or
// spawns a process, so a refused domain leaves nothing behind.
func (sys *System) NewDomain(name string, cpuQoS atropos.QoS, ct mem.Contract) (*domain.Domain, error) {
	id := sys.nextID
	pd, err := sys.TS.NewProtectionDomain()
	if err != nil {
		return nil, err
	}
	// Memory admission registers nothing, so it goes first; the domain
	// becomes the client's revocation handler once it exists.
	memc, err := sys.Frames.Admit(id, ct, nil)
	if err != nil {
		sys.TS.DestroyProtectionDomain(pd)
		return nil, err
	}
	cpuDom, err := sys.CPU.Admit(name, cpuQoS)
	if err != nil {
		sys.Frames.Remove(id)
		sys.TS.DestroyProtectionDomain(pd)
		return nil, err
	}
	dom := domain.New(sys.env, id, name, pd, cpuDom, memc)
	memc.SetHandler(dom)
	memc.SetTelemetryName(name)
	sys.domains[id] = dom
	sys.nextID++
	sys.tracker.Register(dom)
	if sys.recorder != nil {
		sys.trackDomain(sys.recorder, dom)
	}
	return dom, nil
}

// Domain returns a domain by id, or nil.
func (sys *System) Domain(id mem.DomainID) *domain.Domain { return sys.domains[id] }

// Domains returns all live domains (including killed ones, until removed).
func (sys *System) Domains() []*domain.Domain {
	out := make([]*domain.Domain, 0, len(sys.domains))
	for id := mem.DomainID(1); id < sys.nextID; id++ {
		if d, ok := sys.domains[id]; ok {
			out = append(out, d)
		}
	}
	return out
}

// StretchKind selects the driver family a PagerSpec builds. The zero value
// names no kind, so a spec without one is rejected.
type StretchKind int

const (
	KindPaged StretchKind = iota + 1
	KindStreaming
	KindPhysical
	KindNailed
	KindMapped
)

// PagerSpec describes a stretch plus the self-pager that backs it: the
// driver family, the swap or file backing, the disk contracts, and the
// composable engine policies (replacement, writeback, write clustering).
// The zero value of every policy field is the paper's driver: FIFO
// replacement, demand writeback, no clustering.
type PagerSpec struct {
	// Size is the stretch size in bytes. For mapped stretches, zero means
	// "the whole file".
	Size uint64
	// Kind picks the driver family.
	Kind StretchKind

	// Policy, Writeback and ClusterSize parameterise the pager engine
	// (paged, streaming and mapped kinds).
	Policy      stretchdrv.PolicyKind
	Writeback   stretchdrv.WritebackKind
	ClusterSize int

	// SwapBytes and DiskQoS size and contract the swap file (paged,
	// streaming). For BackingTiered they size the local tier.
	SwapBytes int64
	DiskQoS   atropos.QoS

	// Backing selects where a paged stretch cleans to: the local swap
	// file (default), the remote swap server, or the tiered composition
	// of both. Non-default values build the system's netswap fabric on
	// first use, and the client takes its RPC and tiering options from
	// the fabric's config (Config.NetSwap).
	Backing BackingKind

	// Window and PrefetchQoS configure the streaming driver's read-ahead
	// pipeline.
	Window      int
	PrefetchQoS atropos.QoS

	// File is the backing file for a mapped stretch.
	File *sfs.SwapFile

	// Thread is the calling thread for a nailed stretch (frame allocation
	// may involve revocation waits, so it must run with activations on).
	Thread *domain.Thread
}

// BackingKind selects a paged stretch's backing store.
type BackingKind string

const (
	// BackingSwap pages to a local swap file (the default).
	BackingSwap BackingKind = ""
	// BackingRemote pages to the remote swap server over the netswap
	// fabric's link.
	BackingRemote BackingKind = "remote"
	// BackingTiered pages to a small local swap tier backed by the large
	// remote store (demote-on-clean / promote-on-fault, degrading to the
	// local tier when the remote misses its deadline budget).
	BackingTiered BackingKind = "tiered"
)

// engineOpts extracts the pager-engine options from the spec.
func (spec PagerSpec) engineOpts() stretchdrv.PagerOptions {
	return stretchdrv.PagerOptions{
		Policy:      spec.Policy,
		Writeback:   spec.Writeback,
		ClusterSize: spec.ClusterSize,
	}
}

// NewStretch is the single stretch builder: it allocates a stretch for dom
// and binds the driver the spec describes. The five historical constructors
// (NewPagedStretch and friends) are one-line wrappers over it. The returned
// driver is the concrete *stretchdrv type behind the domain.Driver
// interface. A rejected spec leaves nothing behind: what the spec alone
// decides is checked before the stretch exists, and a backing that fails
// afterwards gives back the stretch and any swap file it made.
func (sys *System) NewStretch(dom *domain.Domain, spec PagerSpec) (*vm.Stretch, domain.Driver, error) {
	size, err := spec.check(dom)
	if err != nil {
		return nil, nil, err
	}
	st, err := dom.NewStretch(size)
	if err != nil {
		return nil, nil, err
	}
	drv, err := sys.bind(dom, st, spec)
	if err != nil {
		// Destroy refuses a stretch with a page still mapped, and a failed
		// bind maps none: a nailed one gives back the frames it took.
		if sys.SA.Destroy(st) == nil {
			sys.TS.GrantInitial(dom.PD(), st.ID(), 0)
			dom.Unbind(st.ID())
		}
		return nil, nil, err
	}
	return st, drv, nil
}

// check rejects what the spec alone decides is wrong, before NewStretch
// allocates anything, and returns the size of the stretch to allocate.
func (spec PagerSpec) check(dom *domain.Domain) (uint64, error) {
	size := spec.Size
	switch spec.Kind {
	case KindPaged, KindStreaming:
		if spec.Kind == KindStreaming && spec.Backing != BackingSwap {
			return 0, fmt.Errorf("core: streaming stretches need a local swap backing, not %q", spec.Backing)
		}
		switch spec.Backing {
		case BackingSwap, BackingRemote:
		case BackingTiered:
			if spec.SwapBytes <= 0 {
				return 0, fmt.Errorf("core: tiered backing needs SwapBytes to size the local tier")
			}
		default:
			return 0, fmt.Errorf("core: unknown backing kind %q", spec.Backing)
		}

	case KindPhysical:
		return size, nil

	case KindNailed:
		t := spec.Thread
		if t == nil {
			return 0, fmt.Errorf("core: nailed stretch needs PagerSpec.Thread")
		}
		if t.Domain() != dom {
			return 0, fmt.Errorf("core: PagerSpec.Thread belongs to %q, not %q", t.Domain().Name(), dom.Name())
		}
		return size, nil

	case KindMapped:
		if spec.File == nil {
			return 0, fmt.Errorf("core: mapped stretch needs PagerSpec.File")
		}
		fileBytes := uint64(spec.File.Blocks()) * disk.BlockSize
		if size == 0 {
			size = fileBytes
		}
		if pages := (size + vm.PageSize - 1) / vm.PageSize; fileBytes < pages*vm.PageSize {
			return 0, fmt.Errorf("core: file %q (%d bytes) smaller than a %d-page stretch", spec.File.Name(), fileBytes, pages)
		}

	default:
		return 0, fmt.Errorf("core: PagerSpec.Kind %d names no stretch kind", spec.Kind)
	}
	// The pager kinds build an engine: its policies must exist.
	if _, err := stretchdrv.NewPolicy(spec.Policy); err != nil {
		return 0, err
	}
	if _, err := stretchdrv.NewWriteback(spec.Writeback); err != nil {
		return 0, err
	}
	return size, nil
}

// bind builds the driver a checked spec describes over st, and binds it.
func (sys *System) bind(dom *domain.Domain, st *vm.Stretch, spec PagerSpec) (domain.Driver, error) {
	switch spec.Kind {
	case KindPaged:
		return sys.newPaged(dom, st, spec)

	case KindStreaming:
		paged, err := sys.newPaged(dom, st, spec)
		if err != nil {
			return nil, err
		}
		window := max(spec.Window, 1)
		pfCh, err := sys.SFS.OpenAlias(paged.Swap(), paged.Swap().Name()+"-pf", spec.PrefetchQoS, window)
		if err != nil {
			sys.SFS.DeleteSwapFile(paged.Swap().Name())
			return nil, err
		}
		return stretchdrv.NewStreaming(dom, paged, pfCh, window), nil

	case KindPhysical:
		return stretchdrv.NewPhysical(dom, st), nil

	case KindNailed:
		return stretchdrv.BindNailed(spec.Thread.Proc(), dom, st)

	default: // KindMapped
		return stretchdrv.NewMapped(dom, st, spec.File, spec.engineOpts())
	}
}

// EnableNetSwap builds the remote-paging fabric (if not yet built) from
// Config.NetSwap or the defaults, and returns it. Remote and tiered
// stretches call it implicitly.
func (sys *System) EnableNetSwap() (*netswap.Fabric, error) {
	if sys.NetSwap != nil {
		return sys.NetSwap, nil
	}
	cfg := netswap.DefaultConfig()
	if sys.Config.NetSwap != nil {
		cfg = *sys.Config.NetSwap
	}
	fab, err := netswap.New(sys.Sim, sys.Obs, cfg)
	if err != nil {
		return nil, err
	}
	sys.NetSwap = fab
	return fab, nil
}

// newPaged builds the backing and paged driver of a checked spec over st
// (the shared base of the paged and streaming kinds). Local swap files use
// pipeline depth 1, as pagers cannot pipeline; remote backings pipeline
// through their RPC window instead.
func (sys *System) newPaged(dom *domain.Domain, st *vm.Stretch, spec PagerSpec) (*stretchdrv.Paged, error) {
	newSwap := func() (*stretchdrv.SwapBacking, error) {
		swapName := fmt.Sprintf("%s-swap-%d", dom.Name(), st.ID())
		swap, err := sys.SFS.CreateSwapFile(swapName, spec.SwapBytes, spec.DiskQoS, 1)
		if err != nil {
			return nil, err
		}
		return stretchdrv.NewSwapBacking(swap), nil
	}
	newRemote := func() (*netswap.RemoteBacking, error) {
		fab, err := sys.EnableNetSwap()
		if err != nil {
			return nil, err
		}
		client := fmt.Sprintf("%s-net-%d", dom.Name(), st.ID())
		return fab.NewRemoteBacking(client, dom.Name())
	}

	var backing stretchdrv.Backing
	switch spec.Backing {
	case BackingSwap:
		b, err := newSwap()
		if err != nil {
			return nil, err
		}
		backing = b

	case BackingRemote:
		b, err := newRemote()
		if err != nil {
			return nil, err
		}
		backing = b

	default: // BackingTiered
		local, err := newSwap()
		if err != nil {
			return nil, err
		}
		remote, err := newRemote()
		if err != nil {
			sys.SFS.DeleteSwapFile(local.File().Name())
			return nil, err
		}
		backing = netswap.NewTieredBacking(sys.Sim, sys.Obs, local, remote, dom.Name(), sys.NetSwap.Config().Tiered)
	}
	return stretchdrv.NewPaged(dom, st, backing, spec.engineOpts())
}

// NewPagedStretch allocates a stretch of size bytes for dom, creates a swap
// file of swapBytes with disk QoS q, and binds a paged stretch driver with
// default policies.
func (sys *System) NewPagedStretch(dom *domain.Domain, size uint64, swapBytes int64, q atropos.QoS) (*vm.Stretch, *stretchdrv.Paged, error) {
	st, drv, err := sys.NewStretch(dom, PagerSpec{Kind: KindPaged, Size: size, SwapBytes: swapBytes, DiskQoS: q})
	if err != nil {
		return nil, nil, err
	}
	return st, drv.(*stretchdrv.Paged), nil
}

// NewStreamingStretch allocates a stretch backed by a stream-paging driver:
// a paged stretch driver plus a prefetch pipeline of the given window depth
// on a second IO channel (contract prefetchQ) over the same swap file.
func (sys *System) NewStreamingStretch(dom *domain.Domain, size uint64, swapBytes int64, demandQ, prefetchQ atropos.QoS, window int) (*vm.Stretch, *stretchdrv.Streaming, error) {
	st, drv, err := sys.NewStretch(dom, PagerSpec{Kind: KindStreaming, Size: size, SwapBytes: swapBytes, DiskQoS: demandQ, PrefetchQoS: prefetchQ, Window: window})
	if err != nil {
		return nil, nil, err
	}
	return st, drv.(*stretchdrv.Streaming), nil
}

// NewPhysicalStretch allocates a stretch backed by a physical stretch
// driver (demand-zero, no backing store).
func (sys *System) NewPhysicalStretch(dom *domain.Domain, size uint64) (*vm.Stretch, *stretchdrv.Physical, error) {
	st, drv, err := sys.NewStretch(dom, PagerSpec{Kind: KindPhysical, Size: size})
	if err != nil {
		return nil, nil, err
	}
	return st, drv.(*stretchdrv.Physical), nil
}

// NewNailedStretch allocates a stretch fully backed and pinned at bind
// time. It must be called from a thread (it allocates frames, which may
// involve revocation waits).
func (sys *System) NewNailedStretch(t *domain.Thread, size uint64) (*vm.Stretch, *stretchdrv.Nailed, error) {
	st, drv, err := sys.NewStretch(t.Domain(), PagerSpec{Kind: KindNailed, Size: size, Thread: t})
	if err != nil {
		return nil, nil, err
	}
	return st, drv.(*stretchdrv.Nailed), nil
}

// NewMappedFileStretch maps an SFS file into a fresh stretch of dom (the
// memory-mapped-file path): faults demand-read the file, evictions and
// Sync write dirty pages back, all under the file's own disk contract.
func (sys *System) NewMappedFileStretch(dom *domain.Domain, file *sfs.SwapFile) (*vm.Stretch, *stretchdrv.Mapped, error) {
	st, drv, err := sys.NewStretch(dom, PagerSpec{Kind: KindMapped, File: file})
	if err != nil {
		return nil, nil, err
	}
	return st, drv.(*stretchdrv.Mapped), nil
}

// ShareStretch grants another domain's protection domain rights on a
// stretch the owner holds meta on — the single-address-space sharing the
// paper relies on for "widespread sharing of text". The grantee does not
// acquire a stretch-driver binding: sharing is intended for resident
// (nailed) stretches, where the grantee never faults; a page fault taken by
// the grantee on someone else's stretch is fatal to the grantee, exactly as
// the no-safety-net rule prescribes.
func (sys *System) ShareStretch(owner *domain.Domain, st *vm.Stretch, with *domain.Domain, r vm.Rights) error {
	_, err := sys.TS.SetRights(owner.PD(), with.PD(), st.ID(), r)
	return err
}

// PreallocateFrames acquires n frames for the calling thread's domain — the
// initialisation pattern time-sensitive applications use so they never wait
// on revocation later.
func PreallocateFrames(t *domain.Thread, n int) error {
	for i := 0; i < n; i++ {
		if _, err := t.Domain().MemClient().AllocFrame(t.Proc()); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the simulation by d. A process panic arrives as a
// *sim.ProcPanic: Run unwinds every other process with Shutdown, so a caller
// that recovers the panic leaks no parked goroutine, and re-raises it. The
// world is unusable after that.
func (sys *System) Run(d time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*sim.ProcPanic); ok {
				sys.Sim.Shutdown()
			}
			panic(r)
		}
	}()
	sys.Sim.RunFor(d)
}

// RunUntilIdle drains the event queue (bounded by maxEvents).
func (sys *System) RunUntilIdle(maxEvents int) { sys.Sim.RunUntilIdle(maxEvents) }

// CheckAttribution asserts the attribution conservation invariant — every
// domain's accounts sum exactly to its elapsed sim time — returning the
// first violation, or nil (also nil when telemetry is off).
func (sys *System) CheckAttribution() error {
	return sys.Obs.Attr().CheckConservation()
}

// WriteAttributionFolded renders the per-domain attribution as folded
// stacks (`domain;state[;hop] microseconds`), the input format of standard
// flamegraph tools. Requires Config.Telemetry.
func (sys *System) WriteAttributionFolded(w io.Writer) error {
	if sys.Obs == nil || sys.Obs.Attr() == nil {
		return fmt.Errorf("core: attribution requires telemetry (Config.Telemetry)")
	}
	return sys.Obs.Attr().WriteFolded(w)
}

// AttributionProfiles snapshots every domain's attribution in admission
// order (nil when telemetry is off).
func (sys *System) AttributionProfiles() []obs.DomainProfile {
	return sys.Obs.Attr().Profiles()
}

// Shutdown stops background service loops (the USD, the crosstalk monitor
// and the netswap server, if running) so RunUntilIdle terminates.
func (sys *System) Shutdown() {
	if ShutdownHook != nil {
		ShutdownHook(sys)
	}
	if sys.recorder != nil {
		sys.recorder.Stop()
	}
	if sys.monitor != nil {
		sys.monitor.Stop()
	}
	if sys.NetSwap != nil {
		sys.NetSwap.Stop()
	}
	sys.USD.Stop()
	// Unwind every remaining process goroutine. Experiment results are read
	// before or during Shutdown, and killed processes execute no further
	// workload, so this cannot perturb any measurement — it only returns the
	// goroutines a finished simulation would otherwise park forever.
	sys.Sim.Shutdown()
}
