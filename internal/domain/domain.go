// Package domain implements the application side of self-paging: domains
// (the Nemesis analogue of processes), their user-level threads, the
// memory-management entry (MMEntry: a notification handler plus worker
// threads), custom fault handlers, and the revocation protocol's
// application half. Every domain deals with all of its own memory faults
// using its own CPU guarantee, its own physical frames and its own backing
// store — the kernel's only involvement is the dispatch.
package domain

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"nemesis/internal/cpu"
	"nemesis/internal/fault"
	"nemesis/internal/mem"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// Errors returned by domain operations.
var (
	ErrKilled   = errors.New("domain: killed")
	ErrNoDriver = errors.New("domain: no stretch driver bound")
	ErrFaulted  = errors.New("domain: unresolvable fault")
	ErrNotBound = errors.New("domain: address not in any stretch")
)

// Result is a stretch driver's verdict on a fault-resolution attempt.
type Result uint8

const (
	// Success: the fault is resolved; the faulting thread may continue.
	Success Result = iota
	// Retry: the fast path could not proceed (it would need IDC); a
	// worker thread must retry with activations on.
	Retry
	// Failure: the fault cannot be resolved; the thread (and domain)
	// have no safety net.
	Failure
)

func (r Result) String() string {
	switch r {
	case Success:
		return "success"
	case Retry:
		return "retry"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("result(%d)", r)
	}
}

// Driver is a stretch driver: the unprivileged, application-level object
// responsible for providing backing for the stretches bound to it.
type Driver interface {
	// SatisfyFault attempts to resolve f. canIDC distinguishes the
	// limited notification-handler environment (false: no inter-domain
	// communication) from worker-thread context (true).
	SatisfyFault(p *sim.Proc, f *vm.Fault, canIDC bool) Result
	// Relinquish releases up to k frames back to the domain's unused
	// pool (cleaning dirty pages as needed), returning how many were
	// freed. Used when handling a revocation notification.
	Relinquish(p *sim.Proc, k int) int
	// DriverName identifies the driver for diagnostics.
	DriverName() string
}

// FaultHandler is an application-installed override for one fault class
// (the appel benchmarks override the access-violation fault type). It runs
// in activation-handler context; returning true marks the fault resolved.
type FaultHandler func(t *Thread, f *vm.Fault) bool

// Env carries the system-wide pieces a domain needs. A system builds one
// and every domain in it holds a pointer to it.
type Env struct {
	Sim    *sim.Simulator
	TS     *vm.TranslationSystem
	SA     *vm.StretchAllocator
	Store  *mem.FrameStore
	RamTab *mem.RamTab
	Costs  cpu.Costs
	// Obs is the telemetry registry; nil disables all instrumentation at
	// zero cost (every obs handle method is nil-safe).
	Obs *obs.Registry
}

// Stats counts a domain's memory-system activity.
type Stats struct {
	Faults        int64
	PageFaults    int64
	ProtFaults    int64
	UnallocFaults int64
	FastPath      int64 // faults resolved in the notification handler
	WorkerPath    int64 // faults needing a worker thread
	Revocations   int64
	BytesTouched  int64
}

// Domain is one application: a protection domain, a CPU contract, a frames
// allocator client, a set of stretch-driver bindings and some threads.
type Domain struct {
	env  *Env
	id   mem.DomainID
	name string

	pd   *vm.ProtectionDomain
	cpu  *cpu.DomainCPU
	memc *mem.Client

	// bindings holds the stretch-driver bindings in stretch-id order. A
	// domain binds a handful of stretches, so a search of the slice finds
	// one without a map.
	bindings []Binding
	// handlers is nil until SetFaultHandler installs a handler: most
	// domains never do.
	handlers map[vm.FaultClass]FaultHandler

	faultEvent  fault.Event
	revokeEvent fault.Event

	mm      *MMEntry
	threads []*Thread
	killed  bool
	stats   Stats

	// num is the domain's telemetry identity in Env.Obs (zero without
	// telemetry): its fault spans and its attribution account are found by
	// it. The cached handles are nil when Env.Obs is nil → no-ops, and the
	// fault fast path stays allocation-free.
	num          obs.DomainNum
	cFaults      *obs.Counter
	cFast        *obs.Counter
	cWorker      *obs.Counter
	cRevocations *obs.Counter

	// Activity tracking for the crosstalk monitor (nil tracker
	// → markActive is a no-op).
	tracker    *ActivityTracker
	trackOrder int64
	trackFresh bool
	trackDirty bool
}

// New creates a domain in the system whose environment is env. pd/cpuDom/
// memc come from the system facade, which admitted the domain with the
// system-wide allocators.
func New(env *Env, id mem.DomainID, name string, pd *vm.ProtectionDomain, cpuDom *cpu.DomainCPU, memc *mem.Client) *Domain {
	d := &Domain{
		env:  env,
		id:   id,
		name: name,
		pd:   pd,
		cpu:  cpuDom,
		memc: memc,
	}
	if env.Obs != nil {
		d.num = env.Obs.DomainNum(name)
		d.cFaults = env.Obs.Counter("domain", "faults", name)
		d.cFast = env.Obs.Counter("domain", "faults_fast", name)
		d.cWorker = env.Obs.Counter("domain", "faults_worker", name)
		d.cRevocations = env.Obs.Counter("domain", "revocations", name)
	}
	d.mm = newMMEntry(d)
	return d
}

// ID returns the domain identifier.
func (d *Domain) ID() mem.DomainID { return d.id }

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// TelemetryNum returns the domain's number in its telemetry registry (zero
// without telemetry).
func (d *Domain) TelemetryNum() obs.DomainNum { return d.num }

// PD returns the domain's protection domain.
func (d *Domain) PD() *vm.ProtectionDomain { return d.pd }

// CPU returns the domain's processor handle.
func (d *Domain) CPU() *cpu.DomainCPU { return d.cpu }

// MemClient returns the domain's frames-allocator client.
func (d *Domain) MemClient() *mem.Client { return d.memc }

// Env returns the system environment, shared by every domain of the system.
func (d *Domain) Env() *Env { return d.env }

// Stats returns a copy of the counters.
func (d *Domain) Stats() Stats { return d.stats }

// Killed reports whether the domain has been destroyed.
func (d *Domain) Killed() bool { return d.killed }

// FaultEventValue returns the fault endpoint's event count.
func (d *Domain) FaultEventValue() uint64 { return d.faultEvent.Value() }

// NewStretch allocates a stretch owned by this domain and grants the
// domain's protection domain full rights (including meta) on it.
func (d *Domain) NewStretch(size uint64) (*vm.Stretch, error) {
	st, err := d.env.SA.New(d.id, size)
	if err != nil {
		return nil, err
	}
	d.env.TS.GrantInitial(d.pd, st.ID(), vm.Read|vm.Write|vm.Execute|vm.Meta)
	return st, nil
}

// binding returns where sid's binding is, or would be inserted, in
// d.bindings, and whether it is there.
func (d *Domain) binding(sid vm.StretchID) (int, bool) {
	return slices.BinarySearchFunc(d.bindings, sid, func(b Binding, sid vm.StretchID) int {
		return cmp.Compare(b.SID, sid)
	})
}

// Bind associates a stretch with a stretch driver: only then is it
// meaningful to talk about the stretch's contents. Binding a bound stretch
// again replaces its driver.
func (d *Domain) Bind(st *vm.Stretch, drv Driver) {
	i, ok := d.binding(st.ID())
	if ok {
		d.bindings[i].Driver = drv
		return
	}
	d.bindings = slices.Insert(d.bindings, i, Binding{SID: st.ID(), Driver: drv})
}

// Unbind drops a stretch's driver binding: the system gives back a stretch
// whose construction failed after its driver was bound.
func (d *Domain) Unbind(sid vm.StretchID) {
	if i, ok := d.binding(sid); ok {
		d.bindings = slices.Delete(d.bindings, i, i+1)
	}
}

// DriverFor returns the driver bound to a stretch, or nil.
func (d *Domain) DriverFor(sid vm.StretchID) Driver {
	if i, ok := d.binding(sid); ok {
		return d.bindings[i].Driver
	}
	return nil
}

// ResidentPages sums the resident page counts of every bound stretch driver
// that reports one (the pager engines do). The timeline recorder samples it
// as the domain's paging working set.
func (d *Domain) ResidentPages() int {
	total := 0
	for _, b := range d.bindings {
		if rp, ok := b.Driver.(interface{ ResidentPages() int }); ok {
			total += rp.ResidentPages()
		}
	}
	return total
}

// SetFaultHandler installs a custom handler for one fault class,
// overriding the default dispatch (kill for protection/unallocated faults,
// stretch-driver resolution for page faults). A nil h removes the class's
// handler.
func (d *Domain) SetFaultHandler(c vm.FaultClass, h FaultHandler) {
	if h == nil {
		delete(d.handlers, c)
		return
	}
	if d.handlers == nil {
		d.handlers = make(map[vm.FaultClass]FaultHandler)
	}
	d.handlers[c] = h
}

// Kill destroys the domain: all threads and workers unwind, and no further
// faults are serviceable. Frames are reclaimed by the frames allocator
// (whose kill path invokes this).
func (d *Domain) Kill() {
	if d.killed {
		return
	}
	d.killed = true
	// A killed domain's faulting threads unwind without finishing their
	// spans and its CPU waiters never report back; close its attribution
	// accounting at the kill instant so time stays conserved.
	d.env.Obs.Attr().DomainKilled(d.num)
	d.mm.kill()
	// Kill the calling thread (if any) last: Proc.Kill on the running
	// process unwinds immediately, which would skip the remaining ones.
	var self *Thread
	for _, t := range d.threads {
		if t.proc == nil {
			continue
		}
		if t.proc == d.env.Sim.Current() {
			self = t
			continue
		}
		t.proc.Kill()
	}
	if self != nil {
		self.proc.Kill()
	}
}

// Go spawns a user-level thread executing fn.
func (d *Domain) Go(name string, fn func(t *Thread)) *Thread {
	t := &Thread{dom: d, name: name}
	d.threads = append(d.threads, t)
	t.proc = d.env.Sim.Spawn(d.name+"/"+name, func(p *sim.Proc) {
		t.proc = p
		defer t.done.Broadcast()
		fn(t)
	})
	return t
}

// RevokeNotification implements mem.RevocationHandler: the frames allocator
// needs k frames from the top of our stack by deadline. The notification
// handler cannot do the cleaning itself (it may require IDC to the USD), so
// it unblocks the MMEntry's worker.
func (d *Domain) RevokeNotification(k int, deadline sim.Time) {
	if d.killed {
		return
	}
	d.revokeEvent.Send()
	d.stats.Revocations++
	d.markActive()
	d.cRevocations.Inc()
	d.mm.enqueueRevocation(k)
}

// dispatchFault is the kernel + activation path for a fault raised by t.
// It blocks t until the fault is resolved, and returns an error if the
// domain has no way to resolve it.
func (d *Domain) dispatchFault(t *Thread, f *vm.Fault) error {
	if d.killed {
		return ErrKilled
	}
	d.stats.Faults++
	d.markActive()
	switch f.Class {
	case vm.PageFault:
		d.stats.PageFaults++
	case vm.ProtectionFault:
		d.stats.ProtFaults++
	case vm.UnallocatedFault:
		d.stats.UnallocFaults++
	}
	d.cFaults.Inc()

	// Kernel part: save the activation context, hand the fault to the
	// application and send an event to the faulting domain — then the
	// kernel is done. The span opens here: hop "dispatch" covers the trap
	// and activation delivery.
	sp := d.env.Obs.StartSpan(d.num, f.Class.String())
	sp.SetThread(t.name)
	sp.BeginHop("dispatch")
	f.Span = sp
	d.faultEvent.Send()
	t.Compute(d.env.Costs.TrapCost())

	// The domain is activated and its notification handler demultiplexes
	// the event (charged as part of the user fault path below). Hop
	// "mmentry" covers the handler up to driver (or handler) entry.
	sp.BeginHop("mmentry")
	if h, ok := d.handlers[f.Class]; ok {
		t.Compute(d.env.Costs.UserFaultPath)
		if h(t, f) {
			sp.Finish("handler")
			return nil
		}
		sp.Finish("fatal")
		return fmt.Errorf("%w: handler declined %v", ErrFaulted, f)
	}

	if f.Class != vm.PageFault {
		// No safety net: an unhandled protection or unallocated fault is
		// fatal to the domain.
		sp.Finish("fatal")
		d.Kill()
		return fmt.Errorf("%w: %v", ErrFaulted, f)
	}

	drv := d.DriverFor(f.SID)
	if drv == nil {
		sp.Finish("fatal")
		d.Kill()
		return fmt.Errorf("%w: stretch %d", ErrNoDriver, f.SID)
	}

	// Fast path: the notification handler invokes the stretch driver in
	// its limited environment (no IDC).
	t.Compute(d.env.Costs.UserFaultPath)
	switch drv.SatisfyFault(t.proc, f, false) {
	case Success:
		d.stats.FastPath++
		d.cFast.Inc()
		sp.Finish("fast")
		return nil
	case Failure:
		sp.Finish("fatal")
		d.Kill()
		return fmt.Errorf("%w: %v", ErrFaulted, f)
	}

	// Retry: block the faulting thread and let a worker, with
	// activations on, resolve the fault (IDC permitted). Hop "queue"
	// covers the wait until the worker invokes the driver.
	d.stats.WorkerPath++
	d.cWorker.Inc()
	sp.BeginHop("queue")
	ok := d.mm.resolve(t.proc, f)
	if !ok {
		sp.Finish("fatal")
		d.Kill()
		return fmt.Errorf("%w: worker failed on %v", ErrFaulted, f)
	}
	sp.Finish("worker")
	return nil
}
