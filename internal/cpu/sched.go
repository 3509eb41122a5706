package cpu

import (
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// Scheduler multiplexes one processor among domains using the same Atropos
// core as the USD. Domains consume CPU through DomainCPU.Compute, which
// serialises execution: while one domain computes, others wait. Slack time
// is handed round-robin to x=true clients, so a lightly loaded machine runs
// everything and contracts only bind under contention.
type Scheduler struct {
	sim   *sim.Simulator
	core  *atropos.Core
	Costs Costs

	// Obs, when set before domains are admitted, is the registry whose
	// sim-time attribution profiler (if enabled) the scheduler feeds with
	// wait/run/yield transitions. Nil costs nothing: the per-domain
	// handle's methods are no-ops on nil.
	Obs *obs.Registry

	busy    bool
	pending int // waiting threads across all domains
	timer   sim.Timer

	// Pre-bound callback: schedule runs on every quantum of every computing
	// domain, and a method value created at the call site would allocate
	// each time.
	scheduleFn func()
}

// waiter is a domain's scheduler record, linked from its Atropos client.
type waiter struct {
	cond    sim.Cond
	pending int
}

// DomainCPU is one domain's handle on the processor.
type DomainCPU struct {
	s    *Scheduler
	ac   *atropos.Client
	name string
	w    *waiter         // ac.Rec, resolved once
	attr *obs.DomainAttr // attribution handle, nil without telemetry
}

// NewScheduler creates a CPU scheduler on s.
func NewScheduler(s *sim.Simulator) *Scheduler {
	sc := &Scheduler{
		sim:   s,
		core:  atropos.NewCore(1.0),
		Costs: DefaultCosts(),
	}
	sc.scheduleFn = sc.schedule
	return sc
}

// Admit registers a domain with CPU contract q.
func (s *Scheduler) Admit(name string, q atropos.QoS) (*DomainCPU, error) {
	ac, err := s.core.Admit(name, q, s.sim.Now())
	if err != nil {
		return nil, err
	}
	w := &waiter{}
	ac.Rec = w
	d := &DomainCPU{s: s, ac: ac, name: name, w: w}
	if a := s.Obs.Attr(); a != nil {
		d.attr = a.Track(s.Obs.DomainNum(name))
	}
	return d, nil
}

// Remove deregisters a domain.
func (s *Scheduler) Remove(name string) error {
	ac := s.core.Lookup(name)
	if err := s.core.Remove(name); err != nil {
		return err
	}
	s.pending -= ac.Rec.(*waiter).pending
	return nil
}

// Contracted returns the admitted CPU share.
func (s *Scheduler) Contracted() float64 { return s.core.Contracted() }

// Name returns the domain's scheduler name.
func (d *DomainCPU) Name() string { return d.name }

// Charged returns total CPU time charged to the domain.
func (d *DomainCPU) Charged() time.Duration { return d.ac.Charged() }

// schedule grants the CPU to the best waiter, if the CPU is idle. Called
// whenever scheduler state changes. Work availability is mirrored into the
// core's ready set by acquire, so the picks run off the readiness index
// instead of scanning every admitted client with a has-waiter predicate.
func (s *Scheduler) schedule() {
	if s.busy {
		return
	}
	s.core.Refresh(s.sim.Now())
	pick := s.core.PickEDFReady()
	if pick == nil {
		// Slack: hand idle CPU to any x=true waiter round-robin.
		pick = s.core.PickSlackReady()
	}
	if pick == nil {
		// Nothing runnable now; if threads are waiting on exhausted
		// slices, wake up at the next period boundary.
		if s.pending > 0 {
			if b, ok := s.core.NextBoundary(); ok {
				s.timer.Stop()
				s.timer = s.sim.At(b, s.scheduleFn)
			}
		}
		return
	}
	s.busy = true
	pick.Rec.(*waiter).cond.Signal()
}

// acquire blocks p until the CPU is granted to domain d.
func (s *Scheduler) acquire(p *sim.Proc, d *DomainCPU) {
	w := d.w
	w.pending++
	s.pending++
	if w.pending == 1 {
		s.core.SetReady(d.ac, true)
	}
	d.attr.CPUWait()
	s.sim.At(s.sim.Now(), s.scheduleFn)
	w.cond.Wait(p)
	w.pending--
	s.pending--
	if w.pending == 0 {
		s.core.SetReady(d.ac, false)
	}
	d.attr.CPURun()
}

// release charges the consumed quantum and reschedules.
func (s *Scheduler) release(d *DomainCPU, used time.Duration) {
	d.attr.CPUYield()
	s.core.Charge(d.ac, used)
	s.busy = false
	s.sim.At(s.sim.Now(), s.scheduleFn)
}

// quantum bounds a single uninterrupted hold of the CPU, so a long
// computation cannot block higher-urgency domains past one quantum.
const quantum = time.Millisecond

// Compute consumes dur of CPU time on behalf of the domain, blocking p for
// at least dur of simulated time (longer under contention). Zero and
// negative durations return immediately.
func (d *DomainCPU) Compute(p *sim.Proc, dur time.Duration) {
	for dur > 0 {
		d.s.acquire(p, d)
		q := dur
		if q > quantum {
			q = quantum
		}
		p.Sleep(q)
		d.s.release(d, q)
		dur -= q
	}
}
