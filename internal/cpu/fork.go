package cpu

import (
	"fmt"

	"nemesis/internal/sim"
)

// Fork returns a deep copy of the scheduler on the forked simulator ns. A
// forked world has no telemetry, so the copy has no attribution sink. Each
// forked Atropos client links a fresh waiter, which AdoptHandle binds into
// the domain's forked CPU handle. Fork also returns the sequence numbers of
// any re-armed boundary timer so the snapshot orchestrator can account for
// every pending event.
//
// The fork point must be a quiesced instant: no thread may hold or be waiting
// for the CPU. (A boundary wake-up timer may still be pending — schedule()
// never cancels one once runnable work appears — and is re-armed verbatim.)
func (s *Scheduler) Fork(ns *sim.Simulator) (*Scheduler, []uint64, error) {
	if s.busy {
		return nil, nil, fmt.Errorf("cpu: cannot fork while a domain holds the CPU")
	}
	if s.pending != 0 {
		return nil, nil, fmt.Errorf("cpu: cannot fork with %d threads waiting for the CPU", s.pending)
	}
	core, _ := s.core.Fork()
	nsch := &Scheduler{
		sim:   ns,
		core:  core,
		Costs: s.Costs,
	}
	nsch.scheduleFn = nsch.schedule
	for _, ac := range core.Clients() {
		ac.Rec = &waiter{}
	}
	var claimed []uint64
	if at, seq, ok := s.timer.When(); ok {
		nsch.timer = ns.RestoreAt(at, seq, nsch.scheduleFn)
		claimed = append(claimed, seq)
	}
	return nsch, claimed, nil
}

// AdoptHandle returns the forked twin of a parent-side DomainCPU: the same
// name and admission, bound to the forked scheduler's Atropos client of that
// name and its waiter.
func (s *Scheduler) AdoptHandle(pd *DomainCPU) (*DomainCPU, error) {
	ac := s.core.Lookup(pd.name)
	if ac == nil {
		return nil, fmt.Errorf("cpu: AdoptHandle: domain %q not admitted in fork", pd.name)
	}
	return &DomainCPU{s: s, ac: ac, name: pd.name, w: ac.Rec.(*waiter)}, nil
}
