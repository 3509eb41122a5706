package cpu

import (
	"fmt"

	"nemesis/internal/atropos"
	"nemesis/internal/sim"
)

// Fork returns a deep copy of the scheduler on the forked simulator ns. A
// forked world has no telemetry, so the copy has no attribution sink. It
// also returns the Atropos client identity map (parent client → forked client),
// which AdoptHandle uses to re-point per-domain CPU handles, and the sequence
// numbers of any re-armed boundary timer so the snapshot orchestrator can
// account for every pending event.
//
// The fork point must be a quiesced instant: no thread may hold or be waiting
// for the CPU. (A boundary wake-up timer may still be pending — schedule()
// never cancels one once runnable work appears — and is re-armed verbatim.)
func (s *Scheduler) Fork(ns *sim.Simulator) (*Scheduler, map[*atropos.Client]*atropos.Client, []uint64, error) {
	if s.busy {
		return nil, nil, nil, fmt.Errorf("cpu: cannot fork while a domain holds the CPU")
	}
	if s.pending != 0 {
		return nil, nil, nil, fmt.Errorf("cpu: cannot fork with %d threads waiting for the CPU", s.pending)
	}
	core, m := s.core.Fork()
	nsch := &Scheduler{
		sim:     ns,
		core:    core,
		Costs:   s.Costs,
		waiters: make(map[string]*waiter, len(s.waiters)),
		order:   append([]string(nil), s.order...),
	}
	nsch.scheduleFn = nsch.schedule
	for name := range s.waiters {
		nsch.waiters[name] = &waiter{cond: sim.NewCond(ns)}
	}
	var claimed []uint64
	if at, seq, ok := s.timer.When(); ok {
		nsch.timer = ns.RestoreAt(at, seq, nsch.scheduleFn)
		claimed = append(claimed, seq)
	}
	return nsch, m, claimed, nil
}

// AdoptHandle returns the forked twin of a parent-side DomainCPU: the same
// name and admission, bound to the forked scheduler's waiter and the forked
// Atropos client from the map Fork returned.
func (s *Scheduler) AdoptHandle(pd *DomainCPU, m map[*atropos.Client]*atropos.Client) (*DomainCPU, error) {
	w := s.waiters[pd.name]
	if w == nil {
		return nil, fmt.Errorf("cpu: AdoptHandle: domain %q not admitted in fork", pd.name)
	}
	ac := m[pd.ac]
	if ac == nil {
		return nil, fmt.Errorf("cpu: AdoptHandle: no forked Atropos client for %q", pd.name)
	}
	return &DomainCPU{s: s, ac: ac, name: pd.name, w: w}, nil
}
