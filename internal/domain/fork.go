package domain

import (
	"fmt"

	"nemesis/internal/cpu"
	"nemesis/internal/mem"
	"nemesis/internal/vm"
)

// Forkable reports why d cannot be forked, or nil. Threads are not carried:
// a fork point requires every workload thread to have exited (goroutine
// stacks cannot be cloned). Custom fault handlers are closures over
// parent-world objects and must be re-installed post-fork, so a domain that
// still has any is refused, as is one whose mm-worker has work queued.
func (d *Domain) Forkable() error {
	if len(d.handlers) != 0 {
		return fmt.Errorf("domain: cannot fork %q with %d custom fault handlers installed", d.name, len(d.handlers))
	}
	if !d.killed && d.mm != nil {
		if d.mm.stopped {
			return fmt.Errorf("domain: cannot fork %q: mm-worker stopped but domain not killed", d.name)
		}
		if n := d.mm.QueueLen(); n != 0 {
			return fmt.Errorf("domain: cannot fork %q with %d outstanding mm jobs", d.name, n)
		}
	}
	return nil
}

// Fork returns a deep copy of the domain shell re-pointed at a forked world:
// env is the forked environment, npd/ncpu/memc the domain's twins in the
// forked translation system, CPU scheduler and frames allocator. Stretch
// drivers are NOT carried over — the caller forks each driver against the
// returned domain (drivers need the new domain for their base) and Bind
// re-populates the bindings. The MMEntry's worker is respawned; at a valid
// fork point it is parked on an empty queue, so the respawned worker parks
// identically. A forked world has no telemetry, so the copy has neither
// counters nor an activity tracker. The caller has checked Forkable.
func (d *Domain) Fork(env *Env, npd *vm.ProtectionDomain, ncpu *cpu.DomainCPU, memc *mem.Client) *Domain {
	nd := &Domain{
		env:         env,
		id:          d.id,
		name:        d.name,
		pd:          npd,
		cpu:         ncpu,
		memc:        memc,
		bindings:    make([]Binding, 0, len(d.bindings)),
		faultEvent:  d.faultEvent,
		revokeEvent: d.revokeEvent,
		killed:      d.killed,
		stats:       d.stats,
	}
	if memc != nil {
		memc.SetHandler(nd)
	}
	if nd.killed {
		nd.mm = &MMEntry{dom: nd, stopped: true}
	} else {
		nd.mm = newMMEntry(nd)
	}
	return nd
}

// Binding pairs a stretch id with the driver bound to it.
type Binding struct {
	SID    vm.StretchID
	Driver Driver
}

// Bindings returns the domain's stretch-driver bindings in stretch-id order.
// The snapshot orchestrator walks them to fork each driver exactly once.
// The slice is the domain's own: callers read it and do not keep it.
func (d *Domain) Bindings() []Binding { return d.bindings }
