package usd

import (
	"fmt"

	"nemesis/internal/sim"
)

// Fork returns a deep copy of the USD, and of the drive it schedules, on the
// forked simulator, plus a channel identity map (parent channel → forked
// channel) so holders of IO channels (swap files, pagers) can re-point
// themselves, and the sequence numbers of re-armed lax timers for the
// snapshot's event accounting. A forked world has no telemetry, so the copy
// has no registry.
//
// The service process cannot have its stack cloned, so the fork point must be
// an instant at which the loop is parked with nothing to do: no transaction
// in service and every request and completion FIFO empty. The forked USD
// respawns its loop, whose bootstrap pass re-derives the identical parked
// state — refresh at the fork instant is a no-op (the parent already granted
// any due allocation) and it re-parks on the same absolute period boundary.
// Lax accrual spans in progress are carried over exactly: the accrual start
// is copied and the settle timer is re-armed at its original (instant, seq).
func (u *USD) Fork(ns *sim.Simulator) (*USD, map[*Channel]*Channel, []uint64, error) {
	if u.stopped {
		return nil, nil, nil, fmt.Errorf("usd: cannot fork a stopped USD")
	}
	core, am := u.core.Fork()
	nu := &USD{
		sim:           ns,
		core:          core,
		Log:           u.Log.Clone(),
		SlackEnabled:  u.SlackEnabled,
		LaxityEnabled: u.LaxityEnabled,
		FCFS:          u.FCFS,
	}
	chans := make(map[*Channel]*Channel, len(u.core.Clients()))
	var claimed []uint64
	for _, ac := range u.core.Clients() {
		cl, name := ac.Rec.(*client), ac.Name()
		if cl.inService {
			return nil, nil, nil, fmt.Errorf("usd: cannot fork with client %q in service", name)
		}
		if n := cl.ch.reqs.Len(); n != 0 {
			return nil, nil, nil, fmt.Errorf("usd: cannot fork with %d pending requests on %q", n, name)
		}
		if n := cl.ch.comps.Len(); n != 0 {
			return nil, nil, nil, fmt.Errorf("usd: cannot fork with %d undrained completions on %q", n, name)
		}
		nch := &Channel{
			usd:    nu,
			reqs:   sim.NewQueue[*Request](cl.ch.reqs.Cap()),
			comps:  sim.NewQueue[*Request](cl.ch.comps.Cap()),
			closed: cl.ch.closed,
		}
		ncl := &client{
			ac:         am[ac],
			ch:         nch,
			extents:    append([]Extent(nil), cl.extents...),
			accruing:   cl.accruing,
			worklessAt: cl.worklessAt,
			txns:       cl.txns,
			bytes:      cl.bytes,
			dropped:    cl.dropped,
		}
		nch.cl, ncl.ac.Rec = ncl, ncl
		ncl.settleFn = func() { nu.settleLax(ncl) }
		if ncl.accruing {
			at, seq, ok := cl.laxTimer.When()
			if !ok {
				return nil, nil, nil, fmt.Errorf("usd: client %q accruing lax with no live settle timer", name)
			}
			ncl.laxTimer = ns.RestoreAt(at, seq, ncl.settleFn)
			claimed = append(claimed, seq)
		}
		chans[cl.ch] = nch
	}
	// Fork the drive only once nothing can refuse: sharing its chunks
	// copy-on-write marks the parent's chunks too.
	nu.disk = u.disk.Fork(ns)
	nu.proc = ns.Spawn("usd", nu.run)
	// If the parent loop is parked on a period boundary (WaitTimeout), the
	// respawned loop will re-derive the identical park — but its park event
	// would draw a fresh seq, flipping same-instant tie order against other
	// timers. Donate the parent park event's seq so the forked park sorts
	// exactly where the parent's does.
	if at, seq, ok := u.sim.ParkedWake(u.proc); ok {
		ns.DonateWakeSeq(nu.proc, at, seq)
	}
	return nu, chans, claimed, nil
}
