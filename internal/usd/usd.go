// Package usd implements the User-Safe Disk: the data-path half of the
// paper's User-Safe Backing Store. Clients hold QoS contracts (p, s, x, l)
// and communicate over FIFO IO channels; a single service thread in the USD
// domain picks, per transaction, the client with the earliest deadline
// (Atropos), charges actual transaction time against the client's slice,
// charges "lax" time to runnable clients with no work pending, and
// optionally hands schedule slack to x=true clients.
//
// The USD is safe in the exokernel sense the paper contrasts with: a client
// may only touch disk extents explicitly granted to it (by the SFS or
// another control-path entity), so no client can read or corrupt another's
// swap.
package usd

import (
	"errors"
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/trace"
)

// Errors returned by the USD control path.
var (
	ErrStopped       = errors.New("usd: stopped")
	ErrUnknownClient = errors.New("usd: unknown client")
)

// Extent is a contiguous range of disk blocks [Start, Start+Count).
type Extent struct {
	Start int64
	Count int64
}

// Contains reports whether [block, block+n) lies inside the extent.
func (e Extent) Contains(block int64, n int) bool {
	return block >= e.Start && block+int64(n) <= e.Start+e.Count
}

func (e Extent) String() string {
	return fmt.Sprintf("[%d,+%d)", e.Start, e.Count)
}

// client is the USD's view of one contracted consumer: the record its
// Atropos client links (ac.Rec).
type client struct {
	ac      *atropos.Client
	ch      *Channel
	extents []Extent

	// Lax accrual: a Runnable client with no pending work accrues lax
	// time from worklessAt until work arrives or the budget (or slice)
	// runs out.
	accruing   bool
	worklessAt sim.Time
	laxTimer   sim.Timer
	settleFn   func() // pre-bound settleLax, re-armed on every idle span
	inService  bool

	// Counters.
	txns    int64
	bytes   int64
	dropped int64 // completions lost to a full completion FIFO

	// Telemetry handles, cached at Open (nil when telemetry is off).
	hQueueWait *obs.Histogram
	hService   *obs.Histogram
	cTxns      *obs.Counter
	cBytes     *obs.Counter
}

// Stats is a snapshot of one client's activity.
type Stats struct {
	Txns        int64
	Bytes       int64
	Charged     time.Duration
	LaxCharged  time.Duration
	Allocations int64
	Remain      time.Duration
	State       atropos.State
	// Dropped counts completions discarded because the client let its
	// completion FIFO fill.
	Dropped int64
}

// USD is the user-safe disk domain.
type USD struct {
	sim  *sim.Simulator
	disk *disk.Disk
	core *atropos.Core

	wake    sim.Cond
	proc    *sim.Proc
	stopped bool

	// Log, when non-nil, receives scheduler trace events (transactions,
	// lax charges, allocations, slack grants).
	Log *trace.Log
	// Obs, when non-nil, receives per-client queue-wait/service latency
	// histograms and transaction counters. Set before opening clients.
	Obs *obs.Registry
	// SlackEnabled turns on optimistic scheduling for x=true clients.
	SlackEnabled bool
	// LaxityEnabled turns the laxity mechanism on (the paper's fix for
	// the short-block problem). When false, a runnable client with no
	// pending work is immediately marked idle until its next allocation —
	// the behaviour of "early versions of the USD scheduler".
	LaxityEnabled bool
	// FCFS disables QoS scheduling entirely: requests are served oldest
	// first and nothing is charged. This models the unscheduled disk of
	// conventional systems, for the ablation experiments.
	FCFS bool
}

// New creates a USD over d and starts its service process on s.
func New(s *sim.Simulator, d *disk.Disk) *USD {
	u := &USD{
		sim:           s,
		disk:          d,
		core:          atropos.NewCore(1.0),
		LaxityEnabled: true,
	}
	u.proc = s.Spawn("usd", u.run)
	return u
}

// Disk returns the underlying drive (for tools and tests).
func (u *USD) Disk() *disk.Disk { return u.disk }

// Contracted returns the admitted fraction of disk time.
func (u *USD) Contracted() float64 { return u.core.Contracted() }

// QueuedRequests returns the total number of requests pending across every
// client channel — the USD queue depth the timeline recorder samples.
func (u *USD) QueuedRequests() int {
	total := 0
	for _, ac := range u.core.Clients() {
		total += ac.Rec.(*client).ch.Pending()
	}
	return total
}

// Open admits a client with contract q and returns its IO channel with the
// given pipeline depth. Admission control rejects aggregate guarantees
// exceeding the whole disk.
func (u *USD) Open(name string, q atropos.QoS, depth int) (*Channel, error) {
	if u.stopped {
		return nil, ErrStopped
	}
	ac, err := u.core.Admit(name, q, u.sim.Now())
	if err != nil {
		return nil, err
	}
	if depth < 1 {
		depth = 1
	}
	ch := &Channel{
		usd:  u,
		reqs: sim.NewQueue[*Request](depth),
		// The completion FIFO holds twice the pipeline depth: a client
		// draining completions no slower than it submits can never lose
		// one. A client that ignores its completion ring loses them —
		// its own problem, never the USD's (it must not block the
		// service thread).
		comps: sim.NewQueue[*Request](2 * depth),
	}
	cl := &client{ac: ac, ch: ch}
	ch.cl, ac.Rec = cl, cl
	cl.settleFn = func() { u.settleLax(cl) }
	if u.Obs != nil {
		cl.hQueueWait = u.Obs.Histogram("usd", "queue_wait", name)
		cl.hService = u.Obs.Histogram("usd", "service", name)
		cl.cTxns = u.Obs.Counter("usd", "txns", name)
		cl.cBytes = u.Obs.Counter("usd", "bytes", name)
	}
	u.startLax(cl)
	return ch, nil
}

// lookup returns the named client's record, or nil.
func (u *USD) lookup(name string) *client {
	if ac := u.core.Lookup(name); ac != nil {
		return ac.Rec.(*client)
	}
	return nil
}

// Close removes a client and releases its contract.
func (u *USD) Close(name string) error {
	cl := u.lookup(name)
	if cl == nil {
		return fmt.Errorf("%w: %q", ErrUnknownClient, name)
	}
	cl.laxTimer.Stop()
	cl.ch.Close()
	return u.core.Remove(name)
}

// Grant adds a disk extent the named client may access.
func (u *USD) Grant(name string, e Extent) error {
	cl := u.lookup(name)
	if cl == nil {
		return fmt.Errorf("%w: %q", ErrUnknownClient, name)
	}
	cl.extents = append(cl.extents, e)
	return nil
}

// Stats returns a snapshot for the named client.
func (u *USD) Stats(name string) (Stats, bool) {
	cl := u.lookup(name)
	if cl == nil {
		return Stats{}, false
	}
	return Stats{
		Txns:        cl.txns,
		Bytes:       cl.bytes,
		Charged:     cl.ac.Charged(),
		LaxCharged:  cl.ac.LaxCharged(),
		Allocations: cl.ac.Allocations(),
		Remain:      cl.ac.Remain(),
		State:       cl.ac.State(),
		Dropped:     cl.dropped,
	}, true
}

// Stop terminates the USD service process.
func (u *USD) Stop() {
	if u.stopped {
		return
	}
	u.stopped = true
	u.wake.Broadcast()
	if u.proc != nil && !u.proc.Done() {
		u.proc.Kill()
	}
}

// onArrival is called by Channel.Submit once the request is queued: settle
// any lax span, mark work, mark the client ready and wake the service loop.
// A request enqueued on an open channel means the client is still admitted:
// Close closes the channel before removing it. Submit calls this in the
// same step as its enqueue, so the core's readiness always equals a
// non-empty request FIFO when the service loop picks.
func (u *USD) onArrival(cl *client) {
	u.settleLax(cl)
	u.core.NoteWork(cl.ac)
	u.core.SetReady(cl.ac, true)
	u.wake.Signal()
}

// permitted checks a request against the client's granted extents.
func (u *USD) permitted(cl *client, r *Request) bool {
	for _, e := range cl.extents {
		if e.Contains(r.Block, r.Count) {
			return true
		}
	}
	return false
}

// startLax begins lax accrual for cl if it is runnable with no pending work.
// With laxity disabled the client is idled immediately (short-block
// behaviour).
func (u *USD) startLax(cl *client) {
	if cl.accruing || cl.inService || cl.ch.Pending() > 0 {
		return
	}
	if cl.ac.State() != atropos.Runnable {
		return
	}
	if !u.LaxityEnabled || cl.ac.LaxBudget() == 0 {
		// No laxity: the client is ignored until its next periodic
		// allocation — the short-block behaviour of the early USD.
		u.core.Idle(cl.ac)
		return
	}
	cl.accruing = true
	cl.worklessAt = u.sim.Now()
	// The span ends no later than the lax budget or slice exhaustion.
	limit := cl.ac.LaxBudget()
	if r := cl.ac.Remain(); r < limit {
		limit = r
	}
	cl.laxTimer = u.sim.After(limit, cl.settleFn)
}

// settleLax charges the lax span accrued so far, if any, and logs it.
func (u *USD) settleLax(cl *client) {
	if !cl.accruing {
		return
	}
	cl.accruing = false
	cl.laxTimer.Stop()
	now := u.sim.Now()
	d := now.Sub(cl.worklessAt)
	if d < 0 {
		d = 0
	}
	if max := cl.ac.LaxBudget(); d > max {
		d = max
	}
	u.core.ChargeLax(cl.ac, d)
	if d > 0 {
		u.Log.Add(trace.Event{Kind: trace.Lax, Client: cl.ac.Name(), Start: cl.worklessAt, End: cl.worklessAt.Add(d)})
	}
}

// refresh grants due allocations, logging them and restarting lax accrual
// for clients that come back runnable with no work.
func (u *USD) refresh(now sim.Time) {
	// Settle lax for clients whose boundary has arrived so the span does
	// not leak across periods.
	for _, ac := range u.core.Clients() {
		if cl := ac.Rec.(*client); cl.accruing && ac.Deadline() <= now {
			u.settleLax(cl)
		}
	}
	for _, ac := range u.core.Refresh(now) {
		u.Log.Add(trace.Event{Kind: trace.Allocation, Client: ac.Name(), Start: now, End: now})
		u.startLax(ac.Rec.(*client))
	}
}

// oldestPending returns the client whose oldest queued request was
// submitted earliest (FCFS mode).
func (u *USD) oldestPending() *client {
	var best *client
	var bestAt sim.Time
	for _, ac := range u.core.Clients() {
		cl := ac.Rec.(*client)
		req, ok := cl.ch.reqs.Peek()
		if !ok {
			continue
		}
		if best == nil || req.submitted < bestAt {
			best, bestAt = cl, req.submitted
		}
	}
	return best
}

// serve performs one transaction for cl, charging it unless slack is true.
func (u *USD) serve(p *sim.Proc, cl *client, slack bool) {
	req, ok := cl.ch.reqs.TryRecv()
	if !ok {
		return
	}
	// Clear readiness now, not after the transaction: a submitter blocked
	// on the full FIFO enqueues while the disk works, and its onArrival
	// marks the client ready again.
	if cl.ch.reqs.Len() == 0 {
		u.core.SetReady(cl.ac, false)
	}
	cl.inService = true
	t0 := p.Now()
	req.started = t0
	if !u.permitted(cl, req) {
		req.Err = fmt.Errorf("%w: %s %d+%d for %q", ErrNoSuchExtent, req.Op, req.Block, req.Count, cl.ac.Name())
	} else {
		switch req.Op {
		case disk.Read:
			req.Err = u.disk.ReadAt(p, req.Block, req.Count, req.Data)
		case disk.Write:
			req.Err = u.disk.WriteAt(p, req.Block, req.Count, req.Data)
		default:
			req.Err = ErrBadRequest
		}
	}
	t1 := p.Now()
	req.completed = t1
	cl.inService = false
	cl.txns++
	cl.cTxns.Inc()
	cl.hQueueWait.Observe(t0.Sub(req.submitted))
	cl.hService.Observe(t1.Sub(t0))
	if req.Err == nil {
		cl.bytes += int64(req.Count) * disk.BlockSize
		cl.cBytes.Add(int64(req.Count) * disk.BlockSize)
	}
	kind := trace.Transaction
	if slack {
		kind = trace.Slack
	} else {
		u.core.Charge(cl.ac, t1.Sub(t0))
	}
	u.Log.Add(trace.Event{Kind: kind, Client: cl.ac.Name(), Start: t0, End: t1})
	// Hand the completion back without ever blocking the service thread;
	// a client that lets its completion ring fill loses completions (and
	// the drop is counted).
	if !cl.ch.comps.TrySend(req) {
		cl.dropped++
	}
	u.startLax(cl)
}

// run is the USD service loop.
func (u *USD) run(p *sim.Proc) {
	for !u.stopped {
		now := p.Now()
		if u.FCFS {
			if cl := u.oldestPending(); cl != nil {
				u.serve(p, cl, true) // uncharged: no QoS
				continue
			}
			u.wake.Wait(p)
			continue
		}
		u.refresh(now)

		if pick := u.core.PickEDFReady(); pick != nil {
			u.serve(p, pick.Rec.(*client), false)
			continue
		}

		if u.SlackEnabled {
			if pick := u.core.PickSlackReady(); pick != nil {
				u.serve(p, pick.Rec.(*client), true)
				continue
			}
		}

		// Nothing serviceable: sleep until a request arrives or the next
		// period boundary.
		if boundary, ok := u.core.NextBoundary(); ok && boundary > now {
			u.wake.WaitTimeout(p, boundary.Sub(now))
		} else if !ok {
			u.wake.Wait(p)
		} else {
			// A boundary is due right now; loop to refresh.
			p.Yield()
		}
	}
}
