package atropos

import (
	"fmt"
	"time"

	"nemesis/internal/sim"
)

// This file retains the original linear-scan implementation of the Atropos
// accounting core, verbatim, as ReferenceCore. It exists solely so the
// equivalence tests can co-run it against the indexed (heap-backed) Core and
// assert that every scheduling decision is identical over seeded random
// contract sets. It is test-only code: production uses Core.

// ReferenceClient is one contracted consumer of the resource under the
// reference (linear) core.
type ReferenceClient struct {
	name string
	qos  QoS

	state       State
	remain      time.Duration
	deadline    sim.Time
	periodStart sim.Time
	laxSpan     time.Duration
	allocations int64
	charged     time.Duration
	laxCharged  time.Duration
}

// Name returns the client's registration name.
func (c *ReferenceClient) Name() string { return c.name }

// QoS returns the client's contract.
func (c *ReferenceClient) QoS() QoS { return c.qos }

// State returns the scheduling state.
func (c *ReferenceClient) State() State { return c.state }

// Remain returns the unconsumed allocation for the current period.
func (c *ReferenceClient) Remain() time.Duration { return c.remain }

// Deadline returns the end of the client's current period.
func (c *ReferenceClient) Deadline() sim.Time { return c.deadline }

// LaxBudget returns how much longer the client may stay runnable without
// pending work before being marked idle.
func (c *ReferenceClient) LaxBudget() time.Duration {
	if b := c.qos.L - c.laxSpan; b > 0 {
		return b
	}
	return 0
}

// Allocations returns the number of periodic allocations granted so far.
func (c *ReferenceClient) Allocations() int64 { return c.allocations }

// Charged returns total time charged to the client (work plus lax).
func (c *ReferenceClient) Charged() time.Duration { return c.charged }

// LaxCharged returns total lax time charged to the client.
func (c *ReferenceClient) LaxCharged() time.Duration { return c.laxCharged }

// ReferenceCore is the original O(n)-per-operation Core: every pick and
// refresh scans the full client slice.
type ReferenceCore struct {
	clients  []*ReferenceClient
	capacity float64
	slackIdx int
}

// NewReferenceCore returns a ReferenceCore admitting contracts totalling at
// most capacity (1.0 = the whole resource).
func NewReferenceCore(capacity float64) *ReferenceCore {
	if capacity <= 0 {
		capacity = 1.0
	}
	return &ReferenceCore{capacity: capacity}
}

// Contracted returns the sum of admitted shares.
func (co *ReferenceCore) Contracted() float64 {
	total := 0.0
	for _, c := range co.clients {
		total += c.qos.Share()
	}
	return total
}

// Clients returns the registered clients in admission order.
func (co *ReferenceCore) Clients() []*ReferenceClient { return co.clients }

// Lookup returns the client with the given name, or nil.
func (co *ReferenceCore) Lookup(name string) *ReferenceClient {
	for _, c := range co.clients {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Admit registers a client with the given contract, starting its first
// period at now.
func (co *ReferenceCore) Admit(name string, q QoS, now sim.Time) (*ReferenceClient, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if co.Lookup(name) != nil {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if co.Contracted()+q.Share() > co.capacity+1e-9 {
		return nil, fmt.Errorf("%w: %.3f + %.3f > %.3f", ErrOvercommitted, co.Contracted(), q.Share(), co.capacity)
	}
	c := &ReferenceClient{
		name:        name,
		qos:         q,
		state:       Runnable,
		remain:      q.S,
		periodStart: now,
		deadline:    now.Add(q.P),
		allocations: 1,
	}
	co.clients = append(co.clients, c)
	return c, nil
}

// Remove deregisters a client.
func (co *ReferenceCore) Remove(name string) error {
	for i, c := range co.clients {
		if c.name == name {
			co.clients = append(co.clients[:i], co.clients[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknown, name)
}

// Refresh grants periodic allocations to every client whose deadline has
// arrived, returning the clients that received one (in admission order).
func (co *ReferenceCore) Refresh(now sim.Time) []*ReferenceClient {
	var granted []*ReferenceClient
	for _, c := range co.clients {
		if c.deadline > now {
			continue
		}
		// Catch up period boundaries without stacking slices.
		for c.deadline <= now {
			c.periodStart = c.deadline
			c.deadline = c.deadline.Add(c.qos.P)
		}
		carry := time.Duration(0)
		if c.remain < 0 {
			carry = c.remain
		}
		c.remain = c.qos.S + carry
		c.laxSpan = 0
		c.allocations++
		if c.state == Waiting || c.state == Idle {
			c.state = Runnable
		}
		granted = append(granted, c)
	}
	return granted
}

// runnable reports whether c may be given service now.
func (co *ReferenceCore) runnable(c *ReferenceClient) bool {
	return c.state == Runnable && c.remain > 0
}

// PickEDFWhere returns the earliest-deadline runnable client satisfying pred,
// or nil. Ties break by admission order, which is deterministic. It is the
// oracle for Core.PickEDFReady, with readiness as pred.
func (co *ReferenceCore) PickEDFWhere(pred func(*ReferenceClient) bool) *ReferenceClient {
	var best *ReferenceClient
	for _, c := range co.clients {
		if !co.runnable(c) || !pred(c) {
			continue
		}
		if best == nil || c.deadline < best.deadline {
			best = c
		}
	}
	return best
}

// PickSlackWhere returns the next slack-eligible (x=true) client satisfying pred,
// distributing slack round-robin regardless of remaining allocation. It is
// the oracle for Core.PickSlackReady, with readiness as pred.
func (co *ReferenceCore) PickSlackWhere(pred func(*ReferenceClient) bool) *ReferenceClient {
	n := len(co.clients)
	for i := 0; i < n; i++ {
		c := co.clients[(co.slackIdx+i)%n]
		if c.qos.X && pred(c) {
			co.slackIdx = (co.slackIdx + i + 1) % n
			return c
		}
	}
	return nil
}

// Charge debits d of real service time from c.
func (co *ReferenceCore) Charge(c *ReferenceClient, d time.Duration) {
	c.remain -= d
	c.charged += d
	c.laxSpan = 0
	if c.remain <= 0 {
		c.state = Waiting
	}
}

// ChargeLax debits d of lax (workless runnable) time from c.
func (co *ReferenceCore) ChargeLax(c *ReferenceClient, d time.Duration) {
	c.remain -= d
	c.charged += d
	c.laxCharged += d
	c.laxSpan += d
	switch {
	case c.remain <= 0:
		c.state = Waiting
	case c.laxSpan >= c.qos.L:
		c.state = Idle
	}
}

// NoteWork resets c's continuous lax span: pending work has arrived.
func (co *ReferenceCore) NoteWork(c *ReferenceClient) { c.laxSpan = 0 }

// Idle parks a runnable client until its next allocation without charging it.
func (co *ReferenceCore) Idle(c *ReferenceClient) {
	if c.state == Runnable {
		c.state = Idle
	}
}

// NextBoundary returns the earliest deadline over all clients, or ok=false if
// there are no clients.
func (co *ReferenceCore) NextBoundary() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, c := range co.clients {
		if !found || c.deadline < best {
			best = c.deadline
			found = true
		}
	}
	return best, found
}
