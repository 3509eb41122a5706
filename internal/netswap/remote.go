package netswap

import (
	"bytes"
	"math"
	"time"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// RemoteOptions tunes one client's RPC behaviour.
type RemoteOptions struct {
	// Window bounds the client's in-flight RPCs (pipelining): further
	// sends wait for a slot. Default 4.
	Window int
	// Timeout is the per-attempt reply deadline. It must comfortably
	// cover the server's disk service for a full write batch, or healthy
	// calls retransmit and the server does the work twice. Default 250 ms.
	Timeout time.Duration
	// MaxRetries bounds retransmissions per call; a negative value retries
	// forever (a domain that would rather stall than die). Default 8.
	// The zero value means the default; use a pointer-free sentinel of
	// 0 via DefaultRemoteOptions if 0 retries are really wanted.
	MaxRetries int
	// Backoff is the base retransmission delay, doubled per attempt
	// (capped at 64x). Default 10 ms.
	Backoff time.Duration
	// MaxBatch caps pages per write RPC; larger cleaning batches split
	// into multiple pipelined RPCs. Default 16.
	MaxBatch int
}

// DefaultRemoteOptions returns the defaults documented on RemoteOptions.
func DefaultRemoteOptions() RemoteOptions {
	return RemoteOptions{
		Window:     4,
		Timeout:    250 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    10 * time.Millisecond,
		MaxBatch:   defaultMaxBatch,
	}
}

const defaultMaxBatch = 16

// zeroPayload is the payload of every write RPC of at most defaultMaxBatch
// pages that are all zero. It lives in BSS, and nothing writes it: every
// backing in the process sends it, and the server reads it in place.
var zeroPayload [defaultMaxBatch * vm.PageSize]byte

func (o *RemoteOptions) fillDefaults() {
	d := DefaultRemoteOptions()
	if o.Window < 1 {
		o.Window = d.Window
	}
	if o.Timeout <= 0 {
		o.Timeout = d.Timeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = d.MaxRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = d.Backoff
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = d.MaxBatch
	}
}

// RemoteStats counts one client's RPC activity.
type RemoteStats struct {
	RPCs        int64 // completed calls (reply received)
	Retries     int64 // retransmissions after a timeout
	Timeouts    int64 // attempt deadlines that expired
	LateReplies int64 // replies for attempts already given up on
	Failures    int64 // calls that exhausted their retry budget
	PagesRead   int64
	PagesSent   int64
	MaxInflight int // high-water mark of the request window
}

// call tracks one RPC through timeouts and retries.
type call struct {
	req      *request
	rep      *reply
	err      error
	id       uint64   // current attempt's ID; 0 = not in flight
	attempt  int      // attempts so far
	deadline sim.Time // current attempt's timeout instant
	resendAt sim.Time // backoff gate for the next attempt
	sentAt   sim.Time // current attempt's send instant
}

// RemoteBacking pages to the remote swap server over the fabric's link. It
// implements stretchdrv.Backing: reads are single-page RPCs, cleaning batches
// are merged into multi-page write RPCs (split at MaxBatch and pipelined
// through the in-flight window). Every wait happens on the calling domain's
// own simulated process, so remote stalls never leak across the QoS
// firewall.
type RemoteBacking struct {
	fab    *Fabric
	client string
	opt    RemoteOptions

	nextID uint64
	// inflight holds the calls with an attempt in flight, at most
	// Window of them, so a scan finds a reply's call without a map.
	inflight []*call
	wake     sim.Cond

	remote pageBits // pages with a current remote copy

	Stats RemoteStats

	cRPCs, cRetries, cTimeouts, cLate *obs.Counter
	gInflight                         *obs.Gauge
	hRTT                              *obs.Histogram
}

const timeNever = sim.Time(math.MaxInt64)

// pageBits is a set of pages, one bit a page: words[i] holds pages
// base+64i to base+64i+63, with base a multiple of 64. It widens at either
// end to the pages set, so the few pages of one stretch take a word or two.
type pageBits struct {
	base  vm.VPN
	words []uint64
}

// has reports whether vpn is in the set.
func (b *pageBits) has(vpn vm.VPN) bool {
	// A VPN below base wraps to a huge index and fails the bound check.
	i := uint64(vpn-b.base) >> 6
	return i < uint64(len(b.words)) && b.words[i]&(1<<(vpn&63)) != 0
}

// set adds vpn, widening the words to reach it.
func (b *pageBits) set(vpn vm.VPN) {
	lo := vpn &^ 63
	switch {
	case len(b.words) == 0:
		b.base = lo
		b.words = make([]uint64, 1)
	case lo < b.base:
		n := int((b.base - lo) >> 6)
		words := make([]uint64, n+len(b.words))
		copy(words[n:], b.words)
		b.base, b.words = lo, words
	case int((lo-b.base)>>6) >= len(b.words):
		b.words = append(b.words, make([]uint64, int((lo-b.base)>>6)+1-len(b.words))...)
	}
	b.words[(lo-b.base)>>6] |= 1 << (vpn & 63)
}

// clear removes vpn.
func (b *pageBits) clear(vpn vm.VPN) {
	if i := uint64(vpn-b.base) >> 6; i < uint64(len(b.words)) {
		b.words[i] &^= 1 << (vpn & 63)
	}
}

// newRemoteBacking is called by the Fabric, which owns routing.
func newRemoteBacking(fab *Fabric, client, domName string, opt RemoteOptions) *RemoteBacking {
	opt.fillDefaults()
	reg := fab.reg
	return &RemoteBacking{
		fab:       fab,
		client:    client,
		opt:       opt,
		cRPCs:     reg.Counter("netswap", "rpcs", domName),
		cRetries:  reg.Counter("netswap", "retries", domName),
		cTimeouts: reg.Counter("netswap", "timeouts", domName),
		cLate:     reg.Counter("netswap", "late_replies", domName),
		gInflight: reg.Gauge("netswap", "inflight", domName),
		hRTT:      reg.Histogram("netswap", "rtt", domName),
	}
}

// Name implements stretchdrv.Backing.
func (r *RemoteBacking) Name() string { return "remote" }

// Options returns the client's effective RPC options.
func (r *RemoteBacking) Options() RemoteOptions { return r.opt }

// HasCopy implements stretchdrv.Backing.
func (r *RemoteBacking) HasCopy(va vm.VA) bool { return r.remote.has(vm.PageOf(va)) }

// Invalidate marks va's remote copy stale (a newer copy lives elsewhere —
// the tiered backing's local fallback path). The server-side blok stays
// allocated and is reused on the next write of the same page.
func (r *RemoteBacking) Invalidate(va vm.VA) { r.remote.clear(vm.PageOf(va)) }

// land takes the call whose attempt in flight has ID id out of the window,
// and returns it, or nil if no attempt in flight has that ID.
func (r *RemoteBacking) land(id uint64) *call {
	for i, c := range r.inflight {
		if c.id == id {
			last := len(r.inflight) - 1
			r.inflight[i], r.inflight[last] = r.inflight[last], nil
			r.inflight = r.inflight[:last]
			c.id = 0
			r.gInflight.Set(int64(len(r.inflight)))
			return c
		}
	}
	return nil
}

// deliver routes one arrived reply. Runs in scheduler context (link event).
func (r *RemoteBacking) deliver(rep *reply) {
	c := r.land(rep.ID)
	if c == nil {
		r.Stats.LateReplies++ // timed-out attempt, or a duplicated frame
		r.cLate.Inc()
		return
	}
	r.Stats.RPCs++
	r.cRPCs.Inc()
	r.hRTT.Observe(r.fab.s.Now().Sub(c.sentAt))
	if err := rep.err(); err != nil {
		c.err = err
	} else {
		c.rep = rep
	}
	r.wake.Broadcast()
}

// sendAttempt transmits the current attempt of c and arms its timeout.
func (r *RemoteBacking) sendAttempt(c *call) {
	r.nextID++
	c.id = r.nextID
	c.attempt++
	c.sentAt = r.fab.s.Now()
	c.deadline = c.sentAt.Add(r.opt.Timeout)
	req := *c.req // shallow copy so the retransmit carries its own ID
	req.ID = c.id
	r.inflight = append(r.inflight, c)
	if len(r.inflight) > r.Stats.MaxInflight {
		r.Stats.MaxInflight = len(r.inflight)
	}
	r.gInflight.Set(int64(len(r.inflight)))
	r.fab.toServer(&req)
}

// do drives a group of calls to completion from process p: it keeps up to
// Window attempts in flight (sharing the window with any concurrent calls on
// the same client), expires attempts at their deadlines, backs off
// exponentially between retries, and parks p whenever there is nothing to do
// but wait.
func (r *RemoteBacking) do(p *sim.Proc, calls []*call) error {
	for {
		now := r.fab.s.Now()
		live := 0
		next := timeNever
		for _, c := range calls {
			if c.rep != nil || c.err != nil {
				continue
			}
			live++
			if c.id != 0 && now >= c.deadline {
				// Attempt timed out: free the slot, decide on a retry.
				r.land(c.id)
				r.Stats.Timeouts++
				r.cTimeouts.Inc()
				r.wake.Broadcast() // the freed slot may unblock a peer
				if r.opt.MaxRetries >= 0 && c.attempt > r.opt.MaxRetries {
					c.err = ErrRemoteTimeout
					r.Stats.Failures++
					live--
					continue
				}
				r.Stats.Retries++
				r.cRetries.Inc()
				shift := c.attempt - 1
				if shift > 6 {
					shift = 6
				}
				c.resendAt = now.Add(r.opt.Backoff << uint(shift))
			}
			if c.id == 0 && now >= c.resendAt && len(r.inflight) < r.opt.Window {
				r.sendAttempt(c)
			}
			switch {
			case c.id != 0:
				if c.deadline < next {
					next = c.deadline
				}
			case c.resendAt > now:
				if c.resendAt < next {
					next = c.resendAt
				}
				// else: waiting for a window slot; a slot release
				// broadcasts the cond, no timer needed.
			}
		}
		if live == 0 {
			for _, c := range calls {
				if c.err != nil {
					return c.err
				}
			}
			return nil
		}
		if next == timeNever {
			r.wake.Wait(p)
		} else if d := next.Sub(r.fab.s.Now()); d > 0 {
			r.wake.WaitTimeout(p, d)
		}
	}
}

// ReadPage implements stretchdrv.Backing: one read RPC with retries. The
// fault span gains hops "net.out" (request wire + server queue, including
// any retries), "remote.store" (the server's disk service) and "net.back"
// (the reply wire) — net RTT versus remote disk service, exactly.
func (r *RemoteBacking) ReadPage(p *sim.Proc, va vm.VA, buf []byte, sp *obs.Span) error {
	sp.BeginHop("net.out")
	c := &call{req: &request{Client: r.client, Op: opRead, Flow: sp.EnsureFlow(), VPNs: []vm.VPN{vm.PageOf(va)}}}
	if err := r.do(p, []*call{c}); err != nil {
		return err
	}
	copy(buf, c.rep.Data)
	sp.SplitHop(c.rep.ServiceStart, "remote.store")
	sp.SplitHop(c.rep.ServiceEnd, "net.back")
	r.Stats.PagesRead++
	return nil
}

// WritePages implements stretchdrv.Backing: the batch is merged into
// multi-page write RPCs of up to MaxBatch pages each, pipelined through the
// in-flight window, and the pages are marked remote-current only when their
// RPC is acknowledged. Returns the server-side disk transaction count.
//
// Each RPC's payload is the one copy of its pages, taken before the first
// send. Every attempt of the call carries it, and nothing writes it again:
// a call that gives up can leave an attempt queued at the server.
func (r *RemoteBacking) WritePages(p *sim.Proc, pages []stretchdrv.DirtyPage, sp *obs.Span) (int, error) {
	sp.BeginHop("net.out")
	flow := sp.EnsureFlow()
	var calls []*call
	for at := 0; at < len(pages); at += r.opt.MaxBatch {
		end := at + r.opt.MaxBatch
		if end > len(pages) {
			end = len(pages)
		}
		batch := pages[at:end]
		req := &request{Client: r.client, Op: opWrite, Flow: flow, VPNs: make([]vm.VPN, len(batch)), Data: payload(batch)}
		for i, pg := range batch {
			req.VPNs[i] = vm.PageOf(pg.VA)
		}
		calls = append(calls, &call{req: req})
	}
	err := r.do(p, calls)
	txns := 0
	var last *reply
	for _, c := range calls {
		if c.rep == nil {
			continue
		}
		txns += c.rep.Txns
		for _, vpn := range c.req.VPNs {
			r.remote.set(vpn)
		}
		r.Stats.PagesSent += int64(len(c.req.VPNs))
		if last == nil || c.rep.ServiceEnd > last.ServiceEnd {
			last = c.rep
		}
	}
	if err != nil {
		return txns, err
	}
	if last != nil {
		sp.SplitHop(last.ServiceStart, "remote.store")
		sp.SplitHop(last.ServiceEnd, "net.back")
	}
	return txns, nil
}

// payload returns one write RPC's payload: its pages concatenated. Pages
// that are all zero, up to zeroPayload's size, copy nothing: the payload is
// a slice of zeroPayload of the same length, capped so that an append
// cannot write into it.
func payload(pages []stretchdrv.DirtyPage) []byte {
	n, zero := 0, true
	for _, pg := range pages {
		n += len(pg.Data)
		zero = zero && n <= len(zeroPayload) && bytes.Equal(pg.Data, zeroPayload[:len(pg.Data)])
	}
	if zero {
		return zeroPayload[:n:n]
	}
	data := make([]byte, 0, n)
	for _, pg := range pages {
		data = append(data, pg.Data...)
	}
	return data
}
