package usd

import (
	"errors"

	"nemesis/internal/disk"
	"nemesis/internal/sim"
)

// Errors returned by channel operations.
var (
	ErrClosed       = errors.New("usd: channel closed")
	ErrBadRequest   = errors.New("usd: malformed request")
	ErrNoSuchExtent = errors.New("usd: request outside granted extents")
)

// Request is one disk transaction travelling over an IO channel. For writes
// the caller supplies Data; for reads the USD fills Data (allocating it if
// nil). Err carries the outcome back on the completion FIFO.
type Request struct {
	Op    disk.Op
	Block int64 // absolute disk block
	Count int   // number of blocks
	Data  []byte
	Err   error

	// Tag is opaque to the USD; clients use it to match completions when
	// pipelining.
	Tag any

	submitted sim.Time
	started   sim.Time
	completed sim.Time
}

// Submitted returns when the request entered the IO channel.
func (r *Request) Submitted() sim.Time { return r.submitted }

// Started returns when the USD began servicing the request.
func (r *Request) Started() sim.Time { return r.started }

// Completed returns when servicing finished.
func (r *Request) Completed() sim.Time { return r.completed }

// Channel is the FIFO-pair IO channel between one client and the USD (the
// paper's rbufs-like scheme): requests flow in on one FIFO, completions
// return on another. The channel depth bounds how far a client may pipeline.
type Channel struct {
	cl     *client
	usd    *USD
	reqs   *sim.Queue[*Request]
	comps  *sim.Queue[*Request]
	closed bool
}

// Name returns the owning client's name.
func (ch *Channel) Name() string { return ch.cl.ac.Name() }

// Depth returns the pipeline depth.
func (ch *Channel) Depth() int { return ch.reqs.Cap() }

// Pending returns the number of submitted-but-unserviced requests.
func (ch *Channel) Pending() int { return ch.reqs.Len() }

// Submit enqueues a request, blocking p while the FIFO is full. The USD is
// woken and, if the client was accruing lax time, the span is settled.
func (ch *Channel) Submit(p *sim.Proc, r *Request) error {
	if ch.closed {
		return ErrClosed
	}
	if r.Count <= 0 {
		return ErrBadRequest
	}
	if r.Op == disk.Write && len(r.Data) != r.Count*disk.BlockSize {
		return ErrBadRequest
	}
	if r.Op == disk.Read && r.Data == nil {
		r.Data = make([]byte, r.Count*disk.BlockSize)
	}
	if r.Op == disk.Read && len(r.Data) != r.Count*disk.BlockSize {
		return ErrBadRequest
	}
	r.submitted = p.Now()
	if !ch.reqs.Send(p, r) {
		return ErrClosed
	}
	ch.usd.onArrival(ch.cl)
	return nil
}

// Await blocks p until the oldest completion is available.
func (ch *Channel) Await(p *sim.Proc) (*Request, error) {
	r, ok := ch.comps.Recv(p)
	if !ok {
		return nil, ErrClosed
	}
	return r, nil
}

// Do submits r and waits for its completion — the convenience path for
// unpipelined clients such as pagers. The returned request is r itself.
func (ch *Channel) Do(p *sim.Proc, r *Request) (*Request, error) {
	if err := ch.Submit(p, r); err != nil {
		return nil, err
	}
	done, err := ch.Await(p)
	if err != nil {
		return nil, err
	}
	return done, done.Err
}

// Close tears the channel down. In-flight requests complete; subsequent
// submissions fail.
func (ch *Channel) Close() {
	if ch.closed {
		return
	}
	ch.closed = true
	ch.reqs.Close()
	ch.comps.Close()
}
