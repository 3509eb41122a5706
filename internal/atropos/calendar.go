package atropos

import (
	"container/heap"

	"nemesis/internal/sim"
)

// calEntry is one release instant of the calendar: the clients filed to
// receive their next allocation at t, in filing order. A removed client
// stays in the list, and Refresh skips it; live counts the rest.
type calEntry struct {
	t       sim.Time
	clients []*Client
	live    int
}

// calendar files every client at its release instant, its current
// deadline. Clients that share a period boundary share an entry, so a
// boundary costs one heap operation however many clients it releases, and
// each client it re-grants is filed anew by a scan of the entries. The
// instants sit in a min-heap of entries, one per distinct instant; every
// figure, suite and cluster world keeps at most two per core, so the scan
// is short and a core allocates no index. Released entries are recycled
// with their client lists, so a boundary allocates nothing in steady state.
type calendar struct {
	heap calHeap
	free []*calEntry
}

// find returns the entry filed at instant t, or nil.
func (cal *calendar) find(t sim.Time) *calEntry {
	for _, e := range cal.heap {
		if e.t == t {
			return e
		}
	}
	return nil
}

// file adds c at its deadline.
func (cal *calendar) file(c *Client) {
	e := cal.find(c.deadline)
	if e == nil {
		if n := len(cal.free); n > 0 {
			e = cal.free[n-1]
			cal.free = cal.free[:n-1]
		} else {
			e = &calEntry{}
		}
		e.t = c.deadline
		heap.Push(&cal.heap, e)
	}
	e.clients = append(e.clients, c)
	e.live++
}

// fork returns a copy of the calendar whose entries list the clients clone
// maps them to, in the same order and heap layout.
func (cal *calendar) fork(clone func(*Client) *Client) calendar {
	nc := calendar{heap: make(calHeap, len(cal.heap))}
	for i, e := range cal.heap {
		ne := &calEntry{t: e.t, clients: make([]*Client, len(e.clients)), live: e.live}
		for j, c := range e.clients {
			ne.clients[j] = clone(c)
		}
		nc.heap[i] = ne
	}
	return nc
}

// unfile discounts c, which is being removed, from the entry it is filed in.
func (cal *calendar) unfile(c *Client) { cal.find(c.deadline).live-- }

// first returns the earliest entry that holds a live client, recycling the
// entries before it, or nil.
func (cal *calendar) first() *calEntry {
	for len(cal.heap) > 0 {
		if e := cal.heap[0]; e.live > 0 {
			return e
		}
		cal.recycle(heap.Pop(&cal.heap).(*calEntry))
	}
	return nil
}

// recycle returns a popped entry to the free list.
func (cal *calendar) recycle(e *calEntry) {
	clear(e.clients)
	e.clients = e.clients[:0]
	e.live = 0
	cal.free = append(cal.free, e)
}

// calHeap is the calendar's entries as a container/heap min-heap by
// instant. It holds one entry per distinct release instant, so it is small
// and touched once per instant a boundary releases.
type calHeap []*calEntry

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEntry)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}
