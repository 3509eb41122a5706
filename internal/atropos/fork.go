package atropos

// Fork returns a deep copy of the core and an identity map from each parent
// client to its forked twin. Everything that influences future decisions is
// copied exactly: client accounting, admission sequence numbers, the
// round-robin slack cursor and slack bitmap, the lazily-invalidated ready
// heap and the release calendar — including their stale entries and removed
// clients, re-pointed at the copied clients, so the forked core drops them
// at the same instants the parent would.
func (co *Core) Fork() (*Core, map[*Client]*Client) {
	m := make(map[*Client]*Client, len(co.clients))
	nc := &Core{
		clients:    make([]*Client, len(co.clients)),
		byName:     make(map[string]*Client, len(co.byName)),
		capacity:   co.capacity,
		contracted: co.contracted,
		slackIdx:   co.slackIdx,
		nextSeq:    co.nextSeq,
	}
	clone := func(c *Client) *Client {
		if c == nil {
			return nil
		}
		if n, ok := m[c]; ok {
			return n
		}
		n := &Client{}
		*n = *c
		m[c] = n
		return n
	}
	for i, c := range co.clients {
		nc.clients[i] = clone(c)
	}
	for name, c := range co.byName {
		nc.byName[name] = clone(c)
	}
	nc.readyq = make(entryHeap, len(co.readyq))
	for i, e := range co.readyq {
		// Stale entries may reference removed clients absent from the
		// client list; clone keeps their snapshot state so the copied heap
		// invalidates them identically.
		nc.readyq[i] = qentry{deadline: e.deadline, seq: e.seq, gen: e.gen, c: clone(e.c)}
	}
	nc.cal = co.cal.fork(clone)
	nc.slackBits = append([]uint64(nil), co.slackBits...)
	return nc, m
}
