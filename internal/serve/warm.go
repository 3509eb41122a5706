package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"nemesis/internal/experiments"
)

// The warm-world pool is the one production use of core.System.Fork: the
// result cache already answers repeat submissions of *identical* specs, but
// specs that share only their expensive warm prefix — a fig. 7 run at 10 s
// and the same run at 40 s — would still re-pay the whole (simulated)
// initialisation phase. The pool keeps a bounded LRU of *resident
// simulations*: warmed experiments.PagingWarm worlds keyed by the content
// hash of the spec with its measured window stripped. A poolable job forks
// the resident world and measures only its own window. Because
// fork-then-measure is byte-identical to measuring the warmed world in
// place (TestPagingForkEquivalence pins this), pooled answers are the same
// bytes experiments.RunSpec produces — residency is purely a latency
// optimisation, never part of result identity. Fork carries exactly the
// world the pool holds (telemetry off, FIFO paged stretches over local
// swap, the linear page table) and refuses anything else with an error.

// warmPrefixKey content-addresses the warm prefix of a spec: the hex
// SHA-256 of the canonical JSON of the normalized spec with Measure
// cleared. ok is false for specs whose world the pool cannot hold —
// only untraced figure 7/8 specs are poolable: their warm phase is by far
// the most expensive, and Fork refuses a world with telemetry on.
func warmPrefixKey(spec experiments.Spec) (string, bool) {
	if spec.Kind != experiments.KindFigure || spec.Trace || (spec.Figure != 7 && spec.Figure != 8) {
		return "", false
	}
	spec.Measure = 0 // the measured window rides on the shared warm prefix
	b, err := CanonicalJSON(spec)
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}

// warmEntry is one resident warmed world. Its mutex serializes
// construction and forking: forking flips the parent's disk chunks to
// copy-on-write, a parent-side mutation that must not race — the forks
// themselves then measure concurrently without coordination.
type warmEntry struct {
	key  string
	mu   sync.Mutex
	warm *experiments.PagingWarm
	// evicted is set once the pool has dropped the entry. A job that took
	// the entry before the eviction must not make it resident again:
	// nothing would ever shut that world down.
	evicted bool
}

// fork returns a fresh fork of the entry's world, warming it with build on
// first use. An evicted entry holds no world, so the job warms a one-shot
// world, forks it and shuts it down again.
func (e *warmEntry) fork(build func() (*experiments.PagingWarm, error)) (*experiments.PagingWarm, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warm == nil {
		w, err := build()
		if err != nil {
			return nil, err
		}
		if e.evicted {
			defer w.Sys.Shutdown()
			return w.Fork()
		}
		e.warm = w
	}
	return e.warm.Fork()
}

// evict marks the entry dropped and shuts its resident world down. The
// entry lock fences any fork still in flight.
func (e *warmEntry) evict() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evicted = true
	if e.warm != nil {
		e.warm.Sys.Shutdown()
		e.warm = nil
	}
}

// warmPool is the bounded LRU of resident warmed worlds.
type warmPool struct {
	mu     sync.Mutex
	max    int
	order  []*warmEntry // front = most recently used
	items  map[string]*warmEntry
	hits   int64
	misses int64
}

func newWarmPool(max int) *warmPool {
	if max < 1 {
		max = 1
	}
	return &warmPool{max: max, items: make(map[string]*warmEntry)}
}

// fork returns a fresh fork of the resident world for key, building and
// admitting the world with build on first use. The pool lock covers only
// the LRU bookkeeping; warming and forking happen under the entry's own
// lock, so concurrent jobs on *different* prefixes never serialize.
func (p *warmPool) fork(key string, build func() (*experiments.PagingWarm, error)) (*experiments.PagingWarm, error) {
	p.mu.Lock()
	e, ok := p.items[key]
	if ok {
		p.hits++
		p.touchLocked(e)
	} else {
		p.misses++
		e = &warmEntry{key: key}
		p.items[key] = e
		p.order = append([]*warmEntry{e}, p.order...)
		for len(p.order) > p.max {
			victim := p.order[len(p.order)-1]
			p.removeLocked(victim)
			// Shut the evicted world down off the pool lock.
			go victim.evict()
		}
	}
	p.mu.Unlock()

	w, err := e.fork(build)
	if err != nil {
		// Never cache failures: drop the entry so the next submission
		// retries the warm-up.
		p.mu.Lock()
		p.removeLocked(e)
		p.mu.Unlock()
		e.evict()
		return nil, err
	}
	return w, nil
}

// removeLocked drops e from the LRU if it is still pooled.
func (p *warmPool) removeLocked(e *warmEntry) {
	if p.items[e.key] != e {
		return
	}
	delete(p.items, e.key)
	for i, o := range p.order {
		if o == e {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

func (p *warmPool) touchLocked(e *warmEntry) {
	for i, o := range p.order {
		if o == e {
			copy(p.order[1:i+1], p.order[:i])
			p.order[0] = e
			return
		}
	}
}

// stats returns cumulative pool counters.
func (p *warmPool) stats() (resident int, hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.order), p.hits, p.misses
}

// close shuts every resident world down.
func (p *warmPool) close() {
	p.mu.Lock()
	order := p.order
	p.order, p.items = nil, make(map[string]*warmEntry)
	p.mu.Unlock()
	for _, e := range order {
		e.evict()
	}
}
