package stretchdrv

import (
	"fmt"

	"nemesis/internal/vm"
)

// PageState is the view of per-page hardware state a replacement policy may
// consult when choosing a victim. The pager engine implements it over the
// translation system: Referenced reflects the simulated referenced bit, and
// ClearReferenced re-arms fault-on-reference so the bit is set again on the
// page's next access.
type PageState interface {
	Referenced(va vm.VA) bool
	ClearReferenced(va vm.VA)
}

// ReplacementPolicy decides which resident page a pager evicts next. The
// engine owns the resident-page ground truth (page tables, frame stack); the
// policy only orders candidates. Implementations are plain data structures —
// they must not touch the simulator, so victim selection never perturbs
// event order.
type ReplacementPolicy interface {
	// Name identifies the policy in metrics and traces.
	Name() string
	// NoteMapped records that va just became resident.
	NoteMapped(va vm.VA)
	// Victim removes and returns the next page to evict. spared counts
	// pages the policy skipped (and re-armed) because they were referenced;
	// ok is false when no page is resident.
	Victim(ps PageState) (va vm.VA, spared int, ok bool)
	// Len returns the number of tracked resident pages.
	Len() int
	// Resident returns the tracked pages in eviction order (soonest victim
	// first). The returned slice is a read-only view.
	Resident() []vm.VA
}

// PolicyKind names a replacement policy for spec-based construction. The
// empty string means PolicyFIFO.
type PolicyKind string

const (
	// PolicyFIFO is the paper's scheme: evict the oldest mapping.
	PolicyFIFO PolicyKind = "fifo"
	// PolicySecondChance re-queues referenced pages once before evicting —
	// the classic improvement the paper leaves open (§6.6).
	PolicySecondChance PolicyKind = "second-chance"
	// PolicyClock is an LRU approximation: a circular scan that clears
	// referenced bits in place and evicts at the first unreferenced page.
	PolicyClock PolicyKind = "clock"
)

// NewPolicy builds a fresh policy instance of the given kind. Unknown kinds
// return an error so a bad spec fails loudly at construction.
func NewPolicy(kind PolicyKind) (ReplacementPolicy, error) {
	switch kind {
	case "", PolicyFIFO:
		return &fifoPolicy{}, nil
	case PolicySecondChance:
		return &secondChancePolicy{}, nil
	case PolicyClock:
		return &clockPolicy{}, nil
	default:
		return nil, fmt.Errorf("stretchdrv: unknown replacement policy %q", kind)
	}
}

// fifoPolicy evicts in mapping order, ignoring reference state. Its queue
// is read from a head index; once the head passes half the slice the live
// pages are copied back to the front, so a steady evict-and-map cycle
// reuses one backing array instead of sliding along it and reallocating.
type fifoPolicy struct {
	q    []vm.VA // q[head:] are the resident pages, oldest first
	head int
}

func (f *fifoPolicy) Name() string        { return string(PolicyFIFO) }
func (f *fifoPolicy) NoteMapped(va vm.VA) { f.q = append(f.q, va) }
func (f *fifoPolicy) Len() int            { return len(f.q) - f.head }
func (f *fifoPolicy) Resident() []vm.VA   { return f.q[f.head:] }

// pop removes and returns the oldest page; the queue must not be empty.
func (f *fifoPolicy) pop() vm.VA {
	va := f.q[f.head]
	f.head++
	if f.head > len(f.q)/2 {
		f.q = f.q[:copy(f.q, f.q[f.head:])]
		f.head = 0
	}
	return va
}

func (f *fifoPolicy) Victim(PageState) (vm.VA, int, bool) {
	if f.Len() == 0 {
		return 0, 0, false
	}
	return f.pop(), 0, true
}

// secondChancePolicy is FIFO with one reprieve: a referenced page is re-armed
// and re-queued instead of evicted, bounded so a fully referenced set still
// yields a victim.
type secondChancePolicy struct {
	fifoPolicy
}

func (s *secondChancePolicy) Name() string { return string(PolicySecondChance) }

func (s *secondChancePolicy) Victim(ps PageState) (vm.VA, int, bool) {
	spared, passes := 0, 0
	for s.Len() > 0 && passes < 2*s.Len()+2 {
		va := s.pop()
		if ps.Referenced(va) {
			ps.ClearReferenced(va)
			s.NoteMapped(va)
			spared++
			passes++
			continue
		}
		return va, spared, true
	}
	if s.Len() > 0 {
		return s.pop(), spared, true
	}
	return 0, spared, false
}

// clockPolicy keeps resident pages on a ring with a sweep hand: the hand
// clears referenced bits as it passes and evicts at the first unreferenced
// page, approximating LRU at FIFO cost. New pages are inserted just behind
// the hand so a full sweep passes them last.
type clockPolicy struct {
	ring []vm.VA
	hand int
}

func (c *clockPolicy) Name() string { return string(PolicyClock) }
func (c *clockPolicy) Len() int     { return len(c.ring) }

func (c *clockPolicy) NoteMapped(va vm.VA) {
	if len(c.ring) == 0 || c.hand >= len(c.ring) {
		c.ring = append(c.ring, va)
		c.hand = 0
		return
	}
	c.ring = append(c.ring, 0)
	copy(c.ring[c.hand+1:], c.ring[c.hand:])
	c.ring[c.hand] = va
	c.hand++
}

func (c *clockPolicy) Resident() []vm.VA {
	out := make([]vm.VA, 0, len(c.ring))
	out = append(out, c.ring[c.hand:]...)
	out = append(out, c.ring[:c.hand]...)
	return out
}

func (c *clockPolicy) Victim(ps PageState) (vm.VA, int, bool) {
	if len(c.ring) == 0 {
		return 0, 0, false
	}
	spared := 0
	for sweep := 0; sweep < 2*len(c.ring)+2; sweep++ {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		va := c.ring[c.hand]
		if ps.Referenced(va) {
			ps.ClearReferenced(va)
			spared++
			c.hand++
			continue
		}
		return c.remove(), spared, true
	}
	// Every page stayed referenced across two sweeps (cannot happen with a
	// well-behaved PageState, whose ClearReferenced sticks until the next
	// access): force-evict at the hand.
	if c.hand >= len(c.ring) {
		c.hand = 0
	}
	return c.remove(), spared, true
}

// remove evicts the page under the hand, leaving the hand on its successor.
func (c *clockPolicy) remove() vm.VA {
	va := c.ring[c.hand]
	c.ring = append(c.ring[:c.hand], c.ring[c.hand+1:]...)
	if c.hand >= len(c.ring) {
		c.hand = 0
	}
	return va
}
