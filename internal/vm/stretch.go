package vm

import (
	"fmt"
	"sort"

	"nemesis/internal/mem"
)

// StretchID identifies a stretch.
type StretchID uint32

// Stretch is a range of virtual addresses with a certain accessibility. It
// owns no physical resources: only through its binding to a stretch driver
// (maintained by the owning domain, outside this package) does it acquire
// backing.
type Stretch struct {
	id    StretchID
	base  VA
	size  uint64
	owner mem.DomainID
}

// ID returns the stretch identifier.
func (st *Stretch) ID() StretchID { return st.id }

// Base returns the starting address (always page aligned).
func (st *Stretch) Base() VA { return st.base }

// Size returns the length in bytes (always a multiple of the page size).
func (st *Stretch) Size() uint64 { return st.size }

// Owner returns the owning domain.
func (st *Stretch) Owner() mem.DomainID { return st.owner }

// Pages returns the number of pages.
func (st *Stretch) Pages() int { return int(st.size / PageSize) }

// Contains reports whether va lies inside the stretch.
func (st *Stretch) Contains(va VA) bool {
	return va >= st.base && uint64(va-st.base) < st.size
}

// PageBase returns the base address of the i'th page of the stretch.
func (st *Stretch) PageBase(i int) VA { return st.base + VA(uint64(i)*PageSize) }

func (st *Stretch) String() string {
	return fmt.Sprintf("stretch %d [%#x,+%#x) dom %d", st.id, uint64(st.base), st.size, st.owner)
}

// StretchAllocator hands out non-overlapping stretches from the single
// global virtual address space. Allocation is centralised in the system
// domain, as in the paper; protection and mapping are then per-application
// operations.
type StretchAllocator struct {
	ts     *TranslationSystem
	nextID StretchID
	// byBase holds allocated stretches sorted by base for overlap checks
	// and address lookup.
	byBase []*Stretch
	// low/high bound the allocatable VA range.
	low, high VA
	next      VA
}

// NewStretchAllocator creates an allocator over [low, high) attached to ts.
func NewStretchAllocator(ts *TranslationSystem, low, high VA) *StretchAllocator {
	sa := &StretchAllocator{ts: ts, low: low, high: high, next: low, nextID: 1}
	ts.stretches = sa
	return sa
}

// Find returns the stretch containing va, or nil.
func (sa *StretchAllocator) Find(va VA) *Stretch {
	i := sort.Search(len(sa.byBase), func(i int) bool { return sa.byBase[i].base > va })
	if i == 0 {
		return nil
	}
	st := sa.byBase[i-1]
	if st.Contains(va) {
		return st
	}
	return nil
}

// Lookup returns the stretch with the given ID, or nil.
func (sa *StretchAllocator) Lookup(id StretchID) *Stretch {
	for _, st := range sa.byBase {
		if st.id == id {
			return st
		}
	}
	return nil
}

// overlaps reports whether [base, base+size) intersects any stretch. The
// stretches are disjoint and sorted by base, so only the last one based
// below base+size can reach base.
func (sa *StretchAllocator) overlaps(base VA, size uint64) bool {
	end := base + VA(size)
	i := sort.Search(len(sa.byBase), func(i int) bool { return sa.byBase[i].base >= end })
	if i == 0 {
		return false
	}
	st := sa.byBase[i-1]
	return base < st.base+VA(st.size)
}

// insert adds st keeping byBase sorted.
func (sa *StretchAllocator) insert(st *Stretch) {
	i := sort.Search(len(sa.byBase), func(i int) bool { return sa.byBase[i].base > st.base })
	sa.byBase = append(sa.byBase, nil)
	copy(sa.byBase[i+1:], sa.byBase[i:])
	sa.byBase[i] = st
}

// New allocates a stretch of size bytes (rounded up to whole pages) for
// owner, choosing the starting address. The owner's protection domain(s)
// are not touched: granting rights is a separate, explicit step — except
// that the translation system records NULL mappings so that accesses fault
// as page faults rather than unallocated-address faults.
func (sa *StretchAllocator) New(owner mem.DomainID, size uint64) (*Stretch, error) {
	if size == 0 {
		return nil, ErrBadSize
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	base := sa.next
	for sa.overlaps(base, size) {
		// Skip past the conflicting stretch.
		st := sa.Find(base)
		if st == nil {
			base += PageSize
			continue
		}
		base = st.base + VA(st.size)
	}
	if base+VA(size) > sa.high {
		return nil, fmt.Errorf("%w: need %#x at %#x", ErrNoVAS, size, uint64(base))
	}
	return sa.create(owner, base, size)
}

// NewAt allocates a stretch at a caller-chosen base address.
func (sa *StretchAllocator) NewAt(owner mem.DomainID, base VA, size uint64) (*Stretch, error) {
	if size == 0 || base%PageSize != 0 {
		return nil, ErrBadSize
	}
	size = (size + PageSize - 1) &^ (PageSize - 1)
	if base < sa.low || base+VA(size) > sa.high {
		return nil, fmt.Errorf("%w: [%#x,+%#x) outside VAS", ErrNoVAS, uint64(base), size)
	}
	if sa.overlaps(base, size) {
		return nil, fmt.Errorf("%w at %#x", ErrOverlap, uint64(base))
	}
	return sa.create(owner, base, size)
}

func (sa *StretchAllocator) create(owner mem.DomainID, base VA, size uint64) (*Stretch, error) {
	st := &Stretch{id: sa.nextID, base: base, size: size, owner: owner}
	sa.nextID++
	sa.insert(st)
	if end := base + VA(size); end > sa.next {
		sa.next = end
	}
	// High-level translation system: set up NULL mappings so accesses to
	// the fresh stretch raise page faults, not unallocated faults.
	sa.ts.insertNullMappings(st)
	return st, nil
}

// Destroy removes a stretch. All its pages must be unmapped first; the
// caller (system domain) is trusted, but mapped pages indicate a bug, so
// they are reported.
func (sa *StretchAllocator) Destroy(st *Stretch) error {
	for i := 0; i < st.Pages(); i++ {
		if pte := sa.ts.pt.Lookup(PageOf(st.PageBase(i))); pte != nil && pte.Valid {
			return fmt.Errorf("%w: page %d of %v still mapped", ErrBadStretch, i, st)
		}
	}
	for i := range sa.byBase {
		if sa.byBase[i] == st {
			sa.byBase = append(sa.byBase[:i], sa.byBase[i+1:]...)
			sa.ts.removeNullMappings(st)
			return nil
		}
	}
	return fmt.Errorf("%w: %v not allocated", ErrBadStretch, st)
}
