package stretchdrv

import (
	"nemesis/internal/domain"
	"nemesis/internal/sfs"
	"nemesis/internal/vm"
)

// PagerOptions selects the composable pieces of a pager engine. The zero
// value is the paper's driver: FIFO replacement, demand writeback, no write
// clustering.
type PagerOptions struct {
	// Policy picks the replacement policy ("" = FIFO).
	Policy PolicyKind
	// Writeback picks when dirty data reaches the backing store
	// ("" = demand).
	Writeback WritebackKind
	// ClusterSize caps how many dirty pages one eviction gathers into a
	// single cleaning batch (<= 1 disables clustering).
	ClusterSize int
}

// Paged extends the physical driver with a binding to the User-Safe Backing
// Store: it may swap pages out to its swap file and page them back in on
// demand. Swap space is tracked as a bitmap of bloks. The default scheme is
// fairly pure demand paging — no pre-paging, eviction only when a fault
// finds no free frame — with replacement, writeback and clustering pluggable
// via PagerOptions.
type Paged struct {
	*Engine
	swap *SwapBacking
}

// NewPaged builds a paged driver over an arbitrary Backing (a local swap
// file, a remote store, a tiered composition...) and binds it. The engine
// is identical in every case; only where cleaned pages go differs.
func NewPaged(dom *domain.Domain, st *vm.Stretch, backing Backing, opt PagerOptions) (*Paged, error) {
	policy, err := NewPolicy(opt.Policy)
	if err != nil {
		return nil, err
	}
	wb, err := NewWriteback(opt.Writeback)
	if err != nil {
		return nil, err
	}
	swap, _ := backing.(*SwapBacking) // nil for non-swap backings
	d := &Paged{
		Engine: newEngine(dom, st, "paged", policy, backing, wb, opt.ClusterSize),
		swap:   swap,
	}
	dom.Bind(st, d)
	return d, nil
}

// Backing exposes the driver's backing store.
func (d *Paged) Backing() Backing { return d.Engine.backing }

// Swap exposes the backing swap file, or nil when the driver pages to a
// non-swap backing (remote, tiered).
func (d *Paged) Swap() *sfs.SwapFile {
	if d.swap == nil {
		return nil
	}
	return d.swap.File()
}

// SwapFreeBloks returns the unallocated swap capacity in bloks (0 for
// non-swap backings).
func (d *Paged) SwapFreeBloks() int64 {
	if d.swap == nil {
		return 0
	}
	return d.swap.FreeBloks()
}
