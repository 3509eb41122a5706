package stretchdrv

import (
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// base carries what every driver needs: the owning domain and its handles.
type base struct {
	dom *domain.Domain
}

func (b *base) env() *domain.Env       { return b.dom.Env() }
func (b *base) memc() *mem.Client      { return b.dom.MemClient() }
func (b *base) stack() *mem.FrameStack { return b.dom.MemClient().Stack() }

// findUnusedFrame returns a frame from the domain's unused pool: on the
// frame stack, not currently backing any VA, and Unused in the RamTab.
func (b *base) findUnusedFrame() (mem.PFN, bool) {
	return b.findUnusedFrameExcept(nil)
}

// findUnusedFrameExcept is findUnusedFrame skipping frames already claimed
// by the caller (a Relinquish loop must not count one frame twice).
func (b *base) findUnusedFrameExcept(skip map[mem.PFN]bool) (mem.PFN, bool) {
	ramtab := b.env().RamTab
	for _, e := range b.stack().Entries() {
		if e.VA != 0 || skip[e.PFN] {
			continue
		}
		if s, err := ramtab.State(e.PFN); err == nil && s == mem.Unused {
			return e.PFN, true
		}
	}
	return 0, false
}

// mapFrame installs va -> pfn and updates the frame-stack bookkeeping.
func (b *base) mapFrame(va vm.VA, pfn mem.PFN) error {
	env := b.env()
	if err := env.TS.Map(b.dom.PD(), b.dom.ID(), va, pfn, vm.DefaultAttr()); err != nil {
		return err
	}
	st := b.stack()
	st.SetVA(pfn, uint64(va))
	st.MoveToBottom(pfn) // mapped frames are the last we want revoked
	return nil
}

// unmapVA removes the mapping at va, marks the stack slot unused and
// returns the frame and its dirty state.
func (b *base) unmapVA(va vm.VA) (mem.PFN, bool, error) {
	env := b.env()
	pfn, dirty, err := env.TS.Unmap(b.dom.PD(), b.dom.ID(), va)
	if err != nil {
		return 0, false, err
	}
	st := b.stack()
	st.SetVA(pfn, 0)
	st.MoveToTop(pfn) // unused frames are the first to give up
	return pfn, dirty, nil
}

// Nailed is the simplest stretch driver: it provides physical frames to
// back a stretch at bind time and hence never deals with page faults.
type Nailed struct {
	base
	st *vm.Stretch
}

// BindNailed allocates, maps and nails frames for every page of st. It
// must run with activations on (it allocates frames), i.e. from a thread.
func BindNailed(p *sim.Proc, dom *domain.Domain, st *vm.Stretch) (*Nailed, error) {
	n := &Nailed{base: base{dom: dom}, st: st}
	env := dom.Env()
	for i := 0; i < st.Pages(); i++ {
		pfn, err := dom.MemClient().AllocFrame(p)
		if err != nil {
			return nil, err
		}
		va := st.PageBase(i)
		if err := n.mapFrame(va, pfn); err != nil {
			return nil, err
		}
		if err := env.TS.Nail(dom.PD(), dom.ID(), va); err != nil {
			return nil, err
		}
	}
	dom.Bind(st, n)
	return n, nil
}

// DriverName implements domain.Driver.
func (n *Nailed) DriverName() string { return "nailed" }

// SatisfyFault implements domain.Driver: a nailed stretch never faults, so
// any fault reaching here is unresolvable.
func (n *Nailed) SatisfyFault(p *sim.Proc, f *vm.Fault, canIDC bool) domain.Result {
	return domain.Failure
}

// Relinquish implements domain.Driver: nailed frames are immune.
func (n *Nailed) Relinquish(p *sim.Proc, k int) int { return 0 }

// Physical provides no backing initially; the first authorised access to
// any page faults and the driver maps a frame from the domain's resources.
// It is the engine with no backing store: pages never leave memory once
// mapped, Relinquish can only give up unused frames, and the worker fault
// path may block in the frames allocator.
type Physical struct {
	*Engine
}

// NewPhysical creates a physical stretch driver for st and binds it.
func NewPhysical(dom *domain.Domain, st *vm.Stretch) *Physical {
	d := &Physical{Engine: newEngine(dom, st, "physical", nil, nil, nil, 1)}
	dom.Bind(st, d)
	return d
}
