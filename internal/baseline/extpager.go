package baseline

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// ExternalPager models the microkernel arrangement on the left of the
// paper's Fig. 2: a single shared pager domain services every client's
// faults first-come first-served, from one global frame pool with global
// FIFO replacement, over one disk contract. It exists to *measure* the QoS
// crosstalk the paper argues self-paging eliminates: a client's paging
// performance depends on every other client's behaviour.
type ExternalPager struct {
	sys *core.System
	dom *domain.Domain
	ch  *usd.Channel

	blok  *stretchdrv.BlokAllocator
	base  int64 // swap extent base block
	pages map[pageKey]*extPage
	fifo  []*extPage
	queue []*pageReq
	wake  sim.Cond

	// Reusable transfer requests: handle runs serially on the pager
	// thread and Do is synchronous, so one of each suffices.
	wreq, rreq *usd.Request

	// ServiceCost is the pager's per-request CPU cost.
	ServiceCost time.Duration
	// Stats
	Faults, PageIns, PageOuts, Evictions int64
}

type pageKey struct {
	sid vm.StretchID
	vpn vm.VPN
}

type extPage struct {
	key    pageKey
	va     vm.VA
	pfn    mem.PFN
	mapped bool
	blok   int64
	onDisk bool
}

type pageReq struct {
	f    *vm.Fault
	done sim.Cond
	ok   bool
	fin  bool
}

// NewExternalPager creates the pager domain with a pool of poolFrames
// frames, a swap file of swapBytes and one aggregate disk contract.
func NewExternalPager(sys *core.System, poolFrames int, swapBytes int64, diskQoS atropos.QoS) (*ExternalPager, error) {
	dom, err := sys.NewDomain("extpager",
		atropos.QoS{P: 100 * time.Millisecond, S: 30 * time.Millisecond, X: true},
		mem.Contract{Guaranteed: uint64(poolFrames)})
	if err != nil {
		return nil, err
	}
	swap, err := sys.SFS.CreateSwapFile("extpager-swap", swapBytes, diskQoS, 1)
	if err != nil {
		return nil, err
	}
	blokBlocks := int64(vm.PageSize / disk.BlockSize)
	ep := &ExternalPager{
		sys:         sys,
		dom:         dom,
		ch:          swap.Channel(),
		blok:        stretchdrv.NewBlokAllocator(swap.Blocks()/blokBlocks, blokBlocks),
		base:        swap.Extent().Start,
		pages:       make(map[pageKey]*extPage),
		ServiceCost: 20 * time.Microsecond,
	}
	dom.Go("server", func(t *domain.Thread) {
		if err := core.PreallocateFrames(t, poolFrames); err != nil {
			return
		}
		ep.serve(t)
	})
	return ep, nil
}

// Domain returns the pager's domain.
func (ep *ExternalPager) Domain() *domain.Domain { return ep.dom }

// QueueLen returns the number of queued fault requests.
func (ep *ExternalPager) QueueLen() int { return len(ep.queue) }

// NewClientStretch allocates a stretch for client dom, backed by the
// external pager (the pager's protection domain receives the meta right so
// it can install mappings on the client's behalf).
func (ep *ExternalPager) NewClientStretch(client *domain.Domain, size uint64) (*vm.Stretch, error) {
	st, err := client.NewStretch(size)
	if err != nil {
		return nil, err
	}
	ep.sys.TS.GrantInitial(ep.dom.PD(), st.ID(), vm.Read|vm.Write|vm.Meta)
	client.Bind(st, &extDriver{ep: ep})
	return st, nil
}

// extDriver is the client-side stub: every fault is forwarded to the
// external pager (there is nothing the client can do locally — it owns no
// frames).
type extDriver struct {
	ep *ExternalPager
}

func (d *extDriver) DriverName() string { return "external-pager-stub" }

func (d *extDriver) SatisfyFault(p *sim.Proc, f *vm.Fault, canIDC bool) domain.Result {
	if f.Class != vm.PageFault {
		return domain.Failure
	}
	if !canIDC {
		return domain.Retry // IPC to the pager needs a worker thread
	}
	req := &pageReq{f: f}
	d.ep.queue = append(d.ep.queue, req)
	d.ep.wake.Signal()
	for !req.fin {
		req.done.Wait(p)
	}
	if req.ok {
		return domain.Success
	}
	return domain.Failure
}

func (d *extDriver) Relinquish(p *sim.Proc, k int) int { return 0 }

// serve is the pager's main loop: strict FCFS over all clients' faults.
func (ep *ExternalPager) serve(t *domain.Thread) {
	for {
		if len(ep.queue) == 0 {
			ep.wake.Wait(t.Proc())
			continue
		}
		req := ep.queue[0]
		ep.queue = ep.queue[1:]
		t.Compute(ep.ServiceCost)
		req.ok = ep.handle(t, req.f)
		req.fin = true
		req.done.Broadcast()
	}
}

// handle resolves one fault from the global pool.
func (ep *ExternalPager) handle(t *domain.Thread, f *vm.Fault) bool {
	ep.Faults++
	sys := ep.sys
	key := pageKey{f.SID, vm.PageOf(f.VA)}
	pg, known := ep.pages[key]
	if !known {
		pg = &extPage{key: key, va: vm.PageOf(f.VA).Base(), blok: -1}
		ep.pages[key] = pg
	}

	// Get a frame: pool first, then global FIFO eviction (any client's
	// page may be the victim — crosstalk by design).
	pfn, ok := ep.freeFrame()
	if !ok {
		victim := ep.fifo[0]
		ep.fifo = ep.fifo[1:]
		vpfn, dirty, err := sys.TS.Unmap(ep.dom.PD(), ep.dom.ID(), victim.va)
		if err != nil {
			return false
		}
		ep.Evictions++
		if dirty || !victim.onDisk {
			if victim.blok < 0 {
				b, err := ep.blok.Alloc()
				if err != nil {
					return false
				}
				victim.blok = b
			}
			if ep.wreq == nil {
				ep.wreq = &usd.Request{Op: disk.Write, Count: int(ep.blok.BlokBlocks()), Data: make([]byte, vm.PageSize)}
			}
			r := ep.wreq
			r.Block, r.Err = ep.base+ep.blok.BlockOffset(victim.blok), nil
			copy(r.Data, sys.Store.View(vpfn))
			if _, err := ep.ch.Do(t.Proc(), r); err != nil {
				return false
			}
			victim.onDisk = true
			ep.PageOuts++
		}
		victim.mapped = false
		pfn = vpfn
	}

	if pg.onDisk {
		if ep.rreq == nil {
			ep.rreq = &usd.Request{Op: disk.Read, Count: int(ep.blok.BlokBlocks())}
		}
		r := ep.rreq
		r.Block, r.Err = ep.base+ep.blok.BlockOffset(pg.blok), nil
		done, err := ep.ch.Do(t.Proc(), r)
		if err != nil {
			return false
		}
		copy(sys.Store.Frame(pfn), done.Data)
		ep.PageIns++
	} else {
		sys.Store.Zero(pfn)
	}
	if err := sys.TS.Map(ep.dom.PD(), ep.dom.ID(), pg.va, pfn, vm.DefaultAttr()); err != nil {
		return false
	}
	pg.pfn = pfn
	pg.mapped = true
	ep.fifo = append(ep.fifo, pg)
	return true
}

// freeFrame returns an unmapped frame from the pager's pool.
func (ep *ExternalPager) freeFrame() (mem.PFN, bool) {
	for _, e := range ep.dom.MemClient().Stack().Entries() {
		if s, err := ep.sys.RamTab.State(e.PFN); err == nil && s == mem.Unused {
			return e.PFN, true
		}
	}
	return 0, false
}

// String summarises pager activity.
func (ep *ExternalPager) String() string {
	return fmt.Sprintf("extpager: faults=%d ins=%d outs=%d evict=%d", ep.Faults, ep.PageIns, ep.PageOuts, ep.Evictions)
}
