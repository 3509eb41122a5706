package stretchdrv

import (
	"errors"

	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// ErrNoVictim is returned when eviction is needed but no page is resident.
var ErrNoVictim = errors.New("stretchdrv: no pages to evict")

// PagerStats counts a pager engine's activity. One struct serves every
// driver; fields that a configuration cannot produce simply stay zero.
type PagerStats struct {
	// Faults counts the faults the driver was asked to resolve, each once:
	// at its first entry, the notification handler's fast path, whichever
	// driver takes it there (Streaming counts one that waits for a
	// prefetch). A fault the fast path retries to a worker is not counted
	// again there. FastFaults counts those the fast path resolved.
	Faults     int64
	FastFaults int64
	PageIns    int64
	PageOuts   int64
	Evictions  int64
	ZeroFills  int64
	// Spares counts pages the replacement policy re-armed and skipped
	// instead of evicting (second chance, clock).
	Spares int64
	Syncs  int64
	// CleanVictims/DirtyVictims split evictions by whether the victim
	// needed a write-back.
	CleanVictims int64
	DirtyVictims int64
	// CleanedPages/CleanBatches/CleanTxns describe eviction-time cleaning:
	// pages written, gather batches issued, and disk transactions those
	// batches merged into. CleanTxns < CleanedPages means write clustering
	// amortised rotations.
	CleanedPages int64
	CleanBatches int64
	CleanTxns    int64
}

// Engine is the shared pager core: it owns the resident-page ground truth
// (page tables, frame stack, RamTab interaction), fault dispatch, eviction
// and Relinquish, parameterised by a ReplacementPolicy (which page goes), a
// Backing (where it goes) and a WritebackPolicy (when it goes). The concrete
// drivers — Paged, Mapped, Physical, Streaming — are thin compositions over
// it.
type Engine struct {
	base
	name      string
	st        *vm.Stretch
	policy    ReplacementPolicy
	backing   Backing // nil: no backing store (physical driver)
	writeback WritebackPolicy
	cluster   int

	Stats PagerStats

	// bufs is a free list of page-sized buffers for page-ins: a page is
	// read into one and then copied into its frame, since another process
	// could claim the frame while the read blocks. batches is a free list of
	// cleaning batches, whose pages are read-only views of frames
	// (FrameStore.View), not buffers: a backing copies them before it first
	// blocks. A view must never enter bufs, or a page-in would write into a
	// live frame. The cooperative process model makes get/put pairs atomic
	// between blocking points, so concurrent checkouts (worker eviction vs.
	// a user-thread Sync) simply draw different entries.
	bufs    [][]byte
	batches [][]DirtyPage

	// Cached telemetry handles (nil when the domain has no registry).
	cPageIns      *obs.Counter
	cPageOuts     *obs.Counter
	cEvictions    *obs.Counter
	cPolicyEvict  *obs.Counter
	cVictimClean  *obs.Counter
	cVictimDirty  *obs.Counter
	cCleanedPages *obs.Counter
	cCleanBatches *obs.Counter
	cSpares       *obs.Counter
}

// newEngine builds the core for a driver. policy and wb may be nil for the
// defaults (FIFO, demand); cluster < 1 means no write clustering.
func newEngine(dom *domain.Domain, st *vm.Stretch, name string, policy ReplacementPolicy, backing Backing, wb WritebackPolicy, cluster int) *Engine {
	if policy == nil {
		policy = &fifoPolicy{}
	}
	if wb == nil {
		wb = demandWriteback{}
	}
	if cluster < 1 {
		cluster = 1
	}
	e := &Engine{
		base:      base{dom: dom},
		name:      name,
		st:        st,
		policy:    policy,
		backing:   backing,
		writeback: wb,
		cluster:   cluster,
	}
	if r := dom.Env().Obs; r != nil {
		e.cPageIns = r.Counter("driver", "pageins", dom.Name())
		e.cPageOuts = r.Counter("driver", "pageouts", dom.Name())
		e.cEvictions = r.Counter("driver", "evictions", dom.Name())
		e.cPolicyEvict = r.Counter("pager", "evictions_"+policy.Name(), dom.Name())
		e.cVictimClean = r.Counter("pager", "victims_clean", dom.Name())
		e.cVictimDirty = r.Counter("pager", "victims_dirty", dom.Name())
		e.cCleanedPages = r.Counter("pager", "cleaned_pages", dom.Name())
		e.cCleanBatches = r.Counter("pager", "clean_batches", dom.Name())
		e.cSpares = r.Counter("pager", "spares_"+policy.Name(), dom.Name())
	}
	return e
}

// getPageBuf checks a page-sized buffer out of the free list.
func (e *Engine) getPageBuf() []byte {
	if n := len(e.bufs); n > 0 {
		b := e.bufs[n-1]
		e.bufs[n-1] = nil
		e.bufs = e.bufs[:n-1]
		return b
	}
	return make([]byte, vm.PageSize)
}

// putPageBuf returns a buffer to the free list.
func (e *Engine) putPageBuf(b []byte) { e.bufs = append(e.bufs, b) }

// getBatch checks an empty cleaning batch out of the free list.
func (e *Engine) getBatch() []DirtyPage {
	if n := len(e.batches); n > 0 {
		b := e.batches[n-1]
		e.batches[n-1] = nil
		e.batches = e.batches[:n-1]
		return b
	}
	return nil
}

// putBatch recycles a finished cleaning batch. Its pages are frame views,
// so none of them goes back to the page-buffer free list.
func (e *Engine) putBatch(b []DirtyPage) {
	clear(b)
	e.batches = append(e.batches, b[:0])
}

// cleaned marks a mapped page clean and re-arms fault-on-write, so a write
// from here on dirties it again. The engine calls it as it takes the page's
// view for a write-back, not after the write returns: a write that lands
// while the write-back blocks must not be marked clean with it.
func cleaned(pte *vm.PTE) {
	pte.Dirty = false
	pte.Attr.FOW = true
}

// redirty marks the still-mapped pages of a failed write-back dirty again.
func (e *Engine) redirty(pages []DirtyPage) {
	pt := e.env().TS.PageTable()
	for _, pg := range pages {
		if pte := pt.Lookup(vm.PageOf(pg.VA)); pte != nil && pte.Valid {
			pte.Dirty = true
			pte.Attr.FOW = false
		}
	}
}

// DriverName implements domain.Driver.
func (e *Engine) DriverName() string { return e.name }

// Policy exposes the replacement policy (read-only use).
func (e *Engine) Policy() ReplacementPolicy { return e.policy }

// Writeback exposes the writeback policy.
func (e *Engine) Writeback() WritebackPolicy { return e.writeback }

// ClusterSize returns the maximum pages gathered per cleaning batch.
func (e *Engine) ClusterSize() int { return e.cluster }

// ResidentPages returns the number of policy-tracked mapped pages.
func (e *Engine) ResidentPages() int { return e.policy.Len() }

// Referenced implements PageState over the translation system.
func (e *Engine) Referenced(va vm.VA) bool {
	ref, err := e.env().TS.IsReferenced(va)
	return err == nil && ref
}

// ClearReferenced implements PageState: clear the bit and re-arm
// fault-on-reference so the next access sets it again.
func (e *Engine) ClearReferenced(va vm.VA) {
	if pte := e.env().TS.PageTable().Lookup(vm.PageOf(va)); pte != nil {
		pte.Referenced = false
		pte.Attr.FOR = true
	}
}

// SatisfyFault implements domain.Driver for every engine-backed driver. The
// fast path (notification handler; no IDC) resolves only faults that need no
// disk work and have a free frame in hand; everything else Retries to a
// worker thread. With no backing store the worker may block in the frames
// allocator; with one, it prefers TryAllocFrame and falls back to evicting
// one of the domain's own pages.
func (e *Engine) SatisfyFault(p *sim.Proc, f *vm.Fault, canIDC bool) domain.Result {
	if !canIDC {
		e.Stats.Faults++
	}
	if f.Class != vm.PageFault || !e.st.Contains(f.VA) {
		return domain.Failure
	}
	f.Span.BeginHop("driver")
	va := vm.PageOf(f.VA).Base()
	needsPageIn := e.backing != nil && e.backing.HasCopy(va) && e.writeback.RecallDiskCopy()

	pfn, haveFrame := e.findUnusedFrame()
	if !canIDC {
		if !haveFrame || needsPageIn {
			return domain.Retry
		}
		e.Stats.FastFaults++
	}

	if !haveFrame {
		if e.backing == nil {
			// No backing store: nothing to evict, so block on the
			// allocator (which may revoke from other domains).
			newPFN, err := e.memc().AllocFrame(p)
			if err != nil {
				return domain.Failure
			}
			pfn = newPFN
		} else if newPFN, err := e.memc().TryAllocFrame(); err == nil {
			// The allocator may have optimistic frames for us.
			pfn = newPFN
		} else {
			f.Span.BeginHop("evict")
			evicted, err := e.evictOne(p, f.Span)
			if err != nil {
				return domain.Failure
			}
			pfn = evicted
		}
	}

	if needsPageIn {
		// The read lands in a pooled buffer rather than the frame itself:
		// another process could claim the unused frame while this one blocks
		// on the disk, and every backing fills (or copies into) buf before
		// returning, so recycling it immediately after the copy is safe.
		buf := e.getPageBuf()
		err := e.backing.ReadPage(p, va, buf, f.Span)
		if err == nil {
			copy(e.env().Store.Frame(pfn), buf)
		}
		e.putPageBuf(buf)
		if err != nil {
			return domain.Failure
		}
		e.Stats.PageIns++
		e.cPageIns.Inc()
	} else {
		e.env().Store.Zero(pfn)
		e.Stats.ZeroFills++
	}

	f.Span.BeginHop("map")
	if err := e.mapFrame(va, pfn); err != nil {
		return domain.Failure
	}
	if e.backing != nil {
		e.policy.NoteMapped(va)
	}
	// The mapping is fresh: the in-memory copy will diverge on first write
	// (FOW tracks that); until then any disk copy stays valid, so an
	// unmodified page needs no write-back.
	return domain.Success
}

// evictOne unmaps a policy-chosen victim, cleaning it (and, with clustering,
// up to ClusterSize-1 further dirty resident pages in one batch) if the
// writeback policy says so, and returns the freed frame. Runs only in worker
// context (disk IDC). sp, when non-nil, receives the write-back's USD hops —
// eviction on behalf of a demand fault is part of that fault's causal chain.
func (e *Engine) evictOne(p *sim.Proc, sp *obs.Span) (mem.PFN, error) {
	va, spared, ok := e.policy.Victim(e)
	if spared > 0 {
		e.Stats.Spares += int64(spared)
		e.cSpares.Add(int64(spared))
	}
	if !ok {
		return 0, ErrNoVictim
	}
	pfn, dirty, err := e.unmapVA(va)
	if err != nil {
		return 0, err
	}
	if dirty || !e.backing.HasCopy(va) {
		e.Stats.DirtyVictims++
		e.cVictimDirty.Inc()
		if e.writeback.CleanOnEvict() {
			batch := e.gatherCluster(va, pfn)
			txns, err := e.backing.WritePages(p, batch, sp)
			if err != nil {
				e.redirty(batch[1:])
				e.putBatch(batch)
				return 0, err
			}
			e.Stats.PageOuts += int64(len(batch))
			e.cPageOuts.Add(int64(len(batch)))
			e.Stats.CleanedPages += int64(len(batch))
			e.cCleanedPages.Add(int64(len(batch)))
			e.Stats.CleanBatches++
			e.cCleanBatches.Inc()
			e.Stats.CleanTxns += int64(txns)
			e.putBatch(batch)
		}
	} else {
		e.Stats.CleanVictims++
		e.cVictimClean.Inc()
	}
	e.Stats.Evictions++
	e.cEvictions.Inc()
	e.cPolicyEvict.Inc()
	return pfn, nil
}

// gatherCluster batches views of the victim page plus up to ClusterSize-1
// further dirty resident pages (in eviction order, so the pages cleaned
// early are the ones leaving soonest anyway) for one write-back, marking the
// extra pages clean as it takes them.
func (e *Engine) gatherCluster(va vm.VA, pfn mem.PFN) []DirtyPage {
	store := e.env().Store
	batch := append(e.getBatch(), DirtyPage{VA: va, Data: store.View(pfn)})
	if e.cluster <= 1 {
		return batch
	}
	pt := e.env().TS.PageTable()
	for _, other := range e.policy.Resident() {
		if len(batch) >= e.cluster {
			break
		}
		pte := pt.Lookup(vm.PageOf(other))
		if pte == nil || !pte.Valid || !pte.Dirty {
			continue
		}
		cleaned(pte)
		batch = append(batch, DirtyPage{VA: other, Data: store.View(pte.PFN)})
	}
	return batch
}

// Sync writes every dirty resident page to the backing store (msync), in
// cleaning batches of up to ClusterSize. Pages stay mapped; each is marked
// clean, with fault-on-write re-armed, as it joins a batch, and marked dirty
// again if its batch fails.
func (e *Engine) Sync(p *sim.Proc) error {
	e.Stats.Syncs++
	if e.backing == nil {
		return nil
	}
	store, pt := e.env().Store, e.env().TS.PageTable()
	batch := e.getBatch()
	defer func() { e.putBatch(batch) }()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := e.backing.WritePages(p, batch, nil); err != nil {
			e.redirty(batch)
			return err
		}
		e.Stats.PageOuts += int64(len(batch))
		e.cPageOuts.Add(int64(len(batch)))
		clear(batch)
		batch = batch[:0]
		return nil
	}
	for _, va := range e.policy.Resident() {
		pte := pt.Lookup(vm.PageOf(va))
		if pte == nil || !pte.Valid || !pte.Dirty {
			continue
		}
		cleaned(pte)
		batch = append(batch, DirtyPage{VA: va, Data: store.View(pte.PFN)})
		if len(batch) >= e.cluster {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// Relinquish implements domain.Driver: free unused frames first, then clean
// and evict mapped pages (when there is a backing store to evict into),
// leaving the freed frames at the top of the stack for the allocator to
// reclaim.
func (e *Engine) Relinquish(p *sim.Proc, k int) int {
	claimed := make(map[mem.PFN]bool)
	for len(claimed) < k {
		if pfn, ok := e.findUnusedFrameExcept(claimed); ok {
			claimed[pfn] = true
			e.stack().MoveToTop(pfn)
			continue
		}
		if e.backing == nil {
			break // nowhere to save page contents
		}
		pfn, err := e.evictOne(p, nil)
		if err != nil {
			break
		}
		claimed[pfn] = true
		e.stack().MoveToTop(pfn)
	}
	return len(claimed)
}
