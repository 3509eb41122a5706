package stretchdrv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"nemesis/internal/disk"
	"nemesis/internal/obs"
	"nemesis/internal/sfs"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// DirtyPage is one page of a cleaning batch: the page's base address and a
// read-only view of its contents, valid only until the backing first blocks
// (see Backing.WritePages).
type DirtyPage struct {
	VA   vm.VA
	Data []byte
}

// Backing is a pager's persistent store. The engine asks it whether a page
// has a current on-disk copy, reads single pages in on demand, and hands it
// batches of dirty pages to clean; the backing owns the page-to-disk layout
// (blok map or fixed file offsets) and is free to merge a batch into fewer
// disk transactions.
type Backing interface {
	// Name identifies the backing in metrics and traces.
	Name() string
	// HasCopy reports whether the store holds a current copy of va's page.
	HasCopy(va vm.VA) bool
	// ReadPage fills buf with va's page, blocking p on the disk.
	ReadPage(p *sim.Proc, va vm.VA, buf []byte, sp *obs.Span) error
	// WritePages cleans a batch, returning how many disk transactions it
	// took. On return every written page has a current copy (HasCopy true).
	// Each page's Data is a view of a live frame, valid only until the
	// backing first blocks: once p waits, another process may reuse or
	// rewrite the frame. A backing copies whatever it will still read
	// afterwards before its first blocking call, and never writes to Data.
	WritePages(p *sim.Proc, pages []DirtyPage, sp *obs.Span) (txns int, err error)
}

// ErrNoCopy is returned by a Backing's ReadPage when the store holds no
// current copy of the requested page (HasCopy would report false). Engines
// check HasCopy first, so seeing it indicates a pager bug or a raced drop.
var ErrNoCopy = errors.New("stretchdrv: no backing copy of page")

// writeScratch is the per-WritePages working set: the write buffer holding
// the whole batch in disk order, the batch-ordering slices and the pages
// still needing bloks. Scratches are pooled per backing and checked out for
// the duration of a call, so overlapping WritePages calls (worker eviction
// racing a user-thread Sync) each hold their own, and a steady-state batch
// allocates nothing.
type writeScratch struct {
	buf   []byte
	infos []*pageInfo
	need  []*pageInfo
	order []int
}

// scratchPool is a free list of writeScratch, embedded in each backing.
type scratchPool struct{ free []*writeScratch }

func (p *scratchPool) get() *writeScratch {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	return &writeScratch{}
}

// fill copies every page of the batch into the scratch buffer in sc.order,
// so the k'th page in disk order occupies buf[k*PageSize:(k+1)*PageSize].
func (sc *writeScratch) fill(pages []DirtyPage) []byte {
	buf := sc.buf[:0]
	for _, i := range sc.order {
		buf = append(buf, pages[i].Data...)
	}
	sc.buf = buf
	return buf
}

func (p *scratchPool) put(s *writeScratch) {
	s.buf = s.buf[:0]
	clear(s.infos)
	s.infos = s.infos[:0]
	clear(s.need)
	s.need = s.need[:0]
	s.order = s.order[:0]
	p.free = append(p.free, s)
}

// pageInfo is the swap backing's per-page record. The zero value is a page
// the backing knows nothing of: no blok, no disk copy.
type pageInfo struct {
	blok    int64 // allocated swap blok, if hasBlok
	hasBlok bool
	onDisk  bool // swap copy is current
}

// SwapBacking stores pages in a swap file, tracking space as a bitmap of
// bloks (each exactly one page) allocated lazily at first clean — the
// paper's User-Safe Backing Store scheme.
type SwapBacking struct {
	swap    *sfs.SwapFile
	blok    *BlokAllocator
	pages   vm.Pages[pageInfo]
	scratch scratchPool
}

// NewSwapBacking wraps swap in a blok-managed page store.
func NewSwapBacking(swap *sfs.SwapFile) *SwapBacking {
	blokBlocks := int64(vm.PageSize / disk.BlockSize)
	return &SwapBacking{
		swap: swap,
		blok: NewBlokAllocator(swap.Blocks()/blokBlocks, blokBlocks),
	}
}

// Name implements Backing.
func (b *SwapBacking) Name() string { return "swap" }

// File returns the underlying swap file.
func (b *SwapBacking) File() *sfs.SwapFile { return b.swap }

// FreeBloks returns the unallocated swap capacity in bloks.
func (b *SwapBacking) FreeBloks() int64 { return b.blok.Free() }

// BlokBlocks returns the disk blocks per blok (= per page).
func (b *SwapBacking) BlokBlocks() int64 { return b.blok.BlokBlocks() }

// HasCopy implements Backing.
func (b *SwapBacking) HasCopy(va vm.VA) bool {
	pi := b.pages.At(vm.PageOf(va))
	return pi != nil && pi.onDisk
}

// DiskBlock returns the absolute disk block of va's swap copy, for clients
// (the stream prefetcher) that pipeline raw USD reads past the engine.
func (b *SwapBacking) DiskBlock(va vm.VA) (int64, bool) {
	pi := b.pages.At(vm.PageOf(va))
	if pi == nil || !pi.onDisk {
		return 0, false
	}
	return b.swap.Extent().Start + b.blok.BlockOffset(pi.blok), true
}

// ReadPage implements Backing. A page that was never cleaned (or was
// dropped) has no swap copy to read; that is ErrNoCopy, not a read of a
// bogus disk offset.
func (b *SwapBacking) ReadPage(p *sim.Proc, va vm.VA, buf []byte, sp *obs.Span) error {
	pi := b.pages.At(vm.PageOf(va))
	if pi == nil || !pi.hasBlok || !pi.onDisk {
		return fmt.Errorf("%w: va %#x", ErrNoCopy, uint64(va))
	}
	off := b.blok.BlockOffset(pi.blok)
	return b.swap.ReadSpanned(p, off, int(b.blok.BlokBlocks()), buf, sp)
}

// Drop forgets va's swap copy and frees its blok (the tiered backing demotes
// pages this way after they reach the remote store). Unknown pages are a
// no-op.
func (b *SwapBacking) Drop(va vm.VA) {
	pi := b.pages.At(vm.PageOf(va))
	if pi == nil {
		return
	}
	if pi.hasBlok {
		b.blok.FreeBlok(pi.blok)
	}
	*pi = pageInfo{}
}

// WritePages implements Backing. Pages without a blok get one allocated
// lazily — as a contiguous run when the batch needs several, so the batch
// can merge into few transactions — then disk-adjacent pages are written as
// single multi-block spanned writes: one USD request, one seek. The whole
// batch is copied into the scratch buffer before the first write blocks.
func (b *SwapBacking) WritePages(p *sim.Proc, pages []DirtyPage, sp *obs.Span) (int, error) {
	sc := b.scratch.get()
	defer b.scratch.put(sc)
	infos, need := sc.infos, sc.need
	for _, pg := range pages {
		pi := b.pages.Ensure(vm.PageOf(pg.VA))
		infos = append(infos, pi)
		if !pi.hasBlok {
			need = append(need, pi)
		}
	}
	sc.infos, sc.need = infos, need
	if len(need) > 0 {
		if start, err := b.blok.AllocRun(len(need)); err == nil {
			for i, pi := range need {
				pi.blok, pi.hasBlok = start+int64(i), true
			}
		} else {
			// No contiguous run left: fall back to singles. If the swap
			// fills mid-batch, put the partial allocation back — leaving
			// bloks assigned to pages that were never written would leak
			// them and make HasCopy lie on retry.
			for i, pi := range need {
				blok, err := b.blok.Alloc()
				if err != nil {
					for _, prev := range need[:i] {
						b.blok.FreeBlok(prev.blok)
						prev.hasBlok = false
					}
					return 0, err
				}
				pi.blok, pi.hasBlok = blok, true
			}
		}
	}

	order := sc.order
	for i := range pages {
		order = append(order, i)
	}
	sc.order = order
	slices.SortFunc(order, func(i, j int) int { return cmp.Compare(infos[i].blok, infos[j].blok) })

	buf := sc.fill(pages)
	blocks := int(b.blok.BlokBlocks())
	txns := 0
	for at := 0; at < len(order); {
		run := 1
		for at+run < len(order) && infos[order[at+run]].blok == infos[order[at+run-1]].blok+1 {
			run++
		}
		off := b.blok.BlockOffset(infos[order[at]].blok)
		if err := b.swap.WriteSpanned(p, off, run*blocks, buf[at*vm.PageSize:(at+run)*vm.PageSize], sp); err != nil {
			return txns, err
		}
		txns++
		for k := 0; k < run; k++ {
			infos[order[at+k]].onDisk = true
		}
		at += run
	}
	return txns, nil
}

// MappedBacking stores pages at fixed offsets of an SFS file: page i of the
// stretch is the i'th page-sized run of file blocks. The file is always
// authoritative for non-resident pages, so HasCopy is always true and no
// blok allocator is needed.
type MappedBacking struct {
	file    *sfs.SwapFile
	base    vm.VA
	scratch scratchPool
}

// NewMappedBacking maps the stretch starting at base onto file.
func NewMappedBacking(file *sfs.SwapFile, base vm.VA) *MappedBacking {
	return &MappedBacking{file: file, base: base}
}

// Name implements Backing.
func (b *MappedBacking) Name() string { return "mapped-file" }

// File returns the backing file.
func (b *MappedBacking) File() *sfs.SwapFile { return b.file }

// HasCopy implements Backing: the file always holds every page.
func (b *MappedBacking) HasCopy(vm.VA) bool { return true }

// fileOffset returns the file-relative block offset backing va.
func (b *MappedBacking) fileOffset(va vm.VA) int64 {
	page := int64(uint64(va-b.base) / vm.PageSize)
	return page * int64(vm.PageSize/int64(disk.BlockSize))
}

// ReadPage implements Backing.
func (b *MappedBacking) ReadPage(p *sim.Proc, va vm.VA, buf []byte, sp *obs.Span) error {
	return b.file.ReadSpanned(p, b.fileOffset(va), int(vm.PageSize/int64(disk.BlockSize)), buf, sp)
}

// WritePages implements Backing, merging file-adjacent pages into single
// spanned writes. The whole batch is copied into the scratch buffer before
// the first write blocks.
func (b *MappedBacking) WritePages(p *sim.Proc, pages []DirtyPage, sp *obs.Span) (int, error) {
	sc := b.scratch.get()
	defer b.scratch.put(sc)
	order := sc.order
	for i := range pages {
		order = append(order, i)
	}
	sc.order = order
	slices.SortFunc(order, func(i, j int) int { return cmp.Compare(pages[i].VA, pages[j].VA) })

	buf := sc.fill(pages)
	pageBlocks := int(vm.PageSize / int64(disk.BlockSize))
	txns := 0
	for at := 0; at < len(order); {
		run := 1
		for at+run < len(order) && pages[order[at+run]].VA == pages[order[at+run-1]].VA+vm.VA(vm.PageSize) {
			run++
		}
		off := b.fileOffset(pages[order[at]].VA)
		if err := b.file.WriteSpanned(p, off, run*pageBlocks, buf[at*vm.PageSize:(at+run)*vm.PageSize], sp); err != nil {
			return txns, err
		}
		txns++
		at += run
	}
	return txns, nil
}
