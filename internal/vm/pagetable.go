package vm

import (
	"math/bits"

	"nemesis/internal/mem"
)

// Attr carries the machine-dependent PTE attribute bits exposed through the
// low-level map interface. FOR/FOW (fault-on-read / fault-on-write) are the
// Alpha bits the implementation uses to emulate referenced and dirty bits:
// they are set by software and cleared by the PALcode DFault path, which in
// this model is the page-table walker itself.
type Attr struct {
	FOR bool
	FOW bool
}

// DefaultAttr is the attribute set used for fresh mappings: both fault bits
// armed so the first read marks Referenced and the first write marks Dirty.
func DefaultAttr() Attr { return Attr{FOR: true, FOW: true} }

// PTE is one page-table entry. Present entries exist for every page of
// every allocated stretch (the "NULL mappings" holding protection
// information); Valid entries additionally carry a physical frame. PFN
// comes first so that an entry packs into 24 bytes.
type PTE struct {
	PFN        mem.PFN
	Present    bool
	Valid      bool
	SID        StretchID
	Attr       Attr
	Referenced bool
	Dirty      bool
	// Prot holds per-page protection override bits — the page-table
	// protection path. Effective rights on a page are the union of the
	// protection domain's stretch rights and these bits.
	Prot Rights
	// Width is the superpage width: this page was mapped as part of an
	// aligned block of 1<<Width pages backed by contiguous frames, which
	// the TLB may cover with a single wide entry. 0 = a normal page.
	Width uint8
}

// pageChunkBits sets the chunk size of a Pages table: 512 entries.
const (
	pageChunkBits = 9
	pageChunk     = 1 << pageChunkBits
)

// Pages is a table indexed by virtual page number, holding a T by value for
// every page: a directory of fixed 512-entry chunks, indexed by VPN relative
// to the lowest chunk in use. A chunk is allocated the first time Ensure
// reaches it and never moves, so a pointer to an entry stays valid for the
// table's lifetime; pages of a chunk never ensured read as absent. The zero
// value is an empty table.
type Pages[T any] struct {
	base uint64 // chunk number of dir[0]
	dir  []*[pageChunk]T
}

// At returns the entry for vpn, or nil if its chunk was never allocated.
func (t *Pages[T]) At(vpn VPN) *T {
	// A VPN below base wraps to a huge index and fails the bound check.
	i := uint64(vpn)>>pageChunkBits - t.base
	if i >= uint64(len(t.dir)) || t.dir[i] == nil {
		return nil
	}
	return &t.dir[i][vpn&(pageChunk-1)]
}

// Ensure returns the entry for vpn, allocating its chunk (and widening the
// directory, at either end) if needed.
func (t *Pages[T]) Ensure(vpn VPN) *T {
	n := uint64(vpn) >> pageChunkBits
	switch {
	case len(t.dir) == 0:
		t.base = n
		t.dir = make([]*[pageChunk]T, 1)
	case n < t.base:
		dir := make([]*[pageChunk]T, t.base-n+uint64(len(t.dir)))
		copy(dir[t.base-n:], t.dir)
		t.base, t.dir = n, dir
	case n-t.base >= uint64(len(t.dir)):
		t.dir = append(t.dir, make([]*[pageChunk]T, n-t.base+1-uint64(len(t.dir)))...)
	}
	c := &t.dir[n-t.base]
	if *c == nil {
		*c = new([pageChunk]T)
	}
	return &(*c)[vpn&(pageChunk-1)]
}

// Clone returns a deep copy of t: the same directory shape with every chunk
// copied.
func (t *Pages[T]) Clone() Pages[T] {
	nt := Pages[T]{base: t.base, dir: make([]*[pageChunk]T, len(t.dir))}
	for i, c := range t.dir {
		if c != nil {
			nc := *c
			nt.dir[i] = &nc
		}
	}
	return nt
}

// PageTable is the linear page table: conceptually an array over the whole
// virtual address space (the paper uses an 8 GB linear array mapped through
// a secondary table); here a Pages table of PTEs, whose chunk directory
// plays the secondary table. All lookups run real code whose simulated
// cost the cpu package charges.
type PageTable struct {
	entries Pages[PTE]
	n       int // present entries
	lookups int64
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// Lookups returns the number of entry lookups performed (walk count).
func (pt *PageTable) Lookups() int64 { return pt.lookups }

// Lookup returns the entry for vpn, or nil if the page is unallocated.
func (pt *PageTable) Lookup(vpn VPN) *PTE {
	pt.lookups++
	if e := pt.entries.At(vpn); e != nil && e.Present {
		return e
	}
	return nil
}

// Insert creates a NULL (present, invalid) entry for vpn belonging to sid,
// replacing any entry already there.
func (pt *PageTable) Insert(vpn VPN, sid StretchID) {
	e := pt.entries.Ensure(vpn)
	if !e.Present {
		pt.n++
	}
	*e = PTE{Present: true, SID: sid}
}

// Delete removes the entry for vpn entirely (stretch destruction).
func (pt *PageTable) Delete(vpn VPN) {
	if e := pt.entries.At(vpn); e != nil && e.Present {
		*e = PTE{}
		pt.n--
	}
}

// Entries returns the number of present entries.
func (pt *PageTable) Entries() int { return pt.n }

// tlbEntry is one TLB slot, tagged with an address-space number so context
// switches need no flush. A slot may cover a superpage: an aligned block of
// 1<<width pages whose per-page PTEs are carried so the walker still sees
// the right frame and dirty bits ("multiple TLB page sizes" is one of the
// hardware features the paper faults other systems for hiding).
type tlbEntry struct {
	valid bool
	vpn   VPN // block base
	asn   uint16
	width uint8
	ptes  []*PTE  // 1<<width entries, indexed by vpn-base
	pte0  [1]*PTE // inline storage for width-0 entries (no fill alloc)
}

func (e *tlbEntry) covers(vpn VPN) bool {
	return e.valid && vpn >= e.vpn && vpn < e.vpn+VPN(1)<<e.width
}

// TLBSize matches the Alpha 21164 data TLB (64 entries, fully associative;
// replacement here is FIFO via a cursor, which is deterministic).
const TLBSize = 64

// TLB models the translation look-aside buffer. It exists so that the
// microbenchmarks exercise a realistic lookup path (hit/miss accounting)
// and so unmap must perform shootdown.
type TLB struct {
	slots  [TLBSize]tlbEntry
	cursor int
	// idx holds, per page, a mask of the valid width-0 slots caching it
	// (bit i for slot i, any ASN), so a lookup or a shootdown finds its
	// slots without scanning all 64; the slot array stays the ground
	// truth. nSuper counts valid superpage slots so the scan fallback runs
	// only when one could hit.
	idx    map[VPN]uint64
	nSuper int
	hits   int64
	misses int64
}

// dropSlot invalidates slot i and unhooks it from the index bookkeeping.
func (t *TLB) dropSlot(i int) {
	e := &t.slots[i]
	if !e.valid {
		return
	}
	e.valid = false
	if e.width == 0 {
		if m := t.idx[e.vpn] &^ (1 << i); m != 0 {
			t.idx[e.vpn] = m
		} else {
			delete(t.idx, e.vpn)
		}
	} else {
		t.nSuper--
	}
}

// newest returns the most recently filled slot of mask m whose ASN is
// asn. The cursor is the oldest slot, so with m rotated to start there the
// highest set bit is the newest. A page cached twice for one ASN (a refill
// while the first copy is valid) thus resolves to the later fill, whose
// copy FIFO eviction always keeps the longer.
func (t *TLB) newest(m uint64, asn uint16) (int, bool) {
	for r := bits.RotateLeft64(m, -t.cursor); r != 0; {
		k := 63 - bits.LeadingZeros64(r)
		if i := (k + t.cursor) % TLBSize; t.slots[i].asn == asn {
			return i, true
		}
		r &^= 1 << k
	}
	return 0, false
}

// Hits returns the hit count.
func (t *TLB) Hits() int64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() int64 { return t.misses }

// Lookup returns the cached PTE for (vpn, asn), if any. Superpage entries
// hit for every page they cover.
func (t *TLB) Lookup(vpn VPN, asn uint16) *PTE {
	if i, ok := t.newest(t.idx[vpn], asn); ok {
		t.hits++
		return t.slots[i].ptes[0]
	}
	if t.nSuper > 0 {
		for i := range t.slots {
			e := &t.slots[i]
			if e.asn == asn && e.covers(vpn) {
				t.hits++
				return e.ptes[vpn-e.vpn]
			}
		}
	}
	t.misses++
	return nil
}

// Fill installs a normal (width 0) translation, evicting FIFO.
func (t *TLB) Fill(vpn VPN, asn uint16, pte *PTE) {
	if t.idx == nil {
		t.idx = make(map[VPN]uint64, TLBSize)
	}
	t.dropSlot(t.cursor)
	e := &t.slots[t.cursor]
	*e = tlbEntry{valid: true, vpn: vpn, asn: asn}
	e.pte0[0] = pte
	e.ptes = e.pte0[:1]
	t.idx[vpn] |= 1 << t.cursor
	t.cursor = (t.cursor + 1) % TLBSize
}

// FillSuper installs a superpage translation covering 1<<width pages from
// base. ptes must hold the per-page entries in order.
func (t *TLB) FillSuper(base VPN, asn uint16, width uint8, ptes []*PTE) {
	t.dropSlot(t.cursor)
	t.slots[t.cursor] = tlbEntry{valid: true, vpn: base, asn: asn, width: width, ptes: ptes}
	t.nSuper++
	t.cursor = (t.cursor + 1) % TLBSize
}

// InvalidateVA removes all translations covering vpn (any ASN) — the
// shootdown unmap performs. A superpage entry containing the page is
// dropped whole.
func (t *TLB) InvalidateVA(vpn VPN) {
	for m := t.idx[vpn]; m != 0; m &= m - 1 {
		t.dropSlot(bits.TrailingZeros64(m))
	}
	if t.nSuper > 0 {
		for i := range t.slots {
			if t.slots[i].width > 0 && t.slots[i].covers(vpn) {
				t.dropSlot(i)
			}
		}
	}
}

// InvalidateASN removes all translations for one address-space number
// (protection-domain destruction).
func (t *TLB) InvalidateASN(asn uint16) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].asn == asn {
			t.dropSlot(i)
		}
	}
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	for i := range t.slots {
		t.dropSlot(i)
	}
}
