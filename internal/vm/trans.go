package vm

import (
	"fmt"

	"nemesis/internal/mem"
)

// TranslationSystem deals with inserting, retrieving and deleting mappings
// between virtual and physical addresses. It is split, as in the paper,
// into a high-level part (private to the system domain: bootstrapping,
// NULL-mapping construction, protection-domain management, RamTab
// maintenance) and a low-level part (the map/unmap/trans operations domains
// invoke directly via system calls, validated against meta rights and the
// RamTab).
type TranslationSystem struct {
	pt        Table
	tlb       *TLB
	ramtab    *mem.RamTab
	pds       pdAllocator
	stretches *StretchAllocator
}

// NewTranslationSystem creates the translation system over a RamTab, using
// the linear page table.
func NewTranslationSystem(ramtab *mem.RamTab) *TranslationSystem {
	return NewTranslationSystemWithTable(ramtab, NewPageTable())
}

// NewTranslationSystemWithTable creates the translation system over a
// specific page-table implementation (linear or guarded).
func NewTranslationSystemWithTable(ramtab *mem.RamTab, table Table) *TranslationSystem {
	return &TranslationSystem{
		pt:     table,
		tlb:    &TLB{},
		ramtab: ramtab,
	}
}

// PageTable exposes the table (for the system domain and tests). The name
// follows the paper; the concrete implementation may be linear or guarded.
func (ts *TranslationSystem) PageTable() Table { return ts.pt }

// TLB exposes the TLB model.
func (ts *TranslationSystem) TLB() *TLB { return ts.tlb }

// Stretches returns the stretch allocator bound to this translation system.
func (ts *TranslationSystem) Stretches() *StretchAllocator { return ts.stretches }

// --- High-level part (system domain only) ---

// insertNullMappings creates present-but-invalid entries for every page of
// st, so accesses raise page faults (not unallocated faults) and protection
// information has somewhere to live.
func (ts *TranslationSystem) insertNullMappings(st *Stretch) {
	for i := 0; i < st.Pages(); i++ {
		ts.pt.Insert(PageOf(st.PageBase(i)), st.id)
	}
}

// removeNullMappings deletes st's entries on destruction.
func (ts *TranslationSystem) removeNullMappings(st *Stretch) {
	for i := 0; i < st.Pages(); i++ {
		vpn := PageOf(st.PageBase(i))
		ts.pt.Delete(vpn)
		ts.tlb.InvalidateVA(vpn)
	}
}

// NewProtectionDomain creates a protection domain with a fresh ASN.
func (ts *TranslationSystem) NewProtectionDomain() (*ProtectionDomain, error) {
	return ts.pds.new()
}

// DestroyProtectionDomain removes pd and invalidates its translations.
func (ts *TranslationSystem) DestroyProtectionDomain(pd *ProtectionDomain) {
	ts.tlb.InvalidateASN(pd.asn)
	ts.pds.remove(pd)
}

// GrantInitial is the system-domain bootstrap path: it installs rights on a
// protection domain without a meta-right check. The stretch allocator uses
// it to give a new stretch's owner its initial rights.
func (ts *TranslationSystem) GrantInitial(pd *ProtectionDomain, sid StretchID, r Rights) {
	pd.setRights(sid, r)
}

// --- Low-level part (application system calls) ---

// checkMeta performs the light-weight validation: the caller's protection
// domain must hold the meta right on the stretch containing va.
func (ts *TranslationSystem) checkMeta(caller *ProtectionDomain, sid StretchID) error {
	if caller == nil || !caller.RightsOn(sid).Has(Meta) {
		return fmt.Errorf("%w on stretch %d", ErrNoMeta, sid)
	}
	return nil
}

// Map arranges that va maps onto pfn with attributes attr, on behalf of
// domain executing in protection domain caller. Validation: va must lie in
// a stretch on which caller holds meta; the frame must be owned by domain
// and currently Unused (checked and transitioned via the RamTab).
func (ts *TranslationSystem) Map(caller *ProtectionDomain, domain mem.DomainID, va VA, pfn mem.PFN, attr Attr) error {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	if err := ts.checkMeta(caller, pte.SID); err != nil {
		return err
	}
	if pte.Valid {
		return fmt.Errorf("%w: %#x", ErrAlreadyMapped, uint64(va))
	}
	// Frame validation via the RamTab: the frame must be owned by the
	// domain and currently neither mapped nor nailed.
	if state, err := ts.ramtab.State(pfn); err != nil {
		return err
	} else if state != mem.Unused {
		return fmt.Errorf("%w: frame %d is %s", mem.ErrFrameBusy, pfn, state)
	}
	if err := ts.ramtab.SetState(pfn, domain, mem.Mapped); err != nil {
		return err
	}
	pte.Valid = true
	pte.PFN = pfn
	pte.Attr = attr
	pte.Referenced = false
	pte.Dirty = false
	return nil
}

// Unmap removes the mapping of va. Further access will fault. It returns
// the frame that backed the page and whether it was dirty, which is what a
// paging stretch driver needs to decide about write-back.
func (ts *TranslationSystem) Unmap(caller *ProtectionDomain, domain mem.DomainID, va VA) (mem.PFN, bool, error) {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return 0, false, fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	if err := ts.checkMeta(caller, pte.SID); err != nil {
		return 0, false, err
	}
	if !pte.Valid {
		return 0, false, fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va))
	}
	if st, _ := ts.ramtab.State(pte.PFN); st == mem.Nailed {
		return 0, false, fmt.Errorf("mem: frame %d is nailed: %w", pte.PFN, mem.ErrFrameBusy)
	}
	if err := ts.ramtab.SetState(pte.PFN, domain, mem.Unused); err != nil {
		return 0, false, err
	}
	pfn, dirty := pte.PFN, pte.Dirty
	pte.Valid = false
	pte.Referenced = false
	pte.Dirty = false
	ts.tlb.InvalidateVA(PageOf(va))
	return pfn, dirty, nil
}

// MapSuper maps an aligned block of 1<<width pages starting at va onto the
// contiguous frame run starting at basePFN — a superpage mapping the TLB
// can cover with a single wide entry. Validation is per page: the block
// must be width-aligned, lie in stretches the caller holds meta on, and
// every frame must be owned by domain and unused. On any failure the pages
// mapped so far are rolled back.
func (ts *TranslationSystem) MapSuper(caller *ProtectionDomain, domain mem.DomainID, va VA, basePFN mem.PFN, width uint8, attr Attr) error {
	n := 1 << width
	baseVPN := PageOf(va)
	if uint64(baseVPN)%uint64(n) != 0 || uint64(basePFN)%uint64(n) != 0 {
		return fmt.Errorf("%w: superpage base not aligned to %d pages", ErrBadSize, n)
	}
	for i := 0; i < n; i++ {
		pageVA := (baseVPN + VPN(i)).Base()
		if err := ts.Map(caller, domain, pageVA, basePFN+mem.PFN(i), attr); err != nil {
			for j := i - 1; j >= 0; j-- {
				ts.Unmap(caller, domain, (baseVPN + VPN(j)).Base())
			}
			return err
		}
		pte := ts.pt.Lookup(baseVPN + VPN(i))
		pte.Width = width
		ts.ramtab.SetWidth(basePFN+mem.PFN(i), width)
	}
	return nil
}

// Trans retrieves the current mapping of va, if any.
func (ts *TranslationSystem) Trans(va VA) (mem.PFN, Attr, error) {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return 0, Attr{}, fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	if !pte.Valid {
		return 0, Attr{}, fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va))
	}
	return pte.PFN, pte.Attr, nil
}

// SetRights changes target's rights on stretch sid to r, provided caller
// holds meta on sid. It reports whether the change was effective (the
// protection scheme detects idempotent changes). This is the
// protection-domain protection path of the microbenchmarks.
func (ts *TranslationSystem) SetRights(caller, target *ProtectionDomain, sid StretchID, r Rights) (bool, error) {
	if err := ts.checkMeta(caller, sid); err != nil {
		return false, err
	}
	return target.setRights(sid, r), nil
}

// ProtectPages changes the per-page protection override bits for every page
// of st — the page-table protection path of the microbenchmarks, which
// touches each PTE individually (Nemesis has no optimised range path, as
// the paper notes). It returns the number of PTEs actually modified.
func (ts *TranslationSystem) ProtectPages(caller *ProtectionDomain, st *Stretch, r Rights) (int, error) {
	if err := ts.checkMeta(caller, st.id); err != nil {
		return 0, err
	}
	changed := 0
	for i := 0; i < st.Pages(); i++ {
		pte := ts.pt.Lookup(PageOf(st.PageBase(i)))
		if pte == nil {
			return changed, fmt.Errorf("%w: page %d of %v", ErrNotAllocated, i, st)
		}
		if pte.Prot != r {
			pte.Prot = r
			changed++
		}
	}
	return changed, nil
}

// Nail pins the frame backing va so it cannot be unmapped or revoked (used
// by nailed stretch drivers and DMA).
func (ts *TranslationSystem) Nail(caller *ProtectionDomain, domain mem.DomainID, va VA) error {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	if err := ts.checkMeta(caller, pte.SID); err != nil {
		return err
	}
	if !pte.Valid {
		return fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va))
	}
	return ts.ramtab.SetState(pte.PFN, domain, mem.Nailed)
}

// Unnail undoes Nail and the Map before it: the frame backing va loses its
// pin and its mapping and is returned Unused, as Unmap returns a frame. A
// nailed stretch driver whose binding fails partway gives its pages back
// this way.
func (ts *TranslationSystem) Unnail(caller *ProtectionDomain, domain mem.DomainID, va VA) (mem.PFN, error) {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return 0, fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	if err := ts.checkMeta(caller, pte.SID); err != nil {
		return 0, err
	}
	if !pte.Valid {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va))
	}
	if st, _ := ts.ramtab.State(pte.PFN); st != mem.Nailed {
		return 0, fmt.Errorf("vm: frame %d at %#x is %s, not nailed", pte.PFN, uint64(va), st)
	}
	if err := ts.ramtab.SetState(pte.PFN, domain, mem.Unused); err != nil {
		return 0, err
	}
	pfn, _, err := ts.Unmap(caller, domain, va)
	return pfn, err
}

// --- MMU walk (the simulated hardware/PALcode path) ---

// Access performs a memory access check as the MMU would: TLB lookup, page
// table walk on miss, stretch-granularity protection check, FOR/FOW
// referenced/dirty maintenance. On success it returns the PTE; on failure a
// Fault ready for dispatch.
func (ts *TranslationSystem) Access(pd *ProtectionDomain, va VA, acc Access) (*PTE, *Fault) {
	var f Fault
	pte, faulted := ts.AccessInto(pd, va, acc, &f)
	if faulted {
		heap := f
		return nil, &heap
	}
	return pte, nil
}

// AccessInto is Access with a caller-owned fault record: on failure it fills
// *f and reports faulted=true. Hot callers that dispatch faults synchronously
// (the thread blocks until resolution) can reuse one Fault across accesses
// instead of allocating per fault.
func (ts *TranslationSystem) AccessInto(pd *ProtectionDomain, va VA, acc Access, f *Fault) (pte *PTE, faulted bool) {
	vpn := PageOf(va)
	if pd != nil {
		pte = ts.tlb.Lookup(vpn, pd.asn)
	}
	fromTLB := pte != nil
	if pte == nil {
		pte = ts.pt.Lookup(vpn)
	}
	if pte == nil || !pte.Present {
		*f = Fault{VA: va, Class: UnallocatedFault, Access: acc}
		return nil, true
	}
	var rights Rights
	if pd != nil {
		rights = pd.RightsOn(pte.SID)
	}
	rights |= pte.Prot
	if !rights.Has(acc.need()) {
		*f = Fault{VA: va, Class: ProtectionFault, Access: acc, SID: pte.SID}
		return nil, true
	}
	if !pte.Valid {
		*f = Fault{VA: va, Class: PageFault, Access: acc, SID: pte.SID}
		return nil, true
	}
	if !fromTLB && pd != nil {
		if pte.Width > 0 {
			// Fill one wide entry for the whole superpage if every
			// member is still validly mapped; otherwise fall back to a
			// normal single-page fill.
			n := VPN(1) << pte.Width
			base := vpn &^ (n - 1)
			ptes := make([]*PTE, n)
			whole := true
			for i := VPN(0); i < n; i++ {
				m := ts.pt.Lookup(base + i)
				if m == nil || !m.Valid {
					whole = false
					break
				}
				ptes[i] = m
			}
			if whole {
				ts.tlb.FillSuper(base, pd.asn, pte.Width, ptes)
			} else {
				ts.tlb.Fill(vpn, pd.asn, pte)
			}
		} else {
			ts.tlb.Fill(vpn, pd.asn, pte)
		}
	}
	// FOR/FOW emulation: software sets the bits, the DFault path clears
	// them and records referenced/dirty.
	if acc == AccessRead && pte.Attr.FOR {
		pte.Attr.FOR = false
		pte.Referenced = true
	}
	if acc == AccessWrite {
		if pte.Attr.FOW {
			pte.Attr.FOW = false
			pte.Dirty = true
		}
		if pte.Attr.FOR {
			pte.Attr.FOR = false
		}
		pte.Referenced = true
	}
	return pte, false
}

// IsDirty reports whether the page containing va has been written since it
// was mapped (the "dirty" microbenchmark: a PTE lookup plus bit test).
func (ts *TranslationSystem) IsDirty(va VA) (bool, error) {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return false, fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	return pte.Dirty, nil
}

// IsReferenced reports whether the page containing va has been accessed.
func (ts *TranslationSystem) IsReferenced(va VA) (bool, error) {
	pte := ts.pt.Lookup(PageOf(va))
	if pte == nil || !pte.Present {
		return false, fmt.Errorf("%w: %#x", ErrNotAllocated, uint64(va))
	}
	return pte.Referenced, nil
}
