package vm

import (
	"fmt"
	"slices"

	"nemesis/internal/mem"
)

// ForkMaps carries the identity maps a translation-system fork produces:
// for every parent-side object, its forked twin. Higher layers use them to
// re-point their own copied state (stretch drivers hold *Stretch, domains
// hold *ProtectionDomain) at the forked world. A PTE's twin is the forked
// table's entry for the same VPN.
type ForkMaps struct {
	PD      map[*ProtectionDomain]*ProtectionDomain
	Stretch map[*Stretch]*Stretch
}

// Fork returns a deep copy of the translation system over the forked
// ramtab: the linear page table with every chunk copied, TLB with its slots
// re-pointed by VPN at the copied PTEs (tags, FIFO cursor and hit/miss
// counters preserved), all protection domains with their rights, and
// the stretch allocator with every stretch. The returned maps let callers
// translate parent pointers to forked ones. Only the linear table forks,
// the one core.New builds; Fork refuses any other.
func (ts *TranslationSystem) Fork(ramtab *mem.RamTab) (*TranslationSystem, *ForkMaps, error) {
	pt, ok := ts.pt.(*PageTable)
	if !ok {
		return nil, nil, fmt.Errorf("vm: cannot fork a %T: only the linear page table forks", ts.pt)
	}
	m := &ForkMaps{
		PD:      make(map[*ProtectionDomain]*ProtectionDomain, len(ts.pds.pds)),
		Stretch: make(map[*Stretch]*Stretch),
	}
	npt := &PageTable{entries: pt.entries.Clone(), n: pt.n, lookups: pt.lookups}
	nts := &TranslationSystem{
		pt:     npt,
		tlb:    ts.tlb.fork(npt),
		ramtab: ramtab,
	}

	// Protection domains.
	nts.pds.nextID = ts.pds.nextID
	nts.pds.nextASN = ts.pds.nextASN
	nts.pds.pds = make([]*ProtectionDomain, len(ts.pds.pds))
	for i, pd := range ts.pds.pds {
		npd := &ProtectionDomain{
			id:      pd.id,
			asn:     pd.asn,
			rights:  slices.Clone(pd.rights),
			changes: pd.changes,
		}
		nts.pds.pds[i] = npd
		m.PD[pd] = npd
	}

	// Stretch allocator.
	if sa := ts.stretches; sa != nil {
		nsa := &StretchAllocator{
			ts:     nts,
			nextID: sa.nextID,
			byBase: make([]*Stretch, len(sa.byBase)),
			low:    sa.low,
			high:   sa.high,
			next:   sa.next,
		}
		for i, st := range sa.byBase {
			nst := &Stretch{id: st.id, base: st.base, size: st.size, owner: st.owner}
			nsa.byBase[i] = nst
			m.Stretch[st] = nst
		}
		nts.stretches = nsa
	}
	return nts, m, nil
}

// fork copies the TLB, re-pointing cached translations at pt's entries for
// the same pages: a slot only ever caches the table entry of the page it
// covers. Slot order, the FIFO cursor and the hit/miss counters are
// preserved so post-fork lookup behaviour (and its charged cost) is
// identical.
func (t *TLB) fork(pt *PageTable) *TLB {
	nt := &TLB{cursor: t.cursor, nSuper: t.nSuper, hits: t.hits, misses: t.misses}
	if t.idx != nil {
		nt.idx = make(map[VPN]uint64, len(t.idx))
		for k, v := range t.idx {
			nt.idx[k] = v
		}
	}
	for i := range t.slots {
		e := &t.slots[i]
		ne := &nt.slots[i]
		*ne = tlbEntry{valid: e.valid, vpn: e.vpn, asn: e.asn, width: e.width}
		if !e.valid {
			continue
		}
		if e.width == 0 {
			ne.pte0[0] = pt.entries.At(e.vpn)
			ne.ptes = ne.pte0[:1]
		} else {
			ne.ptes = make([]*PTE, len(e.ptes))
			for j := range e.ptes {
				ne.ptes[j] = pt.entries.At(e.vpn + VPN(j))
			}
		}
	}
	return nt
}
