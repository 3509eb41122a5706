package vm

import (
	"math/rand"
	"testing"
)

// refTLB is the TLB as it was before the per-page slot masks: width-0
// slots indexed by (vpn, asn), the latest fill of a key winning, and
// InvalidateVA scanning all 64 slots. TestTLBMatchesScanReference holds
// the TLB to it.
type refTLB struct {
	slots  [TLBSize]tlbEntry
	cursor int
	idx    map[refKey]int
	nSuper int
	hits   int64
	misses int64
}

type refKey struct {
	vpn VPN
	asn uint16
}

func (t *refTLB) dropSlot(i int) {
	e := &t.slots[i]
	if !e.valid {
		return
	}
	e.valid = false
	if e.width == 0 {
		k := refKey{e.vpn, e.asn}
		if j, ok := t.idx[k]; ok && j == i {
			delete(t.idx, k)
		}
	} else {
		t.nSuper--
	}
}

func (t *refTLB) Lookup(vpn VPN, asn uint16) *PTE {
	if i, ok := t.idx[refKey{vpn, asn}]; ok {
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

func (t *refTLB) Fill(vpn VPN, asn uint16, pte *PTE) {
	if t.idx == nil {
		t.idx = make(map[refKey]int, TLBSize)
	}
	t.dropSlot(t.cursor)
	e := &t.slots[t.cursor]
	*e = tlbEntry{valid: true, vpn: vpn, asn: asn}
	e.pte0[0] = pte
	e.ptes = e.pte0[:1]
	t.idx[refKey{vpn, asn}] = t.cursor
	t.cursor = (t.cursor + 1) % TLBSize
}

func (t *refTLB) FillSuper(base VPN, asn uint16, width uint8, ptes []*PTE) {
	t.dropSlot(t.cursor)
	t.slots[t.cursor] = tlbEntry{valid: true, vpn: base, asn: asn, width: width, ptes: ptes}
	t.nSuper++
	t.cursor = (t.cursor + 1) % TLBSize
}

func (t *refTLB) InvalidateVA(vpn VPN) {
	for i := range t.slots {
		if t.slots[i].covers(vpn) {
			t.dropSlot(i)
		}
	}
}

func (t *refTLB) InvalidateASN(asn uint16) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].asn == asn {
			t.dropSlot(i)
		}
	}
}

func (t *refTLB) Flush() {
	for i := range t.slots {
		t.dropSlot(i)
	}
}

// fork copies the reference as TLB.fork copies a TLB: slots, cursor,
// counters and index, with each cached translation re-pointed at pt's entry.
func (t *refTLB) fork(pt *PageTable) *refTLB {
	nt := &refTLB{cursor: t.cursor, nSuper: t.nSuper, hits: t.hits, misses: t.misses}
	if t.idx != nil {
		nt.idx = make(map[refKey]int, len(t.idx))
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

// TestTLBMatchesScanReference drives seeded random fills (normal and
// superpage, refills of a page already cached, and fills with a stray
// entry), lookups, shootdowns by page and by ASN, flushes and forks on the
// TLB and on refTLB side by side. Every lookup must return the same entry,
// and after every operation the slots, cursor, superpage count and hit and
// miss counts must match.
func TestTLBMatchesScanReference(t *testing.T) {
	const pages, asns = 96, 3
	pt := NewPageTable()
	for v := VPN(0); v < pages; v++ {
		pt.Insert(v, 1)
	}
	stray := &PTE{}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		tlb, ref := &TLB{}, &refTLB{}
		supers := rng.Intn(2) == 0 // half the seeds never hold a superpage
		for op := 0; op < 2000; op++ {
			vpn := VPN(rng.Intn(pages))
			asn := uint16(rng.Intn(asns))
			what := rng.Intn(100)
			switch {
			case what < 35:
				pte := pt.entries.At(vpn)
				if rng.Intn(20) == 0 {
					pte = stray
				}
				tlb.Fill(vpn, asn, pte)
				ref.Fill(vpn, asn, pte)
			case what < 40 && supers:
				width := uint8(1 + rng.Intn(3))
				base := vpn &^ (VPN(1)<<width - 1)
				if base+VPN(1)<<width > pages {
					continue
				}
				ptes := make([]*PTE, 1<<width)
				for j := range ptes {
					ptes[j] = pt.entries.At(base + VPN(j))
				}
				tlb.FillSuper(base, asn, width, ptes)
				ref.FillSuper(base, asn, width, ptes)
			case what < 80:
				if got, want := tlb.Lookup(vpn, asn), ref.Lookup(vpn, asn); got != want {
					t.Fatalf("seed %d op %d: Lookup(%d, %d) = %p, reference %p", seed, op, vpn, asn, got, want)
				}
			case what < 94:
				tlb.InvalidateVA(vpn)
				ref.InvalidateVA(vpn)
			case what < 97:
				tlb.InvalidateASN(asn)
				ref.InvalidateASN(asn)
			case what < 98:
				tlb.Flush()
				ref.Flush()
			default:
				tlb, ref = tlb.fork(pt), ref.fork(pt)
			}
			if !sameSlots(&tlb.slots, &ref.slots) || tlb.cursor != ref.cursor || tlb.nSuper != ref.nSuper ||
				tlb.hits != ref.hits || tlb.misses != ref.misses {
				t.Fatalf("seed %d op %d: TLB (cursor %d, nSuper %d, %d hits, %d misses) parts from the reference (%d, %d, %d, %d)",
					seed, op, tlb.cursor, tlb.nSuper, tlb.hits, tlb.misses, ref.cursor, ref.nSuper, ref.hits, ref.misses)
			}
		}
	}
}

// sameSlots reports whether two slot arrays hold the same entries, cached
// translations compared by identity.
func sameSlots(a, b *[TLBSize]tlbEntry) bool {
	for i := range a {
		x, y := &a[i], &b[i]
		if x.valid != y.valid || x.vpn != y.vpn || x.asn != y.asn || x.width != y.width || len(x.ptes) != len(y.ptes) {
			return false
		}
		for j := range x.ptes {
			if x.ptes[j] != y.ptes[j] {
				return false
			}
		}
	}
	return true
}
