package vm

import "testing"

// These tests pin the TLB shootdown contract through the indexed fast path:
// map/unmap, protection changes, rights revocation, and protection-domain
// destruction must never let a stale translation or stale rights survive in
// the TLB, whether the entry would be found via the (vpn, asn) index or the
// superpage scan.

// TestTLBUnmapShootdownAllASNs maps one frame into two domains, warms both
// TLB entries, then unmaps: both ASNs' cached translations must be gone, and
// a remap to a different frame must be what subsequent accesses observe.
func TestTLBUnmapShootdownAllASNs(t *testing.T) {
	ts, sa, rt := world()
	st, _ := sa.New(1, PageSize)
	pd1, _ := ts.NewProtectionDomain()
	pd2, _ := ts.NewProtectionDomain()
	ts.GrantInitial(pd1, st.ID(), Read|Write|Meta)
	ts.GrantInitial(pd2, st.ID(), Read)
	ownedFrame(rt, 1, 1)
	va := st.Base()
	if err := ts.Map(pd1, 1, va, 1, DefaultAttr()); err != nil {
		t.Fatal(err)
	}
	ts.Access(pd1, va, AccessRead)
	ts.Access(pd2, va, AccessRead)
	if ts.TLB().Lookup(PageOf(va), pd1.ASN()) == nil || ts.TLB().Lookup(PageOf(va), pd2.ASN()) == nil {
		t.Fatal("warm-up did not fill both ASNs")
	}
	if _, _, err := ts.Unmap(pd1, 1, va); err != nil {
		t.Fatal(err)
	}
	if ts.TLB().Lookup(PageOf(va), pd1.ASN()) != nil {
		t.Fatal("stale TLB entry for pd1 after unmap")
	}
	if ts.TLB().Lookup(PageOf(va), pd2.ASN()) != nil {
		t.Fatal("stale TLB entry for pd2 after unmap")
	}
	ownedFrame(rt, 2, 1)
	if err := ts.Map(pd1, 1, va, 2, DefaultAttr()); err != nil {
		t.Fatal(err)
	}
	pte, f := ts.Access(pd1, va, AccessRead)
	if f != nil || pte.PFN != 2 {
		t.Fatalf("access after remap: pte=%+v fault=%v, want PFN 2", pte, f)
	}
}

// TestTLBProtectionChangeVisibleThroughCache verifies that ProtectPages takes
// effect even for translations already cached: the TLB stores *PTE, so a
// protection override written to the page table must be observed on the very
// next (TLB-hit) access with no shootdown.
func TestTLBProtectionChangeVisibleThroughCache(t *testing.T) {
	ts, sa, rt := world()
	st, _ := sa.New(1, PageSize)
	pd, _ := ts.NewProtectionDomain()
	// The domain itself holds no rights; access works only via the per-page
	// protection override, so flipping the override must flip the outcome.
	ts.GrantInitial(pd, st.ID(), Meta)
	ownedFrame(rt, 1, 1)
	va := st.Base()
	if err := ts.Map(pd, 1, va, 1, DefaultAttr()); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.ProtectPages(pd, st, Read); err != nil {
		t.Fatal(err)
	}
	if _, f := ts.Access(pd, va, AccessRead); f != nil {
		t.Fatalf("read with page override: %v", f)
	}
	if ts.TLB().Lookup(PageOf(va), pd.ASN()) == nil {
		t.Fatal("entry not cached after access")
	}
	// Revoke the override; the cached entry must not retain the old rights.
	if _, err := ts.ProtectPages(pd, st, 0); err != nil {
		t.Fatal(err)
	}
	if _, f := ts.Access(pd, va, AccessRead); f == nil || f.Class != ProtectionFault {
		t.Fatalf("read after revoking page override: fault=%v, want protection fault", f)
	}
	// Re-grant and confirm recovery through the same cached entry.
	if _, err := ts.ProtectPages(pd, st, Read); err != nil {
		t.Fatal(err)
	}
	if _, f := ts.Access(pd, va, AccessRead); f != nil {
		t.Fatalf("read after re-granting: %v", f)
	}
}

// TestTLBRightsRevocationVisible verifies stretch-granularity revocation
// (SetRights) is enforced on TLB hits: rights live in the protection domain,
// not the cached entry, so no shootdown is needed — but the fault must still
// be raised.
func TestTLBRightsRevocationVisible(t *testing.T) {
	ts, sa, rt := world()
	st, _ := sa.New(1, PageSize)
	owner, _ := ts.NewProtectionDomain()
	victim, _ := ts.NewProtectionDomain()
	ts.GrantInitial(owner, st.ID(), Read|Write|Meta)
	ts.GrantInitial(victim, st.ID(), Read|Write)
	ownedFrame(rt, 1, 1)
	va := st.Base()
	if err := ts.Map(owner, 1, va, 1, DefaultAttr()); err != nil {
		t.Fatal(err)
	}
	if _, f := ts.Access(victim, va, AccessWrite); f != nil {
		t.Fatalf("warm-up write: %v", f)
	}
	h0 := ts.TLB().Hits()
	if changed, err := ts.SetRights(owner, victim, st.ID(), Read); err != nil || !changed {
		t.Fatalf("SetRights: changed=%v err=%v", changed, err)
	}
	if _, f := ts.Access(victim, va, AccessWrite); f == nil || f.Class != ProtectionFault {
		t.Fatalf("write after revocation: fault=%v, want protection fault", f)
	}
	if ts.TLB().Hits() != h0+1 {
		t.Fatal("revoked access bypassed the TLB (rights check should ride the hit path)")
	}
}

// TestTLBSuperpageInvalidation fills a superpage entry and invalidates one
// covered page: the whole wide entry must drop, and remaining width-0
// entries must still hit via the index afterwards (nSuper bookkeeping).
func TestTLBSuperpageInvalidation(t *testing.T) {
	var tlb TLB
	ptes := []*PTE{{PFN: 10}, {PFN: 11}, {PFN: 12}, {PFN: 13}}
	tlb.FillSuper(64, 1, 2, ptes) // covers VPNs 64..67
	narrow := &PTE{PFN: 99}
	tlb.Fill(200, 1, narrow)

	if got := tlb.Lookup(66, 1); got == nil || got.PFN != 12 {
		t.Fatalf("superpage lookup = %+v, want PFN 12", got)
	}
	tlb.InvalidateVA(66)
	for vpn := VPN(64); vpn < 68; vpn++ {
		if tlb.Lookup(vpn, 1) != nil {
			t.Fatalf("page %d of invalidated superpage still cached", vpn)
		}
	}
	if got := tlb.Lookup(200, 1); got != narrow {
		t.Fatal("width-0 entry lost by superpage invalidation")
	}
	if tlb.nSuper != 0 {
		t.Fatalf("nSuper = %d after dropping the only superpage entry", tlb.nSuper)
	}
}

// TestTLBIndexConsistencyUnderEviction churns the TLB far past its capacity
// with interleaved fills, invalidations and flushes, then checks the index
// against the slot array: every valid width-0 slot must be reachable, and no
// index entry may point at an invalid or mismatched slot.
func TestTLBIndexConsistencyUnderEviction(t *testing.T) {
	var tlb TLB
	pte := &PTE{}
	for round := 0; round < 5; round++ {
		for i := 0; i < 3*TLBSize; i++ {
			vpn := VPN(i % (2 * TLBSize)) // aliases force same-key refills
			tlb.Fill(vpn, uint16(round%2), pte)
			if i%7 == 0 {
				tlb.InvalidateVA(vpn)
			}
			if i%11 == 0 {
				tlb.FillSuper(VPN(1000+i), uint16(round%2), 1, []*PTE{pte, pte})
			}
		}
		if round == 3 {
			tlb.Flush()
		} else {
			tlb.InvalidateASN(uint16(round % 2))
		}
	}
	// A final mixed fill pass so the consistency check below sees live
	// entries of both widths.
	for i := 0; i < TLBSize/2; i++ {
		tlb.Fill(VPN(i), 3, pte)
		if i%5 == 0 {
			tlb.FillSuper(VPN(5000+4*i), 3, 2, []*PTE{pte, pte, pte, pte})
		}
	}
	valid := 0
	super := 0
	for i := range tlb.slots {
		e := &tlb.slots[i]
		if !e.valid {
			continue
		}
		valid++
		if e.width > 0 {
			super++
			continue
		}
		if m := tlb.idx[e.vpn]; m&(1<<i) == 0 {
			t.Fatalf("valid slot %d (vpn=%d asn=%d) not indexed (idx -> %#x)", i, e.vpn, e.asn, m)
		}
	}
	for vpn, m := range tlb.idx {
		if m == 0 {
			t.Fatalf("index entry for vpn %d holds no slot", vpn)
		}
		for i := range tlb.slots {
			if e := &tlb.slots[i]; m&(1<<i) != 0 && (!e.valid || e.width != 0 || e.vpn != vpn) {
				t.Fatalf("index entry for vpn %d -> slot %d is stale (%+v)", vpn, i, e)
			}
		}
	}
	if super != tlb.nSuper {
		t.Fatalf("nSuper = %d, but %d valid superpage slots", tlb.nSuper, super)
	}
	if valid == 0 {
		t.Fatal("churn left no valid entries; test exercised nothing")
	}
}

// TestTLBStretchDestroyFlushesMappings destroys a stretch whose pages are
// cached and checks the translations are unreachable afterwards.
func TestTLBStretchDestroyFlushesMappings(t *testing.T) {
	ts, sa, rt := world()
	st, _ := sa.New(1, 2*PageSize)
	pd, _ := ts.NewProtectionDomain()
	ts.GrantInitial(pd, st.ID(), Read|Write|Meta)
	ownedFrame(rt, 1, 1)
	ownedFrame(rt, 2, 1)
	if err := ts.Map(pd, 1, st.PageBase(0), 1, DefaultAttr()); err != nil {
		t.Fatal(err)
	}
	if err := ts.Map(pd, 1, st.PageBase(1), 2, DefaultAttr()); err != nil {
		t.Fatal(err)
	}
	ts.Access(pd, st.PageBase(0), AccessRead)
	ts.Access(pd, st.PageBase(1), AccessRead)
	for i := 0; i < 2; i++ {
		if _, _, err := ts.Unmap(pd, 1, st.PageBase(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Destroy(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if ts.TLB().Lookup(PageOf(VA(uint64(st.Base())+uint64(i)*PageSize)), pd.ASN()) != nil {
			t.Fatalf("page %d still cached after stretch destruction", i)
		}
	}
	if _, f := ts.Access(pd, st.Base(), AccessRead); f == nil || f.Class != UnallocatedFault {
		t.Fatalf("access to destroyed stretch: fault=%v, want unallocated", f)
	}
}
