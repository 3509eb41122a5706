package vm

import (
	"math/rand"
	"strings"
	"testing"

	"nemesis/internal/mem"
)

// fuzzWorld is one translation world for the randomized fork test: the
// linear page table, the only one Fork carries, over 256 frames, one
// stretch, one PD.
type fuzzWorld struct {
	rt *mem.RamTab
	ts *TranslationSystem
	st *Stretch
	pd *ProtectionDomain
}

func newFuzzWorld() *fuzzWorld {
	rt := mem.NewRamTab(256)
	ts := NewTranslationSystem(rt)
	sa := NewStretchAllocator(ts, 0x10000000, 0x80000000)
	st, err := sa.New(1, 128*PageSize)
	if err != nil {
		panic(err)
	}
	pd, err := ts.NewProtectionDomain()
	if err != nil {
		panic(err)
	}
	ts.GrantInitial(pd, st.ID(), Read|Write|Meta)
	for i := mem.PFN(0); i < 256; i++ {
		ownedFrame(rt, i, 1)
	}
	return &fuzzWorld{rt: rt, ts: ts, st: st, pd: pd}
}

// step applies one random page-table operation. Errors are expected (mapping
// an already-mapped page, unmapping a hole, misaligned superpages) — what
// matters is that parent and fork, fed the same random stream, take the same
// path.
func (w *fuzzWorld) step(r *rand.Rand) {
	switch r.Intn(5) {
	case 0: // map a random page to a random frame
		pg := r.Intn(128)
		pfn := mem.PFN(r.Intn(256))
		w.ts.Map(w.pd, 1, w.st.PageBase(pg), pfn, DefaultAttr())
	case 1: // unmap a random page
		w.ts.Unmap(w.pd, 1, w.st.PageBase(r.Intn(128)))
	case 2: // superpage: an aligned run of 2, 4 or 8 pages
		width := uint8(1 + r.Intn(3))
		n := 1 << width
		pg := r.Intn(128/n) * n
		base := mem.PFN(r.Intn(256/n) * n)
		w.ts.MapSuper(w.pd, 1, w.st.PageBase(pg), base, width, DefaultAttr())
	case 3: // access (fills the TLB, sets ref/dirty bits, may fault)
		acc := AccessRead
		if r.Intn(2) == 0 {
			acc = AccessWrite
		}
		w.ts.Access(w.pd, w.st.PageBase(r.Intn(128)), acc)
	case 4: // translate (read-only walk)
		w.ts.Trans(w.st.PageBase(r.Intn(128)))
	}
}

// diff compares every observable of two worlds: per-page translation, PTE
// flags and superpage widths, table lookups, TLB counters and table size.
func diffFuzzWorlds(t *testing.T, a, b *fuzzWorld, tag string) {
	t.Helper()
	for pg := 0; pg < 128; pg++ {
		va := a.st.PageBase(pg)
		apfn, aattr, aerr := a.ts.Trans(va)
		bpfn, battr, berr := b.ts.Trans(va)
		if apfn != bpfn || aattr != battr || (aerr == nil) != (berr == nil) {
			t.Fatalf("%s: page %d trans (%d,%v,%v) vs (%d,%v,%v)", tag, pg, apfn, aattr, aerr, bpfn, battr, berr)
		}
		vpn := PageOf(va)
		ap, bp := a.ts.PageTable().Lookup(vpn), b.ts.PageTable().Lookup(vpn)
		if (ap == nil) != (bp == nil) {
			t.Fatalf("%s: page %d presence differs", tag, pg)
		}
		if ap != nil && *ap != *bp {
			t.Fatalf("%s: page %d PTE %+v vs %+v", tag, pg, *ap, *bp)
		}
	}
	if a.ts.PageTable().Entries() != b.ts.PageTable().Entries() {
		t.Fatalf("%s: entries %d vs %d", tag, a.ts.PageTable().Entries(), b.ts.PageTable().Entries())
	}
	if al, bl := a.ts.PageTable().(*PageTable).Lookups(), b.ts.PageTable().(*PageTable).Lookups(); al != bl {
		t.Fatalf("%s: table lookups %d vs %d", tag, al, bl)
	}
	if a.ts.TLB().Hits() != b.ts.TLB().Hits() || a.ts.TLB().Misses() != b.ts.TLB().Misses() {
		t.Fatalf("%s: TLB (%d,%d) vs (%d,%d)", tag,
			a.ts.TLB().Hits(), a.ts.TLB().Misses(), b.ts.TLB().Hits(), b.ts.TLB().Misses())
	}
}

// TestForkFuzzGPT: N random operations, fork, then K more identical random
// operations on parent and fork — every observable must stay identical, and
// a divergent third stream on the fork must not leak back into the parent.
func TestForkFuzzGPT(t *testing.T) {
	var wide, hits int64 // coverage: superpages held and TLB hits, all seeds
	for seed := int64(1); seed <= 8; seed++ {
		w := newFuzzWorld()
		warm := rand.New(rand.NewSource(seed))
		n := 50 + warm.Intn(200)
		for i := 0; i < n; i++ {
			w.step(warm)
		}

		nts, maps, err := w.ts.Fork(w.rt.Fork())
		if err != nil {
			t.Fatal(err)
		}
		f := &fuzzWorld{rt: nts.ramtab, ts: nts, st: maps.Stretch[w.st], pd: maps.PD[w.pd]}
		if f.st == nil || f.pd == nil {
			t.Fatal("fork maps missing stretch or PD")
		}
		diffFuzzWorlds(t, w, f, "post-fork")

		ra := rand.New(rand.NewSource(seed * 7919))
		rb := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 200; i++ {
			w.step(ra)
			f.step(rb)
		}
		diffFuzzWorlds(t, w, f, "post-replay")

		// Divergence: extra ops on the fork must leave the parent untouched.
		before := snapshotTrans(w)
		rc := rand.New(rand.NewSource(seed * 104729))
		for i := 0; i < 100; i++ {
			f.step(rc)
		}
		if after := snapshotTrans(w); before != after {
			t.Fatalf("seed %d: fork ops mutated the parent", seed)
		}
		hits += w.ts.TLB().Hits()
		for pg := 0; pg < 128; pg++ {
			if p := w.ts.PageTable().Lookup(PageOf(w.st.PageBase(pg))); p != nil && p.Width > 0 {
				wide++
			}
		}
	}
	if wide == 0 || hits == 0 {
		t.Fatalf("vacuous fuzz: %d superpage PTEs held, %d TLB hits", wide, hits)
	}
}

// TestForkRefusesGuardedTable: only the linear page table forks; a guarded
// table is refused with an error naming it, and the parent stays usable.
func TestForkRefusesGuardedTable(t *testing.T) {
	rt := mem.NewRamTab(16)
	ts := NewTranslationSystemWithTable(rt, NewGuardedPageTable())
	sa := NewStretchAllocator(ts, 0x10000000, 0x80000000)
	st, err := sa.New(1, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := ts.NewProtectionDomain()
	if err != nil {
		t.Fatal(err)
	}
	ts.GrantInitial(pd, st.ID(), Read|Write|Meta)
	ownedFrame(rt, 3, 1)
	_, _, err = ts.Fork(rt.Fork())
	if err == nil || !strings.Contains(err.Error(), "GuardedPageTable") {
		t.Fatalf("Fork of a guarded table: err = %v, want a refusal naming it", err)
	}
	if err := ts.Map(pd, 1, st.PageBase(0), 3, DefaultAttr()); err != nil {
		t.Fatalf("parent unusable after the refusal: %v", err)
	}
	if pfn, _, err := ts.Trans(st.PageBase(0)); err != nil || pfn != 3 {
		t.Fatalf("parent translation after the refusal: pfn %d, err %v", pfn, err)
	}
}

// snapshotTrans folds the parent's translations into a comparable value.
func snapshotTrans(w *fuzzWorld) [128]mem.PFN {
	var out [128]mem.PFN
	for pg := 0; pg < 128; pg++ {
		pfn, _, err := w.ts.Trans(w.st.PageBase(pg))
		if err != nil {
			pfn = ^mem.PFN(0)
		}
		out[pg] = pfn
	}
	return out
}
