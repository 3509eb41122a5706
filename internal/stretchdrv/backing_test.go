package stretchdrv

import (
	"errors"
	"testing"

	"nemesis/internal/vm"
)

// bareSwapBacking builds a SwapBacking with the given blok capacity and no
// swap file. Both paths under test fail before any disk IO, so the nil file
// is never touched.
func bareSwapBacking(bloks int64) *SwapBacking {
	return &SwapBacking{blok: NewBlokAllocator(bloks, 16)}
}

func TestSwapReadPageNoCopy(t *testing.T) {
	b := bareSwapBacking(4)
	buf := make([]byte, vm.PageSize)
	// Never-written page: must fail with the sentinel, not read blok -1.
	err := b.ReadPage(nil, vm.VA(0x1000), buf, nil)
	if !errors.Is(err, ErrNoCopy) {
		t.Fatalf("ReadPage of unwritten page = %v, want ErrNoCopy", err)
	}
	// The probe must not have materialised a bogus page record either.
	if b.pages.At(vm.PageOf(0x1000)) != nil {
		t.Fatal("ReadPage created a page record")
	}
	if b.HasCopy(vm.VA(0x1000)) {
		t.Fatal("HasCopy true after failed read")
	}
}

func TestSwapWritePagesFallbackLeak(t *testing.T) {
	// 2 free bloks, 3-page batch: AllocRun(3) fails, the singles fallback
	// allocates 2 and then hits exhaustion. The partial allocation must be
	// returned — before the fix those two bloks leaked and the pages kept
	// blok assignments for data that never reached disk.
	b := bareSwapBacking(2)
	batch := []DirtyPage{
		{VA: vm.VA(0x10000), Data: make([]byte, vm.PageSize)},
		{VA: vm.VA(0x20000), Data: make([]byte, vm.PageSize)},
		{VA: vm.VA(0x30000), Data: make([]byte, vm.PageSize)},
	}
	txns, err := b.WritePages(nil, batch, nil)
	if !errors.Is(err, ErrNoBloks) {
		t.Fatalf("WritePages = %d, %v; want ErrNoBloks", txns, err)
	}
	if free := b.FreeBloks(); free != 2 {
		t.Fatalf("leaked bloks: %d free after failed batch, want 2", free)
	}
	for _, pg := range batch {
		if pi := b.pages.At(vm.PageOf(pg.VA)); pi != nil && pi.hasBlok {
			t.Fatalf("page %#x kept blok %d after failed batch", uint64(pg.VA), pi.blok)
		}
		if b.HasCopy(pg.VA) {
			t.Fatalf("HasCopy true for %#x after failed batch", uint64(pg.VA))
		}
	}
	// A smaller batch must now succeed in allocating (it will fail at the
	// nil swap file, but only after both bloks were assignable).
	if start, err := b.blok.AllocRun(2); err != nil || start != 0 {
		t.Fatalf("AllocRun after cleanup = %d, %v", start, err)
	}
}

func TestSwapDrop(t *testing.T) {
	b := bareSwapBacking(2)
	va := vm.VA(0x10000)
	blok, err := b.blok.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	*b.pages.Ensure(vm.PageOf(va)) = pageInfo{blok: blok, hasBlok: true, onDisk: true}
	if !b.HasCopy(va) {
		t.Fatal("setup: HasCopy false")
	}
	b.Drop(va)
	if b.HasCopy(va) {
		t.Fatal("HasCopy true after Drop")
	}
	if free := b.FreeBloks(); free != 2 {
		t.Fatalf("Drop did not free the blok: %d free", free)
	}
	b.Drop(va) // unknown page: no-op
	if free := b.FreeBloks(); free != 2 {
		t.Fatalf("double Drop changed free count: %d", free)
	}
}
