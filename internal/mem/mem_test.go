package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestFrameStore(t *testing.T) {
	fs := NewFrameStore(4)
	if fs.NFrames() != 4 {
		t.Fatalf("NFrames = %d", fs.NFrames())
	}
	f := fs.Frame(2)
	if len(f) != PageSize {
		t.Fatalf("frame size = %d", len(f))
	}
	f[0], f[PageSize-1] = 0xAA, 0xBB
	// Same backing storage on re-access.
	if g := fs.Frame(2); g[0] != 0xAA || g[PageSize-1] != 0xBB {
		t.Fatal("frame contents not persistent")
	}
	fs.Zero(2)
	if g := fs.Frame(2); g[0] != 0 || g[PageSize-1] != 0 {
		t.Fatal("Zero did not clear")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range frame access did not panic")
		}
	}()
	fs.Frame(4)
}

// TestFrameStoreLazyFrames pins the store's allocation contract: a frame
// nothing has written reads as zeros and costs no memory, Zero leaves it
// that way, a written frame keeps its bytes until zeroed, and Fork copies
// the written frames only.
func TestFrameStoreLazyFrames(t *testing.T) {
	fs := NewFrameStore(4)
	zeros := make([]byte, PageSize)
	fs.Zero(1)
	for pfn := PFN(0); pfn < 4; pfn++ {
		if v := fs.View(pfn); len(v) != PageSize || !bytes.Equal(v, zeros) {
			t.Fatalf("never-written frame %d does not read as a page of zeros", pfn)
		}
	}
	if n := testing.AllocsPerRun(100, func() { fs.Zero(3) }); n != 0 {
		t.Fatalf("Zero on a never-written frame allocated %v times", n)
	}
	if _, n := fs.Fork(); n != 0 {
		t.Fatalf("fork of a never-written store copied %d bytes", n)
	}

	f := fs.Frame(2)
	f[0], f[PageSize-1] = 0xAA, 0xBB
	if v := fs.View(2); v[0] != 0xAA || v[PageSize-1] != 0xBB {
		t.Fatal("View does not show a written frame's bytes")
	}
	nfs, n := fs.Fork()
	if n != PageSize {
		t.Fatalf("fork copied %d bytes, want one written frame (%d)", n, PageSize)
	}
	for pfn := PFN(0); pfn < 4; pfn++ {
		if written := nfs.data[pfn] != nil; written != (pfn == 2) {
			t.Fatalf("forked frame %d allocated = %v", pfn, written)
		}
	}
	if v := nfs.View(2); v[0] != 0xAA || v[PageSize-1] != 0xBB {
		t.Fatal("forked frame lost its bytes")
	}
	fs.Zero(2)
	if !bytes.Equal(fs.View(2), zeros) {
		t.Fatal("a zeroed frame does not read as zeros")
	}
	if v := nfs.View(2); v[0] != 0xAA {
		t.Fatal("zeroing the parent's frame reached the fork's")
	}
}

func TestRamTabLifecycle(t *testing.T) {
	rt := NewRamTab(8)
	if rt.NFrames() != 8 {
		t.Fatalf("NFrames = %d", rt.NFrames())
	}
	if s, _ := rt.State(3); s != Free {
		t.Fatalf("initial state = %v", s)
	}
	if err := rt.Grant(3, 7, 0); err != nil {
		t.Fatal(err)
	}
	if o, _ := rt.Owner(3); o != 7 {
		t.Fatalf("owner = %d", o)
	}
	if s, _ := rt.State(3); s != Unused {
		t.Fatalf("state = %v", s)
	}
	if err := rt.SetState(3, 7, Mapped); err != nil {
		t.Fatal(err)
	}
	// Mapped frames cannot be released.
	if err := rt.Release(3); !errors.Is(err, ErrFrameBusy) {
		t.Fatalf("release mapped: %v", err)
	}
	if err := rt.SetState(3, 7, Unused); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(3); err != nil {
		t.Fatal(err)
	}
	if s, _ := rt.State(3); s != Free {
		t.Fatalf("state after release = %v", s)
	}
}

func TestRamTabValidation(t *testing.T) {
	rt := NewRamTab(4)
	if _, err := rt.Owner(9); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
	if _, err := rt.State(9); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
	if _, err := rt.Width(9); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
	rt.Grant(1, 5, 2)
	if w, _ := rt.Width(1); w != 2 {
		t.Fatalf("width = %d", w)
	}
	// Non-owner cannot transition.
	if err := rt.SetState(1, 6, Mapped); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("err = %v", err)
	}
	// Free frames belong to the allocator.
	if err := rt.SetState(2, 5, Mapped); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("err = %v", err)
	}
	// Mapped -> Nailed is allowed (nailing a mapped frame); the reverse
	// Nailed -> Mapped is not — unnail first.
	rt.SetState(1, 5, Mapped)
	if err := rt.SetState(1, 5, Nailed); err != nil {
		t.Fatalf("nail mapped frame: %v", err)
	}
	if err := rt.SetState(1, 5, Mapped); !errors.Is(err, ErrFrameBusy) {
		t.Fatalf("nailed->mapped: %v", err)
	}
	rt.SetState(1, 5, Unused)
	rt.SetState(1, 5, Mapped)
	// Idempotent transition is fine.
	if err := rt.SetState(1, 5, Mapped); err != nil {
		t.Fatal(err)
	}
}

func TestRamTabNailed(t *testing.T) {
	rt := NewRamTab(4)
	rt.Grant(0, 1, 0)
	if err := rt.SetState(0, 1, Nailed); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(0); !errors.Is(err, ErrFrameBusy) {
		t.Fatalf("released nailed frame: %v", err)
	}
	// Owner may unnail.
	if err := rt.SetState(0, 1, Unused); err != nil {
		t.Fatal(err)
	}
}

func TestRamTabOwnedBy(t *testing.T) {
	rt := NewRamTab(6)
	rt.Grant(1, 9, 0)
	rt.Grant(4, 9, 0)
	rt.Grant(2, 3, 0)
	got := rt.OwnedBy(9)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("OwnedBy = %v", got)
	}
}

func TestFrameStackOrdering(t *testing.T) {
	var st FrameStack
	st.PushTop(1)
	st.PushTop(2) // stack: 2 1
	st.PushBottom(3)
	if st.Len() != 3 {
		t.Fatalf("Len = %d", st.Len())
	}
	top := st.Top(2)
	if top[0].PFN != 2 || top[1].PFN != 1 {
		t.Fatalf("Top = %v", top)
	}
	if err := st.MoveToTop(3); err != nil {
		t.Fatal(err)
	}
	if st.Entries()[0].PFN != 3 {
		t.Fatal("MoveToTop failed")
	}
	if err := st.MoveToBottom(3); err != nil {
		t.Fatal(err)
	}
	if st.Entries()[2].PFN != 3 {
		t.Fatal("MoveToBottom failed")
	}
	if err := st.Remove(1); err != nil {
		t.Fatal(err)
	}
	if st.Contains(1) || !st.Contains(2) {
		t.Fatal("Remove/Contains wrong")
	}
	if err := st.Remove(99); err == nil {
		t.Fatal("removed absent frame")
	}
	e, ok := st.PopTop()
	if !ok || e.PFN != 2 {
		t.Fatalf("PopTop = %v, %v", e, ok)
	}
	st.PopTop()
	if _, ok := st.PopTop(); ok {
		t.Fatal("PopTop on empty stack succeeded")
	}
}

func TestFrameStackVA(t *testing.T) {
	var st FrameStack
	st.PushTop(5)
	if err := st.SetVA(5, 0xABCD0000); err != nil {
		t.Fatal(err)
	}
	va, err := st.VA(5)
	if err != nil || va != 0xABCD0000 {
		t.Fatalf("VA = %x, %v", va, err)
	}
	if _, err := st.VA(6); err == nil {
		t.Fatal("VA of absent frame succeeded")
	}
	if err := st.SetVA(6, 1); err == nil {
		t.Fatal("SetVA of absent frame succeeded")
	}
	// Top(k) clamps.
	if got := st.Top(10); len(got) != 1 {
		t.Fatalf("Top(10) = %v", got)
	}
}

// Property: any sequence of stack operations preserves the set of frames
// (no duplication, no loss).
func TestFrameStackProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var st FrameStack
		present := map[PFN]bool{}
		for i, op := range ops {
			pfn := PFN(op % 16)
			switch i % 4 {
			case 0:
				if !present[pfn] {
					st.PushTop(pfn)
					present[pfn] = true
				}
			case 1:
				if !present[pfn] {
					st.PushBottom(pfn)
					present[pfn] = true
				}
			case 2:
				if present[pfn] {
					if st.MoveToTop(pfn) != nil {
						return false
					}
				}
			case 3:
				if present[pfn] {
					if st.Remove(pfn) != nil {
						return false
					}
					delete(present, pfn)
				}
			}
			if st.Len() != len(present) {
				return false
			}
			seen := map[PFN]bool{}
			for _, e := range st.Entries() {
				if seen[e.PFN] || !present[e.PFN] {
					return false
				}
				seen[e.PFN] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
