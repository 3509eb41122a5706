package mem

import (
	"errors"
	"math/rand"
	"testing"
)

// The model suite pins the indexed free-frame queue to a brute-force model
// that replicates the original single-slice free list operation by
// operation: pop-front unspecific allocation, linear scans for
// specific/coloured/region requests, the aligned full scan for contiguous
// runs, and append-at-back frees. After every operation the allocator's
// queue walk must equal the model slice exactly — same frames, same order —
// so every future allocation decision is forced to agree too.

// sliceModel is the old free-list representation.
type sliceModel struct {
	freeList []PFN
	nframes  int
}

func newSliceModel(nframes int) *sliceModel {
	m := &sliceModel{nframes: nframes}
	for i := 0; i < nframes; i++ {
		m.freeList = append(m.freeList, PFN(i))
	}
	return m
}

func (m *sliceModel) take(i int) PFN {
	pfn := m.freeList[i]
	m.freeList = append(m.freeList[:i], m.freeList[i+1:]...)
	return pfn
}

func (m *sliceModel) tryAlloc() (PFN, bool) {
	if len(m.freeList) == 0 {
		return 0, false
	}
	return m.take(0), true
}

func (m *sliceModel) allocSpecific(pfn PFN) bool {
	for i, f := range m.freeList {
		if f == pfn {
			m.take(i)
			return true
		}
	}
	return false
}

func (m *sliceModel) allocColoured(colour, ncolours int) (PFN, bool) {
	for i, f := range m.freeList {
		if int(f)%ncolours == colour {
			return m.take(i), true
		}
	}
	return 0, false
}

func (m *sliceModel) allocContiguous(n int) (PFN, bool) {
	free := make(map[PFN]bool, len(m.freeList))
	for _, f := range m.freeList {
		free[f] = true
	}
	for base := PFN(0); int(base)+n <= m.nframes; base += PFN(n) {
		run := true
		for i := 0; i < n; i++ {
			if !free[base+PFN(i)] {
				run = false
				break
			}
		}
		if !run {
			continue
		}
		for i := 0; i < n; i++ {
			for j, f := range m.freeList {
				if f == base+PFN(i) {
					m.take(j)
					break
				}
			}
		}
		return base, true
	}
	return 0, false
}

func (m *sliceModel) allocInRegion(lo, hi PFN) (PFN, bool) {
	for i, f := range m.freeList {
		if f >= lo && f < hi {
			return m.take(i), true
		}
	}
	return 0, false
}

func (m *sliceModel) free(pfn PFN) {
	m.freeList = append(m.freeList, pfn)
}

// queueWalk returns the allocator's free queue in order.
func queueWalk(fa *FramesAllocator) []PFN {
	var out []PFN
	for i := fa.freeHead; i >= 0; i = fa.nodes[i].next {
		out = append(out, PFN(i))
	}
	return out
}

func checkQueues(t *testing.T, step int, fa *FramesAllocator, m *sliceModel) {
	t.Helper()
	got := queueWalk(fa)
	if len(got) != len(m.freeList) {
		t.Fatalf("step %d: queue length %d, model %d", step, len(got), len(m.freeList))
	}
	for i := range got {
		if got[i] != m.freeList[i] {
			t.Fatalf("step %d: queue[%d] = %d, model %d", step, i, got[i], m.freeList[i])
		}
	}
	if fa.FreeFrames() != len(m.freeList) {
		t.Fatalf("step %d: FreeFrames %d, model %d", step, fa.FreeFrames(), len(m.freeList))
	}
}

// TestAllocatorMatchesSliceModel churns the indexed allocator and the slice
// model through the same random allocation mix and requires identical
// decisions and identical queue state throughout.
func TestAllocatorMatchesSliceModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const nframes = 96
		_, fa := newAlloc(nframes)
		c, err := fa.Admit(1, Contract{Guaranteed: nframes}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newSliceModel(nframes)
		var held []PFN

		for step := 0; step < 400; step++ {
			switch rng.Intn(6) {
			case 0: // unspecific
				pfn, err := c.TryAllocFrame()
				mp, ok := m.tryAlloc()
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: tryAlloc err %v, model ok %v", seed, step, err, ok)
				}
				if err == nil {
					if pfn != mp {
						t.Fatalf("seed %d step %d: tryAlloc %d, model %d", seed, step, pfn, mp)
					}
					held = append(held, pfn)
				}
			case 1: // specific
				pfn := PFN(rng.Intn(nframes))
				err := c.AllocSpecific(pfn)
				ok := m.allocSpecific(pfn)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: allocSpecific(%d) err %v, model ok %v", seed, step, pfn, err, ok)
				}
				if err == nil {
					held = append(held, pfn)
				}
			case 2: // coloured; alternate two colour counts
				nc := 8
				if rng.Intn(2) == 0 {
					nc = 3
				}
				colour := rng.Intn(nc)
				pfn, err := c.AllocColoured(colour, nc)
				mp, ok := m.allocColoured(colour, nc)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: allocColoured(%d/%d) err %v, model ok %v", seed, step, colour, nc, err, ok)
				}
				if err == nil {
					if pfn != mp {
						t.Fatalf("seed %d step %d: allocColoured(%d/%d) %d, model %d", seed, step, colour, nc, pfn, mp)
					}
					held = append(held, pfn)
				}
			case 3: // contiguous
				n := 1 << rng.Intn(4)
				base, err := c.AllocContiguous(n)
				mb, ok := m.allocContiguous(n)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: allocContiguous(%d) err %v, model ok %v", seed, step, n, err, ok)
				}
				if err == nil {
					if base != mb {
						t.Fatalf("seed %d step %d: allocContiguous(%d) base %d, model %d", seed, step, n, base, mb)
					}
					for i := 0; i < n; i++ {
						held = append(held, base+PFN(i))
					}
				}
			case 4: // region
				lo := PFN(rng.Intn(nframes))
				hi := lo + PFN(1+rng.Intn(nframes-int(lo)))
				pfn, err := c.AllocInRegion(lo, hi)
				mp, ok := m.allocInRegion(lo, hi)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: allocInRegion[%d,%d) err %v, model ok %v", seed, step, lo, hi, err, ok)
				}
				if err == nil {
					if pfn != mp {
						t.Fatalf("seed %d step %d: allocInRegion[%d,%d) %d, model %d", seed, step, lo, hi, pfn, mp)
					}
					held = append(held, pfn)
				}
			case 5: // free a random held frame
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				pfn := held[i]
				held = append(held[:i], held[i+1:]...)
				if err := c.FreeFrame(pfn); err != nil {
					t.Fatalf("seed %d step %d: free(%d): %v", seed, step, pfn, err)
				}
				m.free(pfn)
			}
			checkQueues(t, step, fa, m)
		}
	}
}

// TestAllocContiguousFragmentedFastPath is the AllocContiguous worst-case
// regression: with memory fragmented so no run can exist, the request must
// fail via the exhaustion fast path (free count below the run length)
// instead of rescanning the whole frame space, and a fragmented-but-ample
// free list must still fail cleanly after probing.
func TestAllocContiguousFragmentedFastPath(t *testing.T) {
	const nframes = 256
	_, fa := newAlloc(nframes)
	c, _ := fa.Admit(1, Contract{Guaranteed: nframes, Optimistic: 8}, nil)

	// Take everything, then free three scattered frames: a request for 8
	// must fail before probing (nfree < n).
	for i := 0; i < nframes; i++ {
		if _, err := c.TryAllocFrame(); err != nil {
			t.Fatal(err)
		}
	}
	for _, pfn := range []PFN{6, 130, 254} {
		if err := c.FreeFrame(pfn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AllocContiguous(8); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v", err)
	}

	// Now free every second frame: half of memory is free, yet no aligned
	// pair exists; the frame-table probe must reject every base and fail.
	for i := 0; i < nframes; i += 2 {
		if fa.nodes[i].free {
			continue
		}
		if err := c.FreeFrame(PFN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AllocContiguous(2); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v", err)
	}
	// Odd neighbours complete runs again: the lowest aligned pair wins.
	if err := c.FreeFrame(PFN(131)); err != nil {
		t.Fatal(err)
	}
	base, err := c.AllocContiguous(2)
	if err != nil || base != 130 {
		t.Fatalf("AllocContiguous(2) = %d, %v", base, err)
	}
}
