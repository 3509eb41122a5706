package vm

import (
	"errors"
	"math/rand"
	"testing"

	"nemesis/internal/mem"
)

// linearOverlaps is the allocator's original overlap predicate, a scan of
// every stretch, kept as the reference for the indexed one.
func linearOverlaps(sa *StretchAllocator, base VA, size uint64) bool {
	for _, st := range sa.byBase {
		if base < st.base+VA(st.size) && st.base < base+VA(size) {
			return true
		}
	}
	return false
}

// TestOverlapsMatchesLinearScan drives random New/NewAt/Destroy sequences
// over a small address space, so stretches crowd and collide, and checks
// the indexed overlap test against the linear predicate at random probes
// after every step, and NewAt's verdict against it before every call.
func TestOverlapsMatchesLinearScan(t *testing.T) {
	const low, pages = VA(0x10000000), 256
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 20; seq++ {
		ts := NewTranslationSystem(mem.NewRamTab(64))
		sa := NewStretchAllocator(ts, low, low+pages*PageSize)
		var live []*Stretch
		for step := 0; step < 300; step++ {
			size := uint64(1+rng.Intn(8)) * PageSize
			switch op := rng.Intn(3); {
			case op == 0:
				if st, err := sa.New(1, size); err == nil {
					live = append(live, st)
				} else if !errors.Is(err, ErrNoVAS) {
					t.Fatalf("seq %d step %d: New: %v", seq, step, err)
				}
			case op == 1:
				base := low + VA(rng.Intn(pages))*PageSize
				want := linearOverlaps(sa, base, size)
				st, err := sa.NewAt(1, base, size)
				switch {
				case errors.Is(err, ErrNoVAS):
				case want != errors.Is(err, ErrOverlap):
					t.Fatalf("seq %d step %d: NewAt(%#x,+%#x) err %v, linear overlap %v", seq, step, uint64(base), size, err, want)
				case err == nil:
					live = append(live, st)
				}
			case len(live) > 0:
				i := rng.Intn(len(live))
				if err := sa.Destroy(live[i]); err != nil {
					t.Fatalf("seq %d step %d: Destroy: %v", seq, step, err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			for probe := 0; probe < 8; probe++ {
				base := low - 4*PageSize + VA(rng.Intn(pages+8))*PageSize
				size := uint64(1+rng.Intn(16)) * PageSize
				if got, want := sa.overlaps(base, size), linearOverlaps(sa, base, size); got != want {
					t.Fatalf("seq %d step %d: overlaps(%#x,+%#x) = %v, linear %v", seq, step, uint64(base), size, got, want)
				}
			}
		}
		if len(sa.byBase) != len(live) {
			t.Fatalf("seq %d: %d stretches allocated, %d live", seq, len(sa.byBase), len(live))
		}
	}
}
