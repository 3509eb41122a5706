package netswap

import (
	"math/rand"
	"testing"

	"nemesis/internal/vm"
)

// TestPageBitsMatchesMap drives the remote-copy set with random marks and
// invalidations against a map reference. Each run starts in the middle of
// a window of pages, so later marks widen the words below the first page
// marked as well as above it, and every page of the window, including
// pages never marked and pages below the base, is checked after each step.
func TestPageBitsMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lo := vm.VPN(64 + rng.Intn(1<<20))
		span := 1 + rng.Intn(1000)
		var b pageBits
		ref := map[vm.VPN]bool{}
		b.set(lo + vm.VPN(span/2))
		ref[lo+vm.VPN(span/2)] = true
		for step := 0; step < 300; step++ {
			vpn := lo + vm.VPN(rng.Intn(span))
			if rng.Intn(3) == 0 {
				b.clear(vpn)
				delete(ref, vpn)
			} else {
				b.set(vpn)
				ref[vpn] = true
			}
			for v := lo - 64; v < lo+vm.VPN(span)+64; v++ {
				if b.has(v) != ref[v] {
					t.Fatalf("seed %d step %d: has(%d) = %v, want %v", seed, step, v, b.has(v), ref[v])
				}
			}
		}
		if b.base%64 != 0 || b.base > lo+vm.VPN(span) || uint64(len(b.words)) > uint64(span)/64+2 {
			t.Fatalf("seed %d: base %d, %d words for pages %d..%d", seed, b.base, len(b.words), lo, lo+vm.VPN(span))
		}
	}
	var empty pageBits
	empty.clear(7)
	if empty.has(0) || empty.has(7) {
		t.Fatal("empty set reports a page")
	}
}
