package vm

import (
	"math/rand"
	"testing"

	"nemesis/internal/mem"
)

// The page-table reference test: a map[VPN]PTE fed the same Insert, Delete
// and Lookup calls as the linear table must agree with it after every call.

// Pages drawn from the default VA window ([0x10_0000_0000, 0x20_0000_0000),
// core.DefaultConfig's VALow/VAHigh): chunk edges, pages below the first
// chunk the table allocates, and the far end of the window.
var (
	ptLow  = PageOf(0x0000001000000000)
	ptHigh = PageOf(0x0000002000000000)
	ptVPNs = []VPN{
		ptLow + 1024, ptLow + 1024 + 1, ptLow + 1024 + 511, ptLow + 1024 + 512, ptLow + 1024 + 513,
		ptLow + 2047, ptLow + 2048, ptLow + 2049,
		ptLow + 1023, ptLow + 512, ptLow + 511, ptLow, // below the first chunk
		ptHigh - 1, ptHigh - 512, ptHigh - 513, // the far end
	}
)

// drivePageTable decodes ops into table calls, three bytes a call: the
// operation, then a page — one of ptVPNs, or any page of the window.
func drivePageTable(t *testing.T, ops []byte) {
	t.Helper()
	pt := NewPageTable()
	ref := make(map[VPN]PTE)
	seen := make(map[VPN]*PTE) // every pointer the table handed out
	var lookups int64
	for len(ops) >= 3 {
		op, sel, arg := ops[0], ops[1], ops[2]
		ops = ops[3:]
		vpn := ptLow + VPN(uint64(sel)<<8|uint64(arg))*VPN(ptHigh-ptLow)/(1<<16)
		if int(sel) < len(ptVPNs) {
			vpn = ptVPNs[sel]
		}
		switch op % 4 {
		case 0:
			sid := StretchID(arg)
			pt.Insert(vpn, sid)
			ref[vpn] = PTE{Present: true, SID: sid}
		case 1:
			pt.Delete(vpn)
			delete(ref, vpn)
		default:
			lookups++
			got := pt.Lookup(vpn)
			want, ok := ref[vpn]
			if (got != nil) != ok {
				t.Fatalf("Lookup(%#x) = %v, reference has it: %v", uint64(vpn), got, ok)
			}
			if got == nil {
				break
			}
			if *got != want {
				t.Fatalf("Lookup(%#x) = %+v, want %+v", uint64(vpn), *got, want)
			}
			if p := seen[vpn]; p != nil && p != got {
				t.Fatalf("Lookup(%#x) moved: %p, earlier %p", uint64(vpn), got, p)
			}
			seen[vpn] = got
			if op%4 == 3 { // write through the pointer, as Map does
				got.Valid, got.PFN, got.Dirty = true, mem.PFN(arg), op&8 != 0
				ref[vpn] = *got
			}
		}
		if pt.Entries() != len(ref) {
			t.Fatalf("Entries() = %d, reference holds %d", pt.Entries(), len(ref))
		}
	}
	if pt.Lookups() != lookups {
		t.Fatalf("Lookups() = %d, made %d", pt.Lookups(), lookups)
	}
	// Every pointer handed out still addresses its own page: the current
	// entry, or a cleared one once the page was deleted.
	for vpn, p := range seen {
		if want, ok := ref[vpn]; ok && *p != want || !ok && p.Present {
			t.Fatalf("pointer to %#x reads %+v, reference %+v (present %v)", uint64(vpn), *p, want, ok)
		}
	}
}

func TestPageTableMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*400)
		rng.Read(ops)
		// Keep most pages on the edge list so calls meet again.
		for i := 1; i < len(ops); i += 3 {
			if rng.Intn(4) != 0 {
				ops[i] = byte(rng.Intn(len(ptVPNs)))
			}
		}
		drivePageTable(t, ops)
	}
}

func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0, 7, 0, 10, 3, 0, 12, 9, 3, 10, 1, 2, 0, 0, 1, 11, 0, 2, 10, 0})
	f.Add([]byte{0, 13, 1, 0, 14, 2, 0, 255, 255, 3, 13, 4, 2, 14, 0, 1, 13, 0, 2, 13, 0})
	f.Fuzz(drivePageTable)
}

// Lookup, and an Insert into a chunk already allocated, allocate nothing.
func TestPageTableAllocs(t *testing.T) {
	pt := NewPageTable()
	pt.Insert(ptLow, 1)
	if n := testing.AllocsPerRun(100, func() { pt.Lookup(ptLow + 5) }); n != 0 {
		t.Errorf("Lookup: %.1f allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { pt.Insert(ptLow+511, 2) }); n != 0 {
		t.Errorf("Insert into an allocated chunk: %.1f allocs", n)
	}
}
