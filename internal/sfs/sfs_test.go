package sfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/sim"
	"nemesis/internal/usd"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

func newSFS() (*sim.Simulator, *usd.USD, *SFS) {
	s := sim.New(1)
	u := usd.New(s, disk.New(s, disk.VP3221()))
	fs := New(u, usd.Extent{Start: 100000, Count: 200000})
	return s, u, fs
}

func q() atropos.QoS { return atropos.QoS{P: ms(250), S: ms(50), L: ms(10)} }

func TestExtentAllocFirstFit(t *testing.T) {
	a := newExtentAllocator(0, 1000)
	s1, err := a.Alloc(100)
	if err != nil || s1 != 0 {
		t.Fatalf("alloc = %d, %v", s1, err)
	}
	s2, _ := a.Alloc(200)
	if s2 != 100 {
		t.Fatalf("second alloc = %d", s2)
	}
	if err := a.Free(0, 100); err != nil {
		t.Fatal(err)
	}
	// First fit reuses the hole at 0.
	s3, _ := a.Alloc(50)
	if s3 != 0 {
		t.Fatalf("third alloc = %d, want 0", s3)
	}
	if a.FreeBlocks() != 1000-200-50 {
		t.Fatalf("FreeBlocks = %d", a.FreeBlocks())
	}
}

func TestExtentAllocExhaustion(t *testing.T) {
	a := newExtentAllocator(0, 100)
	if _, err := a.Alloc(101); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v", err)
	}
	a.Alloc(60)
	a.Alloc(40)
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
}

func TestExtentFreeCoalesces(t *testing.T) {
	a := newExtentAllocator(0, 300)
	a.Alloc(100) // [0,100)
	a.Alloc(100) // [100,200)
	a.Alloc(100) // [200,300)
	a.Free(0, 100)
	a.Free(200, 100)
	a.Free(100, 100) // middle: must merge all three
	if a.LargestFree() != 300 {
		t.Fatalf("LargestFree = %d, want 300 after coalesce", a.LargestFree())
	}
}

func TestExtentFreeValidation(t *testing.T) {
	a := newExtentAllocator(100, 100)
	if err := a.Free(50, 10); !errors.Is(err, ErrBadFree) {
		t.Fatalf("out-of-region free: %v", err)
	}
	if err := a.Free(150, 10); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err) // region starts fully free
	}
	if err := a.Free(100, 0); !errors.Is(err, ErrBadFree) {
		t.Fatalf("zero free: %v", err)
	}
	x, _ := a.Alloc(100)
	if err := a.Free(x, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(x+20, 10); !errors.Is(err, ErrBadFree) {
		t.Fatalf("overlapping free: %v", err)
	}
}

// Property: random alloc/free sequences never corrupt the allocator —
// allocations never overlap, and freeing everything restores full capacity.
func TestExtentAllocatorProperty(t *testing.T) {
	type alloc struct{ start, count int64 }
	f := func(sizes []uint8) bool {
		a := newExtentAllocator(0, 4096)
		var live []alloc
		for i, sz := range sizes {
			n := int64(sz)%64 + 1
			if i%3 == 2 && len(live) > 0 {
				v := live[0]
				live = live[1:]
				if a.Free(v.start, v.count) != nil {
					return false
				}
				continue
			}
			start, err := a.Alloc(n)
			if err != nil {
				continue
			}
			for _, o := range live {
				if start < o.start+o.count && o.start < start+n {
					return false // overlap
				}
			}
			live = append(live, alloc{start, n})
		}
		for _, v := range live {
			if a.Free(v.start, v.count) != nil {
				return false
			}
		}
		return a.FreeBlocks() == 4096 && a.LargestFree() == 4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateSwapFile(t *testing.T) {
	_, u, fs := newSFS()
	f, err := fs.CreateSwapFile("swap0", 16<<20, q(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != (16<<20)/disk.BlockSize {
		t.Fatalf("Blocks = %d", f.Blocks())
	}
	ext := f.Extent()
	if ext.Start < fs.Partition().Start || ext.Start+ext.Count > fs.Partition().Start+fs.Partition().Count {
		t.Fatalf("extent %v outside partition %v", ext, fs.Partition())
	}
	if fs.Lookup("swap0") != f || fs.Lookup("nope") != nil {
		t.Fatal("Lookup broken")
	}
	if u.Contracted() != 0.2 {
		t.Fatalf("Contracted = %v", u.Contracted())
	}
	if _, err := fs.CreateSwapFile("swap0", 1<<20, q(), 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestSFSSentinelErrors: control-path failures report typed sentinels.
func TestSFSSentinelErrors(t *testing.T) {
	_, _, fs := newSFS()
	f, err := fs.CreateSwapFile("f", 1<<20, q(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateSwapFile("f", 1<<20, q(), 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if err := fs.DeleteSwapFile("missing"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("delete err = %v", err)
	}
	for _, bad := range [][2]int64{{-1, 1}, {0, 0}, {f.Blocks(), 1}, {0, f.Blocks() + 1}} {
		if err := f.checkRange(bad[0], int(bad[1])); !errors.Is(err, ErrBadRange) {
			t.Fatalf("checkRange(%d,%d) err = %v", bad[0], bad[1], err)
		}
	}
	if err := f.checkRange(0, int(f.Blocks())); err != nil {
		t.Fatalf("full-range check failed: %v", err)
	}
}

func TestCreateSwapFileRollsBackOnUSDFailure(t *testing.T) {
	_, _, fs := newSFS()
	free := fs.FreeBlocks()
	// Contract exceeding the whole disk is rejected by the USD; the
	// extent must be returned.
	bad := atropos.QoS{P: ms(100), S: ms(200)}
	if _, err := fs.CreateSwapFile("f", 1<<20, bad, 1); err == nil {
		t.Fatal("bad QoS accepted")
	}
	if fs.FreeBlocks() != free {
		t.Fatalf("extent leaked: %d != %d", fs.FreeBlocks(), free)
	}
}

func TestCreateSwapFileNoSpace(t *testing.T) {
	_, _, fs := newSFS()
	if _, err := fs.CreateSwapFile("huge", 200001*disk.BlockSize, q(), 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.CreateSwapFile("empty", 0, q(), 1); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteSwapFile(t *testing.T) {
	_, u, fs := newSFS()
	free := fs.FreeBlocks()
	_, err := fs.CreateSwapFile("f", 1<<20, q(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.DeleteSwapFile("f"); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() != free {
		t.Fatal("extent not returned")
	}
	if u.Contracted() != 0 {
		t.Fatal("QoS contract not released")
	}
	if err := fs.DeleteSwapFile("f"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestSwapFileIO(t *testing.T) {
	s, _, fs := newSFS()
	f, err := fs.CreateSwapFile("swap", 1<<20, q(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("app", func(p *sim.Proc) {
		w := bytes.Repeat([]byte{0xC3}, 16*disk.BlockSize)
		if err := f.Write(p, 32, 16, w); err != nil {
			t.Error(err)
			return
		}
		r := make([]byte, 16*disk.BlockSize)
		if err := f.Read(p, 32, 16, r); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(w, r) {
			t.Error("swap file round trip corrupted")
		}
		// Out-of-file access must fail locally.
		if err := f.Read(p, f.Blocks()-8, 16, r); err == nil {
			t.Error("read past end of swap file succeeded")
		}
		if err := f.Write(p, -1, 16, w); err == nil {
			t.Error("negative offset accepted")
		}
	})
	s.RunFor(time.Second)
}

// TestSwapFileRecyclesRequests: once a transaction has completed, its
// request goes back on the swap file's free list without the caller's
// buffer, and later reads and writes reuse it instead of allocating. A
// transaction that fails in the USD keeps its request off the list.
func TestSwapFileRecyclesRequests(t *testing.T) {
	s, _, fs := newSFS()
	f, err := fs.CreateSwapFile("swap", 1<<20, q(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("app", func(p *sim.Proc) {
		buf := make([]byte, 8*disk.BlockSize)
		if err := f.Write(p, 0, 8, buf); err != nil {
			t.Error(err)
			return
		}
		if len(f.free) != 1 || f.free[0].Data != nil {
			t.Errorf("after one write: free list %v, want one request holding no buffer", f.free)
			return
		}
		req := f.free[0]
		for i := 0; i < 50; i++ {
			if i%2 == 0 {
				err = f.Read(p, int64(i), 8, buf)
			} else {
				err = f.Write(p, int64(i), 8, buf)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if len(f.free) != 1 || f.free[0] != req {
				t.Errorf("transaction %d took a fresh request", i)
				return
			}
		}
		// Shift the file onto blocks the USD never granted it: the USD
		// serves the request and fails it.
		f.extent.Start += f.extent.Count
		err := f.Read(p, 0, 8, buf)
		f.extent.Start -= f.extent.Count
		if !errors.Is(err, usd.ErrNoSuchExtent) {
			t.Errorf("read outside the grant: err = %v", err)
		}
		if len(f.free) != 0 {
			t.Error("a failed transaction's request went back on the free list")
		}
	})
	s.RunFor(10 * time.Second)
}

// TestSwapFilesIsolated: one swap file's channel cannot reach another's
// extent even via the raw channel (USD extent protection).
func TestSwapFilesIsolated(t *testing.T) {
	s, _, fs := newSFS()
	f1, _ := fs.CreateSwapFile("one", 1<<20, q(), 1)
	f2, _ := fs.CreateSwapFile("two", 1<<20, q(), 1)
	s.Spawn("attacker", func(p *sim.Proc) {
		// Use f1's raw channel to address f2's extent directly.
		_, err := f1.Channel().Do(p, &usd.Request{
			Op: disk.Read, Block: f2.Extent().Start, Count: 16,
		})
		if !errors.Is(err, usd.ErrNoSuchExtent) {
			t.Errorf("cross-extent access: err = %v", err)
		}
	})
	s.RunFor(time.Second)
}

func TestOpenAlias(t *testing.T) {
	s, u, fs := newSFS()
	f, err := fs.CreateSwapFile("main", 1<<20, q(), 1)
	if err != nil {
		t.Fatal(err)
	}
	alias, err := fs.OpenAlias(f, "main-pf", q(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if alias.Depth() != 4 {
		t.Fatalf("depth = %d", alias.Depth())
	}
	// Both channels reach the same extent; data written through one is
	// visible through the other.
	s.Spawn("io", func(p *sim.Proc) {
		w := bytes.Repeat([]byte{0x77}, 16*disk.BlockSize)
		if err := f.Write(p, 0, 16, w); err != nil {
			t.Error(err)
			return
		}
		r, err := alias.Do(p, &usd.Request{Op: disk.Read, Block: f.Extent().Start, Count: 16})
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(r.Data, w) {
			t.Error("alias read mismatch")
		}
		// The alias cannot reach outside the file's extent.
		if _, err := alias.Do(p, &usd.Request{Op: disk.Read, Block: f.Extent().Start + f.Extent().Count, Count: 16}); err == nil {
			t.Error("alias escaped the extent")
		}
	})
	s.RunFor(2 * time.Second)
	// The alias holds its own QoS contract.
	if u.Contracted() != 0.4 {
		t.Fatalf("Contracted = %v", u.Contracted())
	}
	// Alias on top of a bad contract is rejected and leaves no residue.
	if _, err := fs.OpenAlias(f, "main-pf2", atropos.QoS{P: ms(100), S: ms(300)}, 1); err == nil {
		t.Fatal("bad alias accepted")
	}
	if _, err := fs.OpenAlias(f, "main-pf2", q(), 1); err != nil {
		t.Fatalf("name not released after failed alias: %v", err)
	}
}
