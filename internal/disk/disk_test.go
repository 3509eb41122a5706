package disk

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nemesis/internal/sim"
)

func newDisk() (*sim.Simulator, *Disk) {
	s := sim.New(1)
	return s, New(s, VP3221())
}

func TestGeometryBasics(t *testing.T) {
	g := VP3221()
	// 5400 rpm => 11.11ms.
	if got := g.RotationTime().Round(10 * time.Microsecond); got != 11110*time.Microsecond {
		t.Fatalf("RotationTime = %v", got)
	}
	if g.Cylinders() != (4304536+863)/864 {
		t.Fatalf("Cylinders = %d", g.Cylinders())
	}
	if g.SeekTime(5, 5) != 0 {
		t.Fatal("zero-distance seek nonzero")
	}
	if g.SeekTime(0, 1) < g.MinSeek {
		t.Fatal("short seek below MinSeek")
	}
	full := g.SeekTime(0, g.Cylinders())
	if full < g.MaxSeek-time.Millisecond || full > g.MaxSeek+time.Millisecond {
		t.Fatalf("full-stroke seek = %v, want ~%v", full, g.MaxSeek)
	}
	// Seek monotonic in distance.
	if g.SeekTime(0, 10) > g.SeekTime(0, 1000) {
		t.Fatal("seek not monotonic")
	}
}

func TestTransferTimes(t *testing.T) {
	g := VP3221()
	// One full track takes one rotation (within integer-division error).
	got, want := g.MediaTransferTime(g.SectorsPerTrack), g.RotationTime()
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("full-track transfer = %v, want ~%v", got, want)
	}
	// 16 blocks (one 8 KB page) at 10 MB/s interface = 819.2us.
	if got := g.InterfaceTransferTime(16); got != time.Duration(819200) {
		t.Fatalf("interface transfer = %v", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s, d := newDisk()
	done := false
	s.Spawn("io", func(p *sim.Proc) {
		buf := make([]byte, 16*BlockSize)
		for i := range buf {
			buf[i] = byte(i % 251)
		}
		if err := d.WriteAt(p, 1000, 16, buf); err != nil {
			t.Error(err)
		}
		got := make([]byte, 16*BlockSize)
		if err := d.ReadAt(p, 1000, 16, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(buf, got) {
			t.Error("round trip corrupted data")
		}
		done = true
	})
	s.RunUntilIdle(1000)
	if !done {
		t.Fatal("io proc did not finish")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BlocksRead != 16 || st.BlocksWritten != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	s, d := newDisk()
	s.Spawn("io", func(p *sim.Proc) {
		buf := []byte{1, 2, 3}
		got := make([]byte, BlockSize)
		copy(got, buf)
		if err := d.ReadAt(p, 42, 1, got); err != nil {
			t.Error(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Error("unwritten block nonzero")
				break
			}
		}
	})
	s.RunUntilIdle(100)
}

func TestRequestValidation(t *testing.T) {
	s, d := newDisk()
	s.Spawn("io", func(p *sim.Proc) {
		if err := d.ReadAt(p, -1, 1, make([]byte, BlockSize)); err == nil {
			t.Error("negative block accepted")
		}
		if err := d.ReadAt(p, d.Geom.TotalBlocks-1, 2, make([]byte, 2*BlockSize)); err == nil {
			t.Error("overrun accepted")
		}
		if err := d.ReadAt(p, 0, 0, nil); err == nil {
			t.Error("zero count accepted")
		}
		if err := d.WriteAt(p, 0, 2, make([]byte, BlockSize)); err == nil {
			t.Error("short buffer accepted")
		}
	})
	s.RunUntilIdle(100)
}

func TestSequentialReadsHitCache(t *testing.T) {
	s, d := newDisk()
	s.Spawn("io", func(p *sim.Proc) {
		buf := make([]byte, 16*BlockSize)
		// First read: mechanical miss, fills a 128-block segment.
		d.ReadAt(p, 0, 16, buf)
		missStats := d.Stats()
		// Next reads within the segment: cache hits.
		d.ReadAt(p, 16, 16, buf)
		d.ReadAt(p, 32, 16, buf)
		st := d.Stats()
		if st.CacheHits != 2 {
			t.Errorf("CacheHits = %d, want 2", st.CacheHits)
		}
		if st.SeekTime != missStats.SeekTime || st.RotTime != missStats.RotTime {
			t.Error("cache hit paid mechanical cost")
		}
	})
	s.RunUntilIdle(1000)
}

func TestCacheHitMuchFasterThanMiss(t *testing.T) {
	s, d := newDisk()
	now := s.Now()
	miss := d.ServiceTime(now, Read, 0, 16)
	hit := d.ServiceTime(now, Read, 16, 16)
	if hit*3 > miss {
		t.Fatalf("hit %v not much faster than miss %v", hit, miss)
	}
}

func TestStreamAdvancesOnHit(t *testing.T) {
	_, d := newDisk()
	d.ServiceTime(0, Read, 0, 16) // mechanical; stream tail = 16
	if !d.cacheLookup(16, 16) {   // continuation; tail -> 32
		t.Fatal("continuation not detected")
	}
	// Backward read is not a continuation.
	if d.cacheLookup(0, 16) {
		t.Fatal("backward read treated as stream continuation")
	}
	// Short forward hop within the look-ahead window continues the stream.
	if !d.cacheLookup(64, 16) {
		t.Fatal("forward hop inside window missed")
	}
	// A hop past the window is a miss.
	if d.cacheLookup(80+int64(d.Geom.CacheSegmentBlocks)+1, 16) {
		t.Fatal("hop beyond window treated as hit")
	}
}

func TestWriteInvalidatesStream(t *testing.T) {
	_, d := newDisk()
	d.ServiceTime(0, Read, 0, 16) // stream tail = 16
	// Write into the stream's read-ahead window aborts it.
	d.ServiceTime(0, Write, 32, 16)
	if d.cacheLookup(16, 16) {
		t.Fatal("write inside look-ahead window did not kill stream")
	}
	// A stream far from the write survives.
	d.ServiceTime(0, Read, 10000, 16) // tail = 10016
	d.ServiceTime(0, Write, 500, 16)
	if !d.cacheLookup(10016, 16) {
		t.Fatal("unrelated stream killed by distant write")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	_, d := newDisk()
	g := d.Geom
	stride := int64(g.CacheSegmentBlocks) * 100
	for i := 0; i <= g.CacheSegments; i++ { // one more stream than slots
		d.ServiceTime(0, Read, int64(i)*stride, 16)
	}
	// The first stream (tail 16) must have been evicted.
	if d.cacheLookup(16, 16) {
		t.Fatal("LRU stream not evicted")
	}
	// The second stream survives.
	if !d.cacheLookup(stride+16, 16) {
		t.Fatal("recently used stream evicted")
	}
}

func TestWritesUncachedAndSlow(t *testing.T) {
	_, d := newDisk()
	// Two writes to the same place: the second must still pay mechanical
	// cost (write cache disabled).
	w1 := d.ServiceTime(0, Write, 5000, 16)
	w2 := d.ServiceTime(sim.Time(w1), Write, 5000, 16)
	if w2 < d.Geom.MinSeek {
		t.Fatalf("repeat write too fast: %v", w2)
	}
	// A write landing just after its sector passed pays nearly a full
	// rotation; on average writes take several ms. Check a spread of
	// positions stays in the plausible 2..25ms envelope.
	for i := int64(0); i < 20; i++ {
		dur := d.ServiceTime(sim.Time(i*7919*1000), Write, 100000+i*864, 16)
		if dur < 2*time.Millisecond || dur > 35*time.Millisecond {
			t.Fatalf("write %d cost %v outside envelope", i, dur)
		}
	}
}

func TestDistantSeeksCostMoreThanNear(t *testing.T) {
	_, d := newDisk()
	d.ServiceTime(0, Read, 0, 16)
	near := d.Geom.SeekTime(d.head, d.Geom.cylinderOf(2000))
	far := d.Geom.SeekTime(d.head, d.Geom.cylinderOf(4000000))
	if near >= far {
		t.Fatalf("near %v >= far %v", near, far)
	}
}

func TestPeekBlock(t *testing.T) {
	s, d := newDisk()
	s.Spawn("io", func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0xAB}, BlockSize)
		d.WriteAt(p, 7, 1, buf)
	})
	s.RunUntilIdle(100)
	if got := d.PeekBlock(7); got[0] != 0xAB || got[BlockSize-1] != 0xAB {
		t.Fatal("PeekBlock wrong data")
	}
	if got := d.PeekBlock(8); got[0] != 0 {
		t.Fatal("PeekBlock of unwritten block nonzero")
	}
}

// Property: data written then read back over arbitrary (block, pattern)
// pairs is preserved, and service time is always positive and bounded.
func TestDiskRoundTripProperty(t *testing.T) {
	f := func(blockSeed uint32, pattern byte, countSeed uint8) bool {
		s, d := newDisk()
		block := int64(blockSeed) % (d.Geom.TotalBlocks - 256)
		count := int(countSeed)%16 + 1
		ok := true
		s.Spawn("io", func(p *sim.Proc) {
			buf := bytes.Repeat([]byte{pattern}, count*BlockSize)
			if err := d.WriteAt(p, block, count, buf); err != nil {
				ok = false
				return
			}
			got := make([]byte, count*BlockSize)
			if err := d.ReadAt(p, block, count, got); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(buf, got)
		})
		s.RunUntilIdle(1000)
		st := d.Stats()
		return ok && st.BusyTime > 0 && st.BusyTime < time.Second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op strings wrong")
	}
}

// A write of zeros into a chunk that holds only zeros, never written or
// written with zeros before, stores no chunk of its own: it allocates
// nothing, and the chunk reads back as zeros.
func TestZeroWriteAllocatesNothing(t *testing.T) {
	s, d := newDisk()
	zeros := make([]byte, 16*BlockSize)
	var fresh, again float64
	s.Spawn("io", func(p *sim.Proc) {
		next := int64(0)
		fresh = testing.AllocsPerRun(50, func() {
			next++ // a chunk no earlier run wrote
			if err := d.WriteAt(p, next*chunkBlocks+3, 16, zeros); err != nil {
				t.Error(err)
			}
		})
		again = testing.AllocsPerRun(50, func() {
			if err := d.WriteAt(p, next*chunkBlocks+40, 16, zeros); err != nil {
				t.Error(err)
			}
		})
		got := bytes.Repeat([]byte{0xFF}, len(zeros))
		if err := d.ReadAt(p, next*chunkBlocks+3, 16, got); err != nil || !bytes.Equal(got, zeros) {
			t.Errorf("zero chunk read back %#x…, err %v", got[0], err)
		}
	})
	s.RunUntilIdle(1000)
	if fresh != 0 || again != 0 {
		t.Fatalf("zero write allocated %v times into an unwritten chunk and %v into a zero chunk, want 0", fresh, again)
	}
	if _, populated := d.SharedChunks(); populated != 51 {
		t.Fatalf("populated chunks = %d, want 51", populated)
	}
	if got := d.PeekBlock(51*chunkBlocks + 40); !bytes.Equal(got, zeros[:BlockSize]) {
		t.Fatal("PeekBlock of a zero chunk nonzero")
	}
}

// fracPart must equal math.Mod(x, 1) bit for bit on every finite x >= 0
// the head angle can take: random bit patterns over the whole range,
// random head-angle quotients, and the boundaries around integers, the
// subnormals and the largest values.
func TestFracPartMatchesMod(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := fracPart(x), math.Mod(x, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fracPart(%v) = %v (%#x), math.Mod = %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range []float64{
		0, math.SmallestNonzeroFloat64, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2),
		1.5, 2, math.Nextafter(2, 3), 3, 1 << 52, math.Nextafter(1<<52, 0), 1<<52 + 0.5,
		1 << 53, math.Nextafter(1<<53, 0), 1 << 63, math.MaxFloat64,
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	rot := float64(VP3221().RotationTime())
	for i := 0; i < 100000; i++ {
		x := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		check(x)
		check(float64(rng.Int63()) / rot)
		n := float64(rng.Int63n(1 << 52))
		check(n)
		check(math.Nextafter(n, 0))
		check(math.Nextafter(n, math.Inf(1)))
	}
}
