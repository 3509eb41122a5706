package disk

import (
	"testing"

	"nemesis/internal/sim"
)

func BenchmarkServiceTimeStreamHit(b *testing.B) {
	s := sim.New(1)
	d := New(s, VP3221())
	d.ServiceTime(0, Read, 0, 16) // establish the stream
	b.ReportAllocs()
	b.ResetTimer()
	block := int64(16)
	for i := 0; i < b.N; i++ {
		d.ServiceTime(sim.Time(i), Read, block, 16)
		block += 16
		if block > d.Geom.TotalBlocks-64 {
			block = 16
			d.ServiceTime(0, Read, 0, 16)
		}
	}
}

func BenchmarkServiceTimeRandom(b *testing.B) {
	s := sim.New(1)
	d := New(s, VP3221())
	rng := s.Rand()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ServiceTime(sim.Time(i), Read, rng.Int63n(d.Geom.TotalBlocks-64), 16)
	}
}

// BenchmarkWriteAt8K and BenchmarkWriteAt8KData price one 8 KB write at
// 1,000 positions (32 chunks), of zeros and of data. Zeros leave every
// chunk the shared zero chunk and copy nothing. Data makes each chunk
// private on its first write, after a zero scan that stops at the first
// non-zero byte, and is copied in. ns/op is host speed and gated nowhere.
func BenchmarkWriteAt8K(b *testing.B) { benchWriteAt8K(b, make([]byte, 16*BlockSize)) }

func BenchmarkWriteAt8KData(b *testing.B) {
	buf := make([]byte, 16*BlockSize)
	for i := range buf {
		buf[i] = byte(1 + i%251)
	}
	benchWriteAt8K(b, buf)
}

func benchWriteAt8K(b *testing.B, buf []byte) {
	s := sim.New(1)
	d := New(s, VP3221())
	done := 0
	s.Spawn("w", func(p *sim.Proc) {
		for done < b.N {
			if err := d.WriteAt(p, int64(done%1000)*16, 16, buf); err != nil {
				b.Error(err)
				return
			}
			done++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(4*b.N + 100)
}
