// Package disk models the drive used in the paper's evaluation: a Quantum
// VP3221 (5400 rpm, 2.1 GB, 4,304,536 × 512-byte blocks) behind an NCR53c810
// Fast SCSI-2 controller, with read caching enabled and write caching
// disabled (the paper's default configuration).
//
// The model is mechanical, not statistical: requests pay a seek that depends
// on cylinder distance, a rotational delay that depends on the angular
// position of the platter at the simulated instant the seek completes, and a
// media-rate transfer. A segmented read-ahead cache serves sequential reads
// at interface speed. Blocks carry real data so paging correctness is
// end-to-end testable.
//
// The block store keeps each 256 KB chunk in one of three states: never
// written (nil), written with zeros only (the package's zeroChunk, shared by
// every chunk in that state on every drive in the process), or private.
// Only a private chunk costs host bytes. Nothing writes through zeroChunk:
// parallel sweep workers read it at once, so a write would be a data race
// and would corrupt every world.
package disk

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// BlockSize is the sector size in bytes.
const BlockSize = 512

// Errors returned by disk operations.
var (
	ErrOutOfRange = errors.New("disk: block out of range")
	ErrBadCount   = errors.New("disk: non-positive block count")
	ErrShortData  = errors.New("disk: data length does not match block count")
)

// Op distinguishes request directions.
type Op uint8

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Geometry describes the mechanical layout and timing of a drive.
type Geometry struct {
	TotalBlocks     int64
	SectorsPerTrack int
	Heads           int
	RPM             int
	// MinSeek is the single-cylinder seek time; MaxSeek the full stroke.
	// Seek time for distance d cylinders is
	// MinSeek + (MaxSeek-MinSeek)*sqrt(d/cylinders).
	MinSeek, MaxSeek time.Duration
	// InterfaceRate is the host transfer rate (bytes/second) used for
	// cache hits.
	InterfaceRate float64
	// Overhead is fixed per-request controller/command time.
	Overhead time.Duration
	// CacheSegments and CacheSegmentBlocks size the segmented read-ahead
	// cache. Zero segments disables read caching.
	CacheSegments      int
	CacheSegmentBlocks int
}

// VP3221 returns the paper's drive.
func VP3221() Geometry {
	return Geometry{
		TotalBlocks:        4304536,
		SectorsPerTrack:    108,
		Heads:              8,
		RPM:                5400,
		MinSeek:            2500 * time.Microsecond,
		MaxSeek:            19 * time.Millisecond,
		InterfaceRate:      10e6, // Fast SCSI-2
		Overhead:           300 * time.Microsecond,
		CacheSegments:      8,
		CacheSegmentBlocks: 128, // 64 KB read-ahead segments
	}
}

// RotationTime returns the time for one platter revolution.
func (g Geometry) RotationTime() time.Duration {
	return time.Duration(float64(time.Minute) / float64(g.RPM))
}

// blocksPerCylinder returns sectors×heads.
func (g Geometry) blocksPerCylinder() int64 {
	return int64(g.SectorsPerTrack) * int64(g.Heads)
}

// Cylinders returns the cylinder count implied by the geometry.
func (g Geometry) Cylinders() int64 {
	bpc := g.blocksPerCylinder()
	return (g.TotalBlocks + bpc - 1) / bpc
}

// cylinderOf maps a block to its cylinder.
func (g Geometry) cylinderOf(block int64) int64 {
	return block / g.blocksPerCylinder()
}

// sectorAngle returns the angular position (0..1) of a block on its track.
func (g Geometry) sectorAngle(block int64) float64 {
	return float64(block%int64(g.SectorsPerTrack)) / float64(g.SectorsPerTrack)
}

// fracPart returns the fractional part of x, for finite x >= 0. There it
// equals math.Mod(x, 1) bit for bit: both are exact, since x - floor(x)
// subtracts within a factor of two (Sterbenz's lemma) or subtracts zero,
// and it skips math.Mod's software loop.
func fracPart(x float64) float64 { return x - math.Floor(x) }

// SeekTime returns the seek cost between two cylinders.
func (g Geometry) SeekTime(from, to int64) time.Duration {
	if from == to {
		return 0
	}
	d := from - to
	if d < 0 {
		d = -d
	}
	frac := math.Sqrt(float64(d) / float64(g.Cylinders()))
	return g.MinSeek + time.Duration(frac*float64(g.MaxSeek-g.MinSeek))
}

// MediaTransferTime returns the media-rate time to transfer n blocks.
func (g Geometry) MediaTransferTime(n int) time.Duration {
	perSector := g.RotationTime() / time.Duration(g.SectorsPerTrack)
	return time.Duration(n) * perSector
}

// InterfaceTransferTime returns the host-rate time to transfer n blocks.
func (g Geometry) InterfaceTransferTime(n int) time.Duration {
	return time.Duration(float64(n*BlockSize) / g.InterfaceRate * float64(time.Second))
}

// segment is one read-ahead stream: the drive has detected a sequential
// read stream and keeps its read-ahead running, so continuation reads within
// the look-ahead window are served from the segment buffer. tail is the
// first block not yet requested by the host; the drive is assumed to have
// read ahead up to tail+window in the background (charged as media-rate
// transfer time on each continuation, which keeps aggregate throughput
// bounded by the spindle's media rate).
type segment struct {
	tail    int64
	lastUse uint64
}

// Stats accumulates disk activity counters.
type Stats struct {
	Reads, Writes   int64
	BlocksRead      int64
	BlocksWritten   int64
	CacheHits       int64
	BusyTime        time.Duration
	SeekTime        time.Duration
	RotTime         time.Duration
	TransferTime    time.Duration
	FullRotStalls   int64 // writes that had to wait more than 90% of a revolution
	CoalescedWrites int64 // writes that paid no seek and <10% rotation
}

// Disk is a simulated drive. All methods must be called from simulator
// context (an event callback or a process); the USD serialises access, which
// matches a single-spindle device.
type Disk struct {
	Geom Geometry
	sim  *sim.Simulator
	// data is a two-level block store: chunk index -> chunkBlocks*BlockSize
	// bytes. A chunk is nil until written, &zeroChunk while every write to
	// it was all zeros, and private from its first non-zero write on; nil
	// and zeroChunk read as zeros. Indexing is two array derefs instead of
	// a per-block map hash, contiguous chunks let multi-block transfers
	// copy in one run, and the index costs one pointer per chunk.
	data []*[ChunkBytes]byte
	// shared marks chunks frozen by a Fork: both sides of a fork see the
	// same backing array until one of them writes, at which point the writer
	// copies the chunk privately. nil until the first Fork, so an unforked
	// drive pays one nil check per write.
	shared []bool
	segs   []segment
	tick   uint64
	head   int64 // current cylinder
	stats  Stats

	// Telemetry handles, nil unless SetObs was called.
	hRead, hWrite *obs.Histogram
	cCacheHits    *obs.Counter
}

// SetObs attaches a telemetry registry: per-request service-time
// histograms and a cache-hit counter.
func (d *Disk) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	d.hRead = r.Histogram("disk", "service.read", "")
	d.hWrite = r.Histogram("disk", "service.write", "")
	d.cCacheHits = r.Counter("disk", "cache_hits", "")
}

// chunkShift sizes the block-store chunks: 512 blocks (256 KB) each.
const (
	chunkShift  = 9
	chunkBlocks = 1 << chunkShift
)

// zeroChunk is the contents of every chunk written with zeros only. It lives
// in BSS and nothing writes it.
var zeroChunk [ChunkBytes]byte

// private returns chunk idx's private bytes, or nil if it holds only zeros.
func (d *Disk) private(idx int64) []byte {
	if c := d.data[idx]; c != nil && c != &zeroChunk {
		return c[:]
	}
	return nil
}

// New returns a drive with the given geometry attached to s.
func New(s *sim.Simulator, g Geometry) *Disk {
	nChunks := (g.TotalBlocks + chunkBlocks - 1) >> chunkShift
	return &Disk{Geom: g, sim: s, data: make([]*[ChunkBytes]byte, nChunks)}
}

// Stats returns a copy of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// check validates a request envelope.
func (d *Disk) check(block int64, count int) error {
	if count <= 0 {
		return ErrBadCount
	}
	if block < 0 || block+int64(count) > d.Geom.TotalBlocks {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, block, block+int64(count), d.Geom.TotalBlocks)
	}
	return nil
}

// cacheLookup reports whether a read of [block, block+count) continues an
// established sequential stream: at or a short forward hop from a stream
// tail, within the look-ahead window. On hit the stream tail advances.
func (d *Disk) cacheLookup(block int64, count int) bool {
	for i := range d.segs {
		s := &d.segs[i]
		if block >= s.tail && block+int64(count) <= s.tail+int64(d.Geom.CacheSegmentBlocks) {
			d.tick++
			s.lastUse = d.tick
			s.tail = block + int64(count)
			return true
		}
	}
	return false
}

// cacheFill registers a new stream after a mechanical read ending just
// before tail, evicting the least-recently-used stream slot if necessary.
func (d *Disk) cacheFill(tail int64) {
	if d.Geom.CacheSegments == 0 {
		return
	}
	d.tick++
	seg := segment{tail: tail, lastUse: d.tick}
	if len(d.segs) < d.Geom.CacheSegments {
		d.segs = append(d.segs, seg)
		return
	}
	victim := 0
	for i := range d.segs {
		if d.segs[i].lastUse < d.segs[victim].lastUse {
			victim = i
		}
	}
	d.segs[victim] = seg
}

// cacheInvalidate drops streams whose read-ahead window overlaps a written
// range: the drive aborts read-ahead on an intervening write (write caching
// is off).
func (d *Disk) cacheInvalidate(block int64, count int) {
	lo, hi := block, block+int64(count)
	kept := d.segs[:0]
	for _, s := range d.segs {
		if s.tail+int64(d.Geom.CacheSegmentBlocks) <= lo || s.tail >= hi {
			kept = append(kept, s)
		}
	}
	d.segs = kept
}

// ServiceTime computes the duration a request will occupy the drive,
// updating head position, cache and stats, but without sleeping. now is the
// instant service starts.
func (d *Disk) ServiceTime(now sim.Time, op Op, block int64, count int) time.Duration {
	g := d.Geom
	if op == Read && d.cacheLookup(block, count) {
		// Stream continuation: the background read-ahead hides seek and
		// rotation, but the spindle still pays media-rate transfer, so a
		// continuation read is charged overhead plus the larger of the
		// media and interface transfer times. This bounds aggregate
		// streaming throughput by the media rate.
		d.stats.CacheHits++
		d.cCacheHits.Inc()
		xfer := g.MediaTransferTime(count)
		if ifx := g.InterfaceTransferTime(count); ifx > xfer {
			xfer = ifx
		}
		t := g.Overhead + xfer
		d.head = g.cylinderOf(block + int64(count) - 1)
		d.stats.TransferTime += xfer
		d.stats.BusyTime += t
		return t
	}

	seek := g.SeekTime(d.head, g.cylinderOf(block))
	afterSeek := now.Add(g.Overhead + seek)

	// Rotational delay: wait for the target sector to come under the head.
	rot := g.RotationTime()
	headAngle := fracPart(float64(afterSeek) / float64(rot))
	target := g.sectorAngle(block)
	wait := target - headAngle
	if wait < 0 {
		wait++
	}
	rotDelay := time.Duration(wait * float64(rot))

	xfer := g.MediaTransferTime(count)
	total := g.Overhead + seek + rotDelay + xfer

	d.head = g.cylinderOf(block + int64(count) - 1)
	d.stats.SeekTime += seek
	d.stats.RotTime += rotDelay
	d.stats.TransferTime += xfer
	d.stats.BusyTime += total
	if op == Write {
		if wait > 0.9 {
			d.stats.FullRotStalls++
		}
		if seek == 0 && wait < 0.1 {
			d.stats.CoalescedWrites++
		}
	}
	if op == Read {
		d.cacheFill(block + int64(count))
	} else {
		d.cacheInvalidate(block, count)
	}
	return total
}

// ReadAt copies count blocks starting at block into buf (which must be
// count×BlockSize long), charging p the simulated service time.
func (d *Disk) ReadAt(p *sim.Proc, block int64, count int, buf []byte) error {
	if err := d.check(block, count); err != nil {
		return err
	}
	if len(buf) != count*BlockSize {
		return ErrShortData
	}
	dur := d.ServiceTime(d.sim.Now(), Read, block, count)
	d.stats.Reads++
	d.stats.BlocksRead += int64(count)
	d.hRead.Observe(dur)
	p.Sleep(dur)
	for i := 0; i < count; {
		b := block + int64(i)
		off := int(b & (chunkBlocks - 1))
		run := chunkBlocks - off
		if rem := count - i; run > rem {
			run = rem
		}
		dst := buf[i*BlockSize : (i+run)*BlockSize]
		if c := d.private(b >> chunkShift); c != nil {
			copy(dst, c[off*BlockSize:])
		} else {
			clear(dst)
		}
		i += run
	}
	return nil
}

// WriteAt stores count blocks from buf at block, charging p the simulated
// service time. All-zero data bound for a chunk that holds only zeros is
// not copied: the chunk becomes zeroChunk.
func (d *Disk) WriteAt(p *sim.Proc, block int64, count int, buf []byte) error {
	if err := d.check(block, count); err != nil {
		return err
	}
	if len(buf) != count*BlockSize {
		return ErrShortData
	}
	dur := d.ServiceTime(d.sim.Now(), Write, block, count)
	d.stats.Writes++
	d.stats.BlocksWritten += int64(count)
	d.hWrite.Observe(dur)
	p.Sleep(dur)
	for i := 0; i < count; {
		b := block + int64(i)
		off := int(b & (chunkBlocks - 1))
		run := chunkBlocks - off
		if rem := count - i; run > rem {
			run = rem
		}
		idx := b >> chunkShift
		src := buf[i*BlockSize : (i+run)*BlockSize]
		i += run
		c := d.private(idx)
		if c == nil && bytes.Equal(src, zeroChunk[:len(src)]) {
			d.data[idx] = &zeroChunk
			continue
		}
		if c == nil || d.shared != nil && d.shared[idx] {
			// The first data write to a chunk of zeros, or copy-on-write of
			// a chunk frozen by a fork: the chunk gets bytes of its own.
			nc := new([ChunkBytes]byte)
			copy(nc[:], c)
			d.data[idx] = nc
			if d.shared != nil {
				d.shared[idx] = false
			}
			c = nc[:]
		}
		copy(c[off*BlockSize:], src)
	}
	return nil
}

// PeekBlock returns the stored contents of one block without charging any
// time. Unwritten blocks read as zeros. Intended for tests and tools.
func (d *Disk) PeekBlock(block int64) []byte {
	out := make([]byte, BlockSize)
	if c := d.private(block >> chunkShift); c != nil {
		copy(out, c[(block&(chunkBlocks-1))*BlockSize:])
	}
	return out
}
