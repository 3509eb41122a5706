package disk

import "nemesis/internal/sim"

// Fork returns an independent copy of the drive attached to s, the forked
// simulator. A forked world has no telemetry, so the copy has no registry.
//
// Mechanical state — head cylinder, read-ahead segments, stats — is copied
// outright; it is tiny. The block store is not: a warmed world has tens of
// megabytes of swap-file data on disk, almost all of which the fork will
// never overwrite. Chunks are therefore shared copy-on-write: the fork gets
// a copy of the chunk *index*, every populated chunk, zeroChunk included, is
// marked shared on both sides, and whichever side writes a shared chunk
// first copies it privately (a zero write keeps a zeroChunk as it is).
// Shared chunks are immutable from the instant of the fork, so
// parent and children can run on different goroutines without touching each
// other's data.
func (d *Disk) Fork(s *sim.Simulator) *Disk {
	if d.shared == nil {
		d.shared = make([]bool, len(d.data))
	}
	nd := &Disk{
		Geom:   d.Geom,
		sim:    s,
		data:   make([]*[ChunkBytes]byte, len(d.data)),
		shared: make([]bool, len(d.data)),
		segs:   append([]segment(nil), d.segs...),
		tick:   d.tick,
		head:   d.head,
		stats:  d.stats,
	}
	copy(nd.data, d.data)
	for i, c := range d.data {
		if c != nil {
			d.shared[i] = true
			nd.shared[i] = true
		}
	}
	return nd
}

// SharedChunks reports how many block-store chunks are currently marked
// copy-on-write, and how many chunks are populated at all. Exposed for fork
// metrics and tests.
func (d *Disk) SharedChunks() (shared, populated int) {
	for i, c := range d.data {
		if c == nil {
			continue
		}
		populated++
		if d.shared != nil && d.shared[i] {
			shared++
		}
	}
	return shared, populated
}

// ChunkBytes is the size of one block-store chunk in bytes, exposed so fork
// metrics can report the size of the chunks CoW sharing covers (a chunk of
// zeros among them owns no bytes).
const ChunkBytes = chunkBlocks * BlockSize
