package disk

import (
	"bytes"
	"fmt"
	"testing"

	"nemesis/internal/sim"
)

// The fuzzed block range spans two adjacent chunks, fuzzChunk and the next.
const (
	fuzzChunk = 3
	fuzzBase  = fuzzChunk * chunkBlocks
	fuzzSpan  = 2 * chunkBlocks
)

// Operation kinds of FuzzBlockStore, decoded from the first byte of each
// 5-byte operation: kind, world, offset (2 bytes), count.
const (
	opZeroWrite  = iota // a write of zeros
	opDataWrite         // a write of a pattern that is not all zeros
	opMixedWrite        // zeros but for one byte
	opRead              // ReadAt, checked against the reference
	opPeek              // PeekBlock, checked against the reference
	opFork              // fork the world
	numOps
)

// Chunk states of the reference model, as the block store names them.
const (
	stateNil = iota
	stateZero
	statePrivate
)

// fuzzWorld is one drive of FuzzBlockStore and its reference: the flat
// contents of the fuzzed range, and each chunk's state and shared mark.
type fuzzWorld struct {
	d      *Disk
	ref    []byte
	state  [2]int
	shared [2]bool
}

// fuzzOp encodes one operation for the seed corpus.
func fuzzOp(kind, world int, off uint16, count byte) []byte {
	return []byte{byte(kind), byte(world), byte(off >> 8), byte(off), count}
}

// FuzzBlockStore runs a decoded sequence of writes (all zeros, a pattern, or
// zeros with one byte set; within a chunk, whole chunks, or across the
// boundary), reads, peeks and forks over two adjacent chunks of up to four
// worlds, a fork's writes going to either side. After every operation each
// world must read as its flat reference over the range the operation
// touched, each chunk must be in the state the model predicts (nil,
// zeroChunk or private), SharedChunks must count the model's shared and
// populated chunks, and zeroChunk must still hold only zeros. At the end
// every world must read back its whole reference.
func FuzzBlockStore(f *testing.F) {
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(cat(
		fuzzOp(opZeroWrite, 0, 10, 16),
		fuzzOp(opDataWrite, 0, 20, 16),
		fuzzOp(opRead, 0, 0, 0x81),
		fuzzOp(opFork, 0, 0, 0),
		fuzzOp(opDataWrite, 1, 30, 4),
		fuzzOp(opRead, 0, 28, 8),
	))
	f.Add(cat(
		fuzzOp(opZeroWrite, 0, chunkBlocks-8, 16),
		fuzzOp(opFork, 0, 0, 0),
		fuzzOp(opMixedWrite, 0, chunkBlocks-4, 8),
		fuzzOp(opZeroWrite, 1, chunkBlocks-4, 8),
		fuzzOp(opPeek, 1, chunkBlocks, 0),
		fuzzOp(opPeek, 0, chunkBlocks+3, 0),
	))
	f.Add(cat(
		fuzzOp(opDataWrite, 0, 0, 0x80),
		fuzzOp(opZeroWrite, 0, 100, 0x82),
		fuzzOp(opFork, 0, 0, 0),
		fuzzOp(opFork, 1, 0, 0),
		fuzzOp(opZeroWrite, 2, 5, 0x80),
		fuzzOp(opDataWrite, 1, chunkBlocks+1, 31),
		fuzzOp(opRead, 2, 0, 0x82),
	))
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := runBlockStoreOps(in); err != nil {
			t.Fatal(err)
		}
	})
}

// runBlockStoreOps runs FuzzBlockStore's operations on one simulated
// process and returns the first mismatch.
func runBlockStoreOps(in []byte) (err error) {
	s := sim.New(1)
	worlds := []*fuzzWorld{{d: New(s, VP3221()), ref: make([]byte, fuzzSpan*BlockSize)}}
	zeros := make([]byte, ChunkBytes)
	s.Spawn("fuzz", func(p *sim.Proc) {
		read := func(w *fuzzWorld, lo, n int) error {
			got := make([]byte, n*BlockSize)
			if err := w.d.ReadAt(p, fuzzBase+int64(lo), n, got); err != nil {
				return err
			}
			if want := w.ref[lo*BlockSize : (lo+n)*BlockSize]; !bytes.Equal(got, want) {
				return fmt.Errorf("blocks [%d,%d) differ from the reference", lo, lo+n)
			}
			return nil
		}
		for i := 0; i+5 <= len(in) && err == nil; i += 5 {
			kind, w := int(in[i])%numOps, worlds[int(in[i+1])%len(worlds)]
			lo, n := decodeRange(in[i+2:i+5], kind)
			switch kind {
			case opZeroWrite, opDataWrite, opMixedWrite:
				buf := make([]byte, n*BlockSize)
				switch kind {
				case opDataWrite:
					for k := range buf {
						buf[k] = byte(1 + (i+k)%251)
					}
				case opMixedWrite:
					buf[(i*BlockSize+lo)%len(buf)] = 0xA5
				}
				if err = w.d.WriteAt(p, fuzzBase+int64(lo), n, buf); err == nil {
					w.write(lo, buf)
				}
			case opRead:
				err = read(w, lo, n)
			case opPeek:
				if !bytes.Equal(w.d.PeekBlock(fuzzBase+int64(lo)), w.ref[lo*BlockSize:(lo+1)*BlockSize]) {
					err = fmt.Errorf("PeekBlock(%d) differs from the reference", lo)
				}
			case opFork:
				if len(worlds) < 4 {
					worlds = append(worlds, w.fork(s))
				}
			}
			for k, v := range worlds {
				if err != nil {
					break
				}
				if err = read(v, lo, n); err == nil {
					err = v.checkChunks()
				}
				if err != nil {
					err = fmt.Errorf("world %d after op %d (kind %d on [%d,%d)): %w", k, i/5, kind, lo, lo+n, err)
				}
			}
			if err == nil && !bytes.Equal(zeroChunk[:], zeros) {
				err = fmt.Errorf("op %d wrote through zeroChunk", i/5)
			}
		}
		for k, v := range worlds {
			if err == nil {
				if err = read(v, 0, fuzzSpan); err != nil {
					err = fmt.Errorf("world %d at the end: %w", k, err)
				}
			}
		}
	})
	s.RunUntilIdle(1 << 24)
	return err
}

// decodeRange turns an operation's offset and count bytes into a block range
// inside the fuzzed span: a count byte below 0x80 gives 1–32 blocks, and one
// above gives one or two chunks' worth, chunk-aligned when its low bit is 0.
func decodeRange(b []byte, kind int) (lo, n int) {
	lo = (int(b[0])<<8 | int(b[1])) % fuzzSpan
	c := int(b[2])
	switch {
	case kind == opPeek:
		return lo, 1
	case c < 0x80:
		n = 1 + c%32
	default:
		if c&1 == 0 {
			lo &^= chunkBlocks - 1
		}
		n = chunkBlocks * (1 + c>>1&1)
	}
	return lo, min(n, fuzzSpan-lo)
}

// write applies a write of buf at block lo to the reference model.
func (w *fuzzWorld) write(lo int, buf []byte) {
	copy(w.ref[lo*BlockSize:], buf)
	for b := lo; b < lo+len(buf)/BlockSize; {
		ci := b / chunkBlocks
		end := min((ci+1)*chunkBlocks, lo+len(buf)/BlockSize)
		seg := buf[(b-lo)*BlockSize : (end-lo)*BlockSize]
		switch {
		case w.state[ci] == statePrivate:
			w.shared[ci] = false // a shared chunk is copied first
		case bytes.Count(seg, []byte{0}) == len(seg):
			w.state[ci] = stateZero
		default:
			w.state[ci], w.shared[ci] = statePrivate, false
		}
		b = end
	}
}

// fork forks the world's drive, and marks every populated chunk shared on
// both sides.
func (w *fuzzWorld) fork(s *sim.Simulator) *fuzzWorld {
	c := &fuzzWorld{d: w.d.Fork(s), ref: bytes.Clone(w.ref), state: w.state}
	for ci, st := range w.state {
		if st != stateNil {
			w.shared[ci], c.shared[ci] = true, true
		}
	}
	return c
}

// checkChunks compares the drive's chunk states and SharedChunks with the
// model.
func (w *fuzzWorld) checkChunks() error {
	wantShared, wantPopulated := 0, 0
	for ci, st := range w.state {
		c := w.d.data[fuzzChunk+ci]
		got := statePrivate
		switch {
		case c == nil:
			got = stateNil
		case &c[0] == &zeroChunk[0]:
			got = stateZero
		}
		if got != st {
			return fmt.Errorf("chunk %d in state %d, want %d", ci, got, st)
		}
		if st != stateNil {
			wantPopulated++
			if w.shared[ci] {
				wantShared++
			}
		}
	}
	if shared, populated := w.d.SharedChunks(); shared != wantShared || populated != wantPopulated {
		return fmt.Errorf("SharedChunks = %d, %d, want %d, %d", shared, populated, wantShared, wantPopulated)
	}
	return nil
}
