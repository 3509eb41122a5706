// Package mem implements the physical-memory side of the Nemesis VM system:
// the frame store (simulated RAM with real contents, allocated only for
// frames something has written), the RamTab recording per-frame ownership
// and state, per-domain frame stacks ordered by revocation preference, and
// the frames allocator with guaranteed/optimistic contracts and the
// two-phase (transparent/intrusive) revocation protocol.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the machine page size: 8 KB, as on the Alpha 21164 the paper
// evaluates on. Frames and pages share this size (logical frame width 0).
const PageSize = 8192

// PFN is a physical frame number.
type PFN uint64

// DomainID identifies a Nemesis domain (the analogue of a process). Domain
// 0 is the system domain.
type DomainID uint32

// SystemDomain is the distinguished system domain.
const SystemDomain DomainID = 0

// Errors returned by the physical memory subsystem. All are sentinels:
// callers match with errors.Is, never by string.
var (
	ErrNoMemory = errors.New("mem: out of physical memory")
	// ErrContractExhausted reports an allocation beyond the client's
	// contracted g+o frames.
	ErrContractExhausted = errors.New("mem: allocation would exceed contracted quota")
	ErrOverbooked        = errors.New("mem: admission would overcommit guaranteed frames")
	ErrNotOwner          = errors.New("mem: frame not owned by caller")
	ErrBadFrame          = errors.New("mem: frame number out of range")
	ErrFrameBusy         = errors.New("mem: frame is mapped or nailed")
	ErrUnknownClient     = errors.New("mem: unknown client domain")
	ErrAlreadyAdmitted   = errors.New("mem: domain already admitted")
	ErrKilledByAlloc     = errors.New("mem: domain killed for failing revocation")
)

// FrameStore is the simulated physical memory: nframes frames of PageSize
// bytes. A frame costs host memory only once something writes it: Frame,
// the writers' entry point, allocates it, while View and Zero treat a
// never-written frame as the page of zeros it holds, as the disk treats an
// unwritten chunk. Zero-filled pages that are only read or copied out, the
// common case at cluster scale, never allocate, and Fork copies written
// frames only.
type FrameStore struct {
	nframes int
	data    [][]byte
}

// zeroPage is what View returns for a never-written frame. Nothing writes it.
var zeroPage [PageSize]byte

// NewFrameStore creates a store of nframes frames.
func NewFrameStore(nframes int) *FrameStore {
	return &FrameStore{nframes: nframes, data: make([][]byte, nframes)}
}

// NFrames returns the number of frames of main memory.
func (fs *FrameStore) NFrames() int { return fs.nframes }

func (fs *FrameStore) check(pfn PFN) {
	if int(pfn) >= fs.nframes {
		panic(fmt.Sprintf("mem: frame %d out of range (%d frames)", pfn, fs.nframes))
	}
}

// Frame returns the bytes of pfn for writing, allocating them on first use.
func (fs *FrameStore) Frame(pfn PFN) []byte {
	fs.check(pfn)
	if fs.data[pfn] == nil {
		fs.data[pfn] = make([]byte, PageSize)
	}
	return fs.data[pfn]
}

// View returns the bytes of pfn for reading: the frame itself once written,
// else a shared page of zeros. Callers must not write through it, and it
// shows the frame's contents only until the frame is next written or zeroed.
func (fs *FrameStore) View(pfn PFN) []byte {
	fs.check(pfn)
	if f := fs.data[pfn]; f != nil {
		return f
	}
	return zeroPage[:]
}

// Zero clears a frame (hardware-assist page zeroing). A never-written frame
// already reads as zeros, so it stays unallocated.
func (fs *FrameStore) Zero(pfn PFN) {
	fs.check(pfn)
	clear(fs.data[pfn])
}
