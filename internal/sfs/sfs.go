// Package sfs implements the Swap FileSystem: the control-path half of the
// paper's User-Safe Backing Store. The SFS owns a disk partition, allocates
// extents (contiguous block ranges) for use as swap files, and negotiates
// each client's Quality of Service parameters with the USD, which schedules
// the data path. Once a swap file exists, all data operations go straight
// from the client to the USD over the client's own IO channel — the SFS is
// off the data path entirely, so it cannot be a source of QoS crosstalk.
package sfs

import (
	"errors"
	"fmt"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/usd"
)

// Errors returned by the SFS control path.
var (
	ErrExists     = errors.New("sfs: swap file already exists")
	ErrNoSuchFile = errors.New("sfs: no such swap file")
	ErrBadRange   = errors.New("sfs: range outside swap file")
)

// SFS manages swap files within one disk partition.
type SFS struct {
	usd   *usd.USD
	part  usd.Extent
	alloc *extentAllocator
	files map[string]*SwapFile
}

// New creates an SFS managing the given partition of u's disk.
func New(u *usd.USD, partition usd.Extent) *SFS {
	return &SFS{
		usd:   u,
		part:  partition,
		alloc: newExtentAllocator(partition.Start, partition.Count),
		files: make(map[string]*SwapFile),
	}
}

// Partition returns the managed region.
func (s *SFS) Partition() usd.Extent { return s.part }

// FreeBlocks returns the unallocated capacity in blocks.
func (s *SFS) FreeBlocks() int64 { return s.alloc.FreeBlocks() }

// Lookup returns the named swap file, or nil.
func (s *SFS) Lookup(name string) *SwapFile { return s.files[name] }

// CreateSwapFile allocates an extent of sizeBytes (rounded up to whole
// blocks), admits the client to the USD under contract q with the given
// pipeline depth, and grants the client access to exactly its extent.
func (s *SFS) CreateSwapFile(name string, sizeBytes int64, q atropos.QoS, depth int) (*SwapFile, error) {
	if _, exists := s.files[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if sizeBytes <= 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSize, sizeBytes)
	}
	blocks := (sizeBytes + disk.BlockSize - 1) / disk.BlockSize
	start, err := s.alloc.Alloc(blocks)
	if err != nil {
		return nil, err
	}
	ch, err := s.usd.Open(name, q, depth)
	if err != nil {
		s.alloc.Free(start, blocks)
		return nil, err
	}
	ext := usd.Extent{Start: start, Count: blocks}
	if err := s.usd.Grant(name, ext); err != nil {
		s.usd.Close(name)
		s.alloc.Free(start, blocks)
		return nil, err
	}
	f := &SwapFile{name: name, sfs: s, extent: ext, ch: ch}
	s.files[name] = f
	return f, nil
}

// OpenAlias admits a second USD client with its own QoS contract and grants
// it access to an existing swap file's extent. Stream-paging drivers use
// this to run a prefetch pipeline beside the demand-fault channel without
// the two streams' completions interleaving on one FIFO.
func (s *SFS) OpenAlias(f *SwapFile, name string, q atropos.QoS, depth int) (*usd.Channel, error) {
	ch, err := s.usd.Open(name, q, depth)
	if err != nil {
		return nil, err
	}
	if err := s.usd.Grant(name, f.extent); err != nil {
		s.usd.Close(name)
		return nil, err
	}
	return ch, nil
}

// DeleteSwapFile tears down the named swap file, closing its USD client and
// returning its extent to the allocator.
func (s *SFS) DeleteSwapFile(name string) error {
	f, ok := s.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	delete(s.files, name)
	if err := s.usd.Close(name); err != nil {
		return err
	}
	return s.alloc.Free(f.extent.Start, f.extent.Count)
}

// SwapFile is an extent of disk with an attached QoS-scheduled IO channel.
// Offsets are file-relative blocks; the swap file translates to absolute
// disk blocks, so a client cannot name blocks outside its extent even
// before the USD's own extent check.
type SwapFile struct {
	name   string
	sfs    *SFS
	extent usd.Extent
	ch     *usd.Channel
	free   []*usd.Request // requests whose transactions have completed
}

// maxFreeRequests bounds a swap file's free list. One request is in flight
// per proc blocked in Read or Write, and few procs share a swap file.
const maxFreeRequests = 4

// Name returns the swap file's name (also its USD client name).
func (f *SwapFile) Name() string { return f.name }

// Blocks returns the file length in blocks.
func (f *SwapFile) Blocks() int64 { return f.extent.Count }

// Extent returns the absolute disk extent backing the file.
func (f *SwapFile) Extent() usd.Extent { return f.extent }

// Channel exposes the underlying IO channel for pipelined clients.
func (f *SwapFile) Channel() *usd.Channel { return f.ch }

func (f *SwapFile) checkRange(offset int64, count int) error {
	if count <= 0 || offset < 0 || offset+int64(count) > f.extent.Count {
		return fmt.Errorf("%w: [%d,+%d) of %d blocks", ErrBadRange, offset, count, f.extent.Count)
	}
	return nil
}

// Read fills buf with count blocks starting at file-relative block offset,
// blocking p until the USD completes the transaction.
func (f *SwapFile) Read(p *sim.Proc, offset int64, count int, buf []byte) error {
	return f.ReadSpanned(p, offset, count, buf, nil)
}

// ReadSpanned is Read, additionally stamping the transaction's phases onto
// sp (which may be nil): hop "usd.queue" covers submission to service
// start, "usd.read" the disk service itself, and "usd.complete" the
// completion delivery back to the faulting thread. The USD records exact
// service start/completion instants on the request, so the hops are split
// retroactively but stay contiguous.
func (f *SwapFile) ReadSpanned(p *sim.Proc, offset int64, count int, buf []byte, sp *obs.Span) error {
	return f.do(p, disk.Read, offset, count, buf, sp, "usd.read")
}

// Write stores count blocks from buf at file-relative block offset.
func (f *SwapFile) Write(p *sim.Proc, offset int64, count int, buf []byte) error {
	return f.WriteSpanned(p, offset, count, buf, nil)
}

// WriteSpanned is Write with the same span stamping as ReadSpanned, using
// hop "usd.write" for the service phase.
func (f *SwapFile) WriteSpanned(p *sim.Proc, offset int64, count int, buf []byte, sp *obs.Span) error {
	return f.do(p, disk.Write, offset, count, buf, sp, "usd.write")
}

// do runs one transaction on a request from the free list and stamps its
// phases onto sp, naming the service hop hop. The request goes back on the
// list only once Do has returned that same request without error and its
// stamps have been read; on any other outcome it is left to the collector.
func (f *SwapFile) do(p *sim.Proc, op disk.Op, offset int64, count int, buf []byte, sp *obs.Span, hop string) error {
	if err := f.checkRange(offset, count); err != nil {
		return err
	}
	sp.BeginHop("usd.queue")
	var req *usd.Request
	if n := len(f.free); n > 0 {
		req, f.free = f.free[n-1], f.free[:n-1]
	} else {
		req = new(usd.Request)
	}
	*req = usd.Request{Op: op, Block: f.extent.Start + offset, Count: count, Data: buf}
	done, err := f.ch.Do(p, req)
	sp.SplitHop(req.Started(), hop)
	sp.SplitHop(req.Completed(), "usd.complete")
	if err == nil && done == req && len(f.free) < maxFreeRequests {
		req.Data = nil // do not pin the caller's buffer
		f.free = append(f.free, req)
	}
	return err
}
