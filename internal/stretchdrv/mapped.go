package stretchdrv

import (
	"fmt"

	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/sfs"
	"nemesis/internal/vm"
)

// Mapped is a memory-mapped-file stretch driver: the stretch's contents are
// an on-disk file (an SFS extent), demand-read on fault and written back on
// eviction or Sync. The paper's introduction names memory-mapped files as
// one of the VM techniques a multi-service OS must keep supporting; this
// driver provides them with the same self-paged resource story as the paged
// driver — the file's disk traffic runs under the owning domain's own QoS
// contract.
//
// Unlike the paged driver there is no blok allocator: page i of the stretch
// corresponds to the i'th page-sized run of file blocks, and the file is
// always authoritative for non-resident pages.
type Mapped struct {
	*Engine
	backing *MappedBacking
}

// NewMapped binds st to file with the engine options opt. The file must be
// at least as large as the stretch.
func NewMapped(dom *domain.Domain, st *vm.Stretch, file *sfs.SwapFile, opt PagerOptions) (*Mapped, error) {
	pageBlocks := int64(vm.PageSize / int64(disk.BlockSize))
	if file.Blocks() < int64(st.Pages())*pageBlocks {
		return nil, fmt.Errorf("stretchdrv: file %q (%d blocks) smaller than %v", file.Name(), file.Blocks(), st)
	}
	policy, err := NewPolicy(opt.Policy)
	if err != nil {
		return nil, err
	}
	wb, err := NewWriteback(opt.Writeback)
	if err != nil {
		return nil, err
	}
	backing := NewMappedBacking(file, st.Base())
	d := &Mapped{
		Engine:  newEngine(dom, st, "mapped-file", policy, backing, wb, opt.ClusterSize),
		backing: backing,
	}
	dom.Bind(st, d)
	return d, nil
}

// File returns the backing file.
func (d *Mapped) File() *sfs.SwapFile { return d.backing.File() }
