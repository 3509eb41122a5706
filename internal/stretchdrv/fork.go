package stretchdrv

import (
	"fmt"

	"nemesis/internal/domain"
	"nemesis/internal/sfs"
	"nemesis/internal/vm"
)

// This file implements driver forking: a deep copy of the paged driver
// re-pointed at a forked world. Only what a pooled warm Fig. 7/8 world
// holds forks: a paged driver over a local swap file with FIFO replacement,
// in a world without telemetry. The driver is forked after the domain shell
// exists (it needs the forked *domain.Domain for its base) and before the
// forked domain runs; the core snapshot orchestrator drives the order. All
// pure data structures — the FIFO queue, the blok bitmap, the per-page swap
// records — are copied exactly, so a forked pager makes the same victim
// choices, the same blok allocations and the same disk transactions the
// parent would. Transient free lists (page buffers, cleaning batches, write
// scratches) fork empty: they are allocation caches with no
// simulation-visible state.

// Forkable reports why d cannot be forked, or nil. Remote and tiered
// backings hold netswap machinery (link procs, RPC windows) that a snapshot
// does not carry, and the other replacement policies are never pooled.
func (d *Paged) Forkable() error {
	if d.swap == nil {
		return fmt.Errorf("stretchdrv: cannot fork paged driver with %s backing", d.backing.Name())
	}
	if _, ok := d.policy.(*fifoPolicy); !ok {
		return fmt.Errorf("stretchdrv: cannot fork paged driver with %s replacement", d.policy.Name())
	}
	return nil
}

// fork deep-copies the blok bitmap: every node of the linked list, with the
// hint re-pointed at the copied node covering the same range.
func (a *BlokAllocator) fork() *BlokAllocator {
	na := &BlokAllocator{blokBlocks: a.blokBlocks, total: a.total}
	var tail *bitmapNode
	for node := a.head; node != nil; node = node.next {
		nn := &bitmapNode{base: node.base, bits: append([]uint64(nil), node.bits...), nfree: node.nfree}
		if tail == nil {
			na.head = nn
		} else {
			tail.next = nn
		}
		tail = nn
		if a.hint == node {
			na.hint = nn
		}
	}
	if na.hint == nil {
		na.hint = na.head
	}
	return na
}

// Fork returns a deep copy of the swap backing over the forked swap file.
// files is the identity map sfs.Fork produced.
func (b *SwapBacking) Fork(files map[*sfs.SwapFile]*sfs.SwapFile) (*SwapBacking, error) {
	nf := files[b.swap]
	if nf == nil {
		return nil, fmt.Errorf("stretchdrv: no forked twin of swap file %q", b.swap.Name())
	}
	return &SwapBacking{swap: nf, blok: b.blok.fork(), pages: b.pages.Clone()}, nil
}

// Fork returns a deep copy of the paged driver bound into the forked domain:
// the remapped stretch, a copy of the FIFO queue, the forked swap backing,
// the same writeback policy value (writeback policies are stateless) and
// copied stats. The caller has checked Forkable.
func (d *Paged) Fork(ndom *domain.Domain, m *vm.ForkMaps, files map[*sfs.SwapFile]*sfs.SwapFile) (*Paged, error) {
	nst := m.Stretch[d.st]
	if nst == nil {
		return nil, fmt.Errorf("stretchdrv: no forked twin of stretch %d", d.st.ID())
	}
	nb, err := d.swap.Fork(files)
	if err != nil {
		return nil, err
	}
	ne := &Engine{
		base:      base{dom: ndom},
		name:      d.name,
		st:        nst,
		policy:    &fifoPolicy{q: append([]vm.VA(nil), d.policy.Resident()...)},
		backing:   nb,
		writeback: d.writeback,
		cluster:   d.cluster,
		Stats:     d.Stats,
	}
	nd := &Paged{Engine: ne, swap: nb}
	ndom.Bind(nst, nd)
	return nd, nil
}
