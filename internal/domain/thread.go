package domain

import (
	"time"

	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// Thread is a user-level thread within a domain. Its memory accessors run
// the full simulated MMU path: TLB/page-table walk, protection check, fault
// dispatch to the domain's own machinery, and real data movement through
// the frame store.
type Thread struct {
	dom  *Domain
	name string
	proc *sim.Proc
	done sim.Cond
	// fbuf is the thread's reusable fault record. Fault dispatch is
	// synchronous (the thread blocks until resolution) and nothing retains
	// the record past the next fault, so one per thread suffices.
	fbuf vm.Fault
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Proc returns the underlying simulated process.
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Domain returns the owning domain.
func (t *Thread) Domain() *Domain { return t.dom }

// Join blocks p until the thread's function returns.
func (t *Thread) Join(p *sim.Proc) {
	if t.proc != nil && t.proc.Done() {
		return
	}
	t.done.Wait(p)
}

// Sleep suspends the thread (without consuming CPU guarantee).
func (t *Thread) Sleep(d time.Duration) { t.proc.Sleep(d) }

// Now returns the current simulated time.
func (t *Thread) Now() sim.Time { return t.proc.Now() }

// Compute consumes CPU time under the domain's contract.
func (t *Thread) Compute(d time.Duration) {
	t.dom.cpu.Compute(t.proc, d)
}

// access performs one page access, dispatching and waiting out faults.
func (t *Thread) access(va vm.VA, acc vm.Access) (*vm.PTE, error) {
	for {
		if t.dom.killed {
			return nil, ErrKilled
		}
		pte, faulted := t.dom.env.TS.AccessInto(t.dom.pd, va, acc, &t.fbuf)
		if !faulted {
			return pte, nil
		}
		if err := t.dom.dispatchFault(t, &t.fbuf); err != nil {
			return nil, err
		}
	}
}

// Touch accesses every byte in [va, va+n) with the given access kind,
// page at a time, charging the per-byte compute cost. This is the paging
// experiments' workload primitive ("each byte is read/written but no other
// substantial work is performed").
func (t *Thread) Touch(va vm.VA, n int, acc vm.Access) error {
	for n > 0 {
		pageEnd := (va | (vm.PageSize - 1)) + 1
		chunk := int(uint64(pageEnd) - uint64(va))
		if chunk > n {
			chunk = n
		}
		if _, err := t.access(va, acc); err != nil {
			return err
		}
		t.Compute(time.Duration(chunk) * t.dom.env.Costs.ComputePerByte)
		t.dom.stats.BytesTouched += int64(chunk)
		t.dom.markActive()
		va += vm.VA(chunk)
		n -= chunk
	}
	return nil
}

// WriteAt copies data into the domain's memory at va, faulting pages in as
// needed and moving real bytes into the backing frames.
func (t *Thread) WriteAt(va vm.VA, data []byte) error {
	for len(data) > 0 {
		pte, err := t.access(va, vm.AccessWrite)
		if err != nil {
			return err
		}
		off := int(uint64(va) & (vm.PageSize - 1))
		chunk := vm.PageSize - off
		if chunk > len(data) {
			chunk = len(data)
		}
		frame := t.dom.env.Store.Frame(pte.PFN)
		copy(frame[off:off+chunk], data[:chunk])
		t.Compute(time.Duration(chunk) * t.dom.env.Costs.ComputePerByte)
		t.dom.stats.BytesTouched += int64(chunk)
		t.dom.markActive()
		va += vm.VA(chunk)
		data = data[chunk:]
	}
	return nil
}

// ReadAt copies from the domain's memory at va into buf.
func (t *Thread) ReadAt(va vm.VA, buf []byte) error {
	for len(buf) > 0 {
		pte, err := t.access(va, vm.AccessRead)
		if err != nil {
			return err
		}
		off := int(uint64(va) & (vm.PageSize - 1))
		chunk := vm.PageSize - off
		if chunk > len(buf) {
			chunk = len(buf)
		}
		frame := t.dom.env.Store.View(pte.PFN)
		copy(buf[:chunk], frame[off:off+chunk])
		t.Compute(time.Duration(chunk) * t.dom.env.Costs.ComputePerByte)
		t.dom.stats.BytesTouched += int64(chunk)
		t.dom.markActive()
		va += vm.VA(chunk)
		buf = buf[chunk:]
	}
	return nil
}

// ReadByteAt reads a single byte (convenience for tests and examples).
func (t *Thread) ReadByteAt(va vm.VA) (byte, error) {
	var b [1]byte
	if err := t.ReadAt(va, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteByteAt writes a single byte.
func (t *Thread) WriteByteAt(va vm.VA, v byte) error {
	return t.WriteAt(va, []byte{v})
}
