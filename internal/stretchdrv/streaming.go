package stretchdrv

import (
	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// pfEntry tracks one in-flight prefetch so a demand fault on the same page
// waits for it instead of issuing a duplicate read.
type pfEntry struct {
	done      sim.Cond
	completed bool
	ok        bool
}

// Streaming is the "stream-paging" stretch driver the paper sketches as
// future work (§8, after Mapp's object-oriented VM): a paged driver that
// detects sequential fault patterns and pipelines read-ahead of the next
// Window pages through a dedicated IO channel, overlapping the
// application's per-page processing with its own disk service. Prefetch is
// opportunistic: it only uses frames that are free at the time, so eviction
// pressure stays on the demand path and a mis-predicted stream costs at
// most Window frames of churn.
type Streaming struct {
	*Paged
	// Window is the read-ahead depth in pages.
	Window int

	pfCh     *usd.Channel
	inflight map[vm.VPN]*pfEntry
	kick     sim.Cond
	freeReqs []*usd.Request // completed prefetch requests, for resubmission

	lastVPN  vm.VPN
	runLen   int
	wantFrom vm.VPN // desired prefetch window [wantFrom, wantTo)
	wantTo   vm.VPN

	// Prefetches counts pages fetched ahead; PrefetchedUsed counts those
	// later claimed by a demand access before eviction.
	Prefetches     int64
	PrefetchedUsed int64

	cPrefetches *obs.Counter
	cPFUsed     *obs.Counter
}

// NewStreaming wraps a paged driver with stream prefetching. pfCh must be a
// channel onto the same swap extent (see sfs.OpenAlias) with depth >= window.
// The driver re-binds the stretch to itself.
func NewStreaming(dom *domain.Domain, paged *Paged, pfCh *usd.Channel, window int) *Streaming {
	if window < 1 {
		window = 1
	}
	s := &Streaming{
		Paged:    paged,
		Window:   window,
		pfCh:     pfCh,
		inflight: make(map[vm.VPN]*pfEntry),
	}
	if r := dom.Env().Obs; r != nil {
		s.cPrefetches = r.Counter("driver", "prefetches", dom.Name())
		s.cPFUsed = r.Counter("driver", "prefetched_used", dom.Name())
	}
	dom.Bind(paged.st, s)
	dom.Go("prefetcher", s.prefetchLoop)
	return s
}

// DriverName implements domain.Driver.
func (s *Streaming) DriverName() string { return "streaming" }

// SatisfyFault implements domain.Driver: wait for an in-flight prefetch of
// the faulted page if there is one, otherwise fall back to demand paging,
// and in either case update the sequential-run detector.
func (s *Streaming) SatisfyFault(p *sim.Proc, f *vm.Fault, canIDC bool) domain.Result {
	vpn := vm.PageOf(f.VA)
	if e, busy := s.inflight[vpn]; busy {
		if !canIDC {
			s.Stats.Faults++ // the fault's first entry, as Engine counts it
			return domain.Retry
		}
		f.Span.BeginHop("prefetch.wait")
		for !e.completed {
			e.done.Wait(p)
		}
		if e.ok {
			s.PrefetchedUsed++
			s.cPFUsed.Inc()
			s.noteAccess(vpn)
			return domain.Success
		}
		// Prefetch failed; fall through to the demand path.
	}
	res := s.Engine.SatisfyFault(p, f, canIDC)
	if res == domain.Success {
		s.noteAccess(vpn)
	}
	return res
}

// noteAccess feeds the sequential detector and retargets the prefetcher.
func (s *Streaming) noteAccess(vpn vm.VPN) {
	if vpn == s.lastVPN+1 {
		s.runLen++
	} else {
		s.runLen = 0
	}
	s.lastVPN = vpn
	if s.runLen >= 2 {
		s.wantFrom = vpn + 1
		s.wantTo = vpn + 1 + vm.VPN(s.Window)
		limit := vm.PageOf(s.st.Base() + vm.VA(s.st.Size()-1))
		if s.wantTo > limit+1 {
			s.wantTo = limit + 1
		}
		s.kick.Signal()
	}
}

// nextTarget returns the lowest wanted page that is worth prefetching:
// on disk, recallable, not resident, not already in flight.
func (s *Streaming) nextTarget() (vm.VPN, bool) {
	for vpn := s.wantFrom; vpn < s.wantTo; vpn++ {
		if _, busy := s.inflight[vpn]; busy {
			continue
		}
		if !s.swap.HasCopy(vpn.Base()) || !s.writeback.RecallDiskCopy() {
			continue // demand-zero pages are not worth a disk read
		}
		if pte := s.env().TS.PageTable().Lookup(vpn); pte != nil && pte.Valid {
			continue // already resident
		}
		return vpn, true
	}
	return 0, false
}

// prefetchLoop runs as a thread of the owning domain: it claims free frames,
// pipelines reads on the dedicated channel, and maps pages as they land.
func (s *Streaming) prefetchLoop(t *domain.Thread) {
	p := t.Proc()
	type flight struct {
		vpn vm.VPN
		pfn mem.PFN
		e   *pfEntry
	}
	for {
		vpn, ok := s.nextTarget()
		if !ok {
			s.kick.Wait(p)
			continue
		}
		// Claim frames and submit as many window targets as possible.
		var batch []flight
		for len(batch) < s.Window {
			pfn, free := s.findUnusedFrame()
			if !free {
				if newPFN, err := s.memc().TryAllocFrame(); err == nil {
					pfn, free = newPFN, true
				}
			}
			if !free && s.ResidentPages() > s.Window+2 {
				// Recycle the oldest resident page (normally one the
				// stream already consumed) rather than stalling until
				// the demand path frees a frame.
				if evicted, err := s.evictOne(p, nil); err == nil {
					pfn, free = evicted, true
				}
			}
			if !free {
				break // opportunistic: no frames to spare, no prefetch
			}
			block, onDisk := s.swap.DiskBlock(vpn.Base())
			if !onDisk {
				break // raced with a forgetful discard; nothing to read
			}
			e := &pfEntry{}
			s.inflight[vpn] = e
			var req *usd.Request
			if n := len(s.freeReqs); n > 0 {
				req = s.freeReqs[n-1]
				s.freeReqs[n-1] = nil
				s.freeReqs = s.freeReqs[:n-1]
				req.Block = block
				req.Tag = vpn
				req.Err = nil
			} else {
				req = &usd.Request{
					Op:    disk.Read,
					Block: block,
					Count: int(s.swap.BlokBlocks()),
					Tag:   vpn,
				}
			}
			// Reserve the frame against concurrent claims: mark its
			// stack slot with the target VA now.
			s.stack().SetVA(pfn, uint64(vpn.Base()))
			if err := s.pfCh.Submit(p, req); err != nil {
				s.stack().SetVA(pfn, 0)
				e.completed = true
				delete(s.inflight, vpn)
				e.done.Broadcast()
				return
			}
			batch = append(batch, flight{vpn, pfn, e})
			next, more := s.nextTarget()
			if !more {
				break
			}
			vpn = next
		}
		if len(batch) == 0 {
			s.kick.Wait(p)
			continue
		}
		// Completions arrive in submission order on this channel.
		for _, fl := range batch {
			req, err := s.pfCh.Await(p)
			if err != nil {
				fl.e.completed = true
				delete(s.inflight, fl.vpn)
				fl.e.done.Broadcast()
				return
			}
			ok := req.Err == nil
			if ok {
				copy(s.env().Store.Frame(fl.pfn), req.Data)
				s.stack().SetVA(fl.pfn, 0) // mapFrame re-sets it
				if err := s.mapFrame(fl.vpn.Base(), fl.pfn); err != nil {
					ok = false
				} else {
					s.policy.NoteMapped(fl.vpn.Base())
					s.Prefetches++
					s.cPrefetches.Inc()
					s.Stats.PageIns++
					s.cPageIns.Inc()
				}
			}
			if !ok {
				s.stack().SetVA(fl.pfn, 0)
			}
			fl.e.completed = true
			fl.e.ok = ok
			delete(s.inflight, fl.vpn)
			fl.e.done.Broadcast()
			s.freeReqs = append(s.freeReqs, req)
		}
	}
}
