package domain

import (
	"cmp"
	"slices"
)

// ActivityTracker accumulates the set of domains whose crosstalk-visible
// counters (faults, bytes touched, revocations) moved since the last drain,
// plus domains registered since the last drain. The crosstalk monitor
// drains it once per sampling window and so touches only domains
// that actually did something — an idle domain costs nothing per window,
// which is what lets monitoring scale to thousands of mostly-quiet domains.
//
// The tracker is not a sampling source by itself: the monitor still reads
// each drained domain's cumulative Stats. It only answers "who changed?".
type ActivityTracker struct {
	nextOrder int64
	fresh     []*Domain // registered since last drain
	dirty     []*Domain // active since last drain (disjoint from fresh)
	drained   []*Domain // Drain's result, reused by the next Drain
}

// NewActivityTracker returns an empty tracker.
func NewActivityTracker() *ActivityTracker { return &ActivityTracker{} }

// Register enrols a domain. The monitor sees it in the next drain (seeding
// its baseline exactly as a full scan's first window would). Registration
// order is the domain's stable processing order, mirroring the registration
// order a full scan iterates in.
func (tr *ActivityTracker) Register(d *Domain) {
	if tr == nil || d.tracker != nil {
		return
	}
	d.tracker = tr
	d.trackOrder = tr.nextOrder
	d.trackFresh = true
	tr.nextOrder++
	tr.fresh = append(tr.fresh, d)
}

// Drain returns the changed set — fresh and dirty domains, in registration
// order — and resets the tracker for the next window. The result is valid
// until the next Drain, which reuses it.
func (tr *ActivityTracker) Drain() []*Domain {
	out := slices.Grow(tr.drained[:0], len(tr.fresh)+len(tr.dirty))
	for _, d := range tr.fresh {
		d.trackFresh = false
		out = append(out, d)
	}
	for _, d := range tr.dirty {
		d.trackDirty = false
		out = append(out, d)
	}
	tr.fresh = tr.fresh[:0]
	tr.dirty = tr.dirty[:0]
	slices.SortFunc(out, func(a, b *Domain) int { return cmp.Compare(a.trackOrder, b.trackOrder) })
	tr.drained = out
	return out
}

// ActivityOrder returns the domain's registration order in its tracker
// (meaningful only after Register).
func (d *Domain) ActivityOrder() int64 { return d.trackOrder }

// markActive notes counter movement since the last drain. One branchy
// nil/flag check on the fault and touch hot paths; appends at most once per
// window per domain.
func (d *Domain) markActive() {
	if d.tracker == nil || d.trackDirty || d.trackFresh {
		return
	}
	d.trackDirty = true
	d.tracker.dirty = append(d.tracker.dirty, d)
}
