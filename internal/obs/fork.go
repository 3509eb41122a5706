package obs

import "fmt"

// Fork returns a deep copy of the registry reading time from now (the forked
// simulator's clock). Metric creation order, the finished-span ring, hop
// aggregates, crosstalk flags, the audit log and the attribution accounts are
// all copied exactly, so exports from the fork are byte-identical to exports
// the parent would have produced.
//
// Pointer identity between the maps is preserved: spanStats caches the very
// histograms hists and hopHists index, so the copy goes through an identity
// map. The span free list is not copied — it is a transparent allocation
// cache; a fork that records spans simply allocates fresh ones.
//
// Preconditions: no fault span may be open (an open span is referenced by a
// live fault in flight, which contradicts a quiesced fork point). Crosstalk
// monitors are not forked — their sample closures capture the parent world —
// so callers start any monitor after forking; a monitor timer pending at the
// fork point makes the snapshot's event accounting fail loudly.
func (r *Registry) Fork(now Clock) (*Registry, error) {
	if r == nil {
		return nil, nil
	}
	nr := &Registry{
		now:        now,
		counters:   make(map[Key]*Counter, len(r.counters)),
		gauges:     make(map[Key]*Gauge, len(r.gauges)),
		hists:      make(map[Key]*Histogram, len(r.hists)),
		corder:     make([]*Counter, len(r.corder)),
		gorder:     make([]*Gauge, len(r.gorder)),
		horder:     make([]*Histogram, len(r.horder)),
		hopHists:   make(map[hopKey]*hopHist, len(r.hopHists)),
		hopOrder:   make([]*hopHist, len(r.hopOrder)),
		spanStats:  make(map[spanKey]*spanStats, len(r.spanStats)),
		spanCap:    r.spanCap,
		spanHead:   r.spanHead,
		spanTotal:  r.spanTotal,
		flowBase:   r.flowBase,
		flowSeq:    r.flowSeq,
		flags:      append([]Flag(nil), r.flags...),
		audit:      append([]AuditEvent(nil), r.audit...),
		auditCap:   r.auditCap,
		auditHead:  r.auditHead,
		auditTotal: r.auditTotal,
	}
	for i, c := range r.corder {
		nc := &Counter{r: nr, key: c.key, v: c.v, at: c.at}
		nr.corder[i], nr.counters[c.key] = nc, nc
	}
	for i, g := range r.gorder {
		ng := &Gauge{r: nr, key: g.key, v: g.v, at: g.at}
		nr.gorder[i], nr.gauges[g.key] = ng, ng
	}
	hm := make(map[*Histogram]*Histogram, len(r.hists)+len(r.hopHists))
	cloneHist := func(nh, h *Histogram) {
		*nh = Histogram{
			r:      nr,
			key:    h.key,
			counts: append([]int64(nil), h.counts...),
			count:  h.count,
			sum:    h.sum,
			min:    h.min,
			max:    h.max,
			at:     h.at,
		}
		hm[h] = nh
	}
	for i, h := range r.horder {
		nh := &Histogram{}
		cloneHist(nh, h)
		nr.horder[i], nr.hists[h.key] = nh, nh
	}
	for i, hh := range r.hopOrder {
		nhh := &hopHist{hopKey: hh.hopKey}
		cloneHist(&nhh.Histogram, &hh.Histogram)
		nr.hopOrder[i], nr.hopHists[hh.hopKey] = nhh, nhh
	}
	for k, ss := range r.spanStats {
		nss := &spanStats{e2e: hm[ss.e2e], hops: make([]hopSlot, len(ss.hops))}
		for i, hs := range ss.hops {
			nss.hops[i] = hopSlot{name: hs.name, h: hm[hs.h]}
		}
		nr.spanStats[k] = nss
	}
	if r.cEvicted != nil {
		nr.cEvicted = nr.counters[Key{"obs", "spans_evicted", ""}]
	}
	if r.cAuditEvicted != nil {
		nr.cAuditEvicted = nr.counters[Key{"obs", "audit_evicted", ""}]
	}
	nr.spans = make([]*Span, len(r.spans))
	for i, s := range r.spans {
		ns := &Span{
			reg:     nr,
			Domain:  s.Domain,
			Class:   s.Class,
			Thread:  s.Thread,
			Outcome: s.Outcome,
			Flow:    s.Flow,
			Start:   s.Start,
			End:     s.End,
			hops:    append([]Hop(nil), s.hops...),
			done:    s.done,
		}
		nr.spans[i] = ns
	}
	if r.attr != nil {
		na, err := r.attr.fork(now)
		if err != nil {
			return nil, err
		}
		nr.attr = na
	}
	return nr, nil
}

// fork deep-copies the attribution state machine. Every domain must be at
// rest: open fault spans belong to faults in flight and cannot be carried
// across a fork. CPU run/wait counters are copied as-is — the CPU scheduler's
// own fork preconditions guarantee they are zero at a valid fork point.
func (a *Attribution) fork(now Clock) (*Attribution, error) {
	na := &Attribution{
		now:     now,
		domains: make(map[string]*DomainAttr, len(a.domains)),
		order:   append([]string(nil), a.order...),
	}
	for name, d := range a.domains {
		if len(d.open) != 0 {
			return nil, fmt.Errorf("obs: cannot fork attribution: domain %q has %d open fault spans", name, len(d.open))
		}
		na.domains[name] = &DomainAttr{
			a:        na,
			name:     d.name,
			start:    d.start,
			since:    d.since,
			curState: d.curState,
			curHop:   d.curHop,
			running:  d.running,
			waiting:  d.waiting,
			killed:   d.killed,
			accounts: append([]AttrAccount(nil), d.accounts...),
		}
	}
	return na, nil
}
