package workload

import (
	"fmt"

	"nemesis/internal/core"
	"nemesis/internal/stretchdrv"
)

// Remap returns a copy of a warmed pager re-pointed at its twins in sys, a
// fork of the pager's world: Fork keeps every domain and stretch ID. The
// copy carries the warm-up's progress counters; call Resume on it to start
// the steady-state threads in the forked world.
func (pg *Pager) Remap(sys *core.System) (*Pager, error) {
	ndom := sys.Domain(pg.Dom.ID())
	nst := sys.SA.Lookup(pg.Stretch.ID())
	if ndom == nil || nst == nil {
		return nil, fmt.Errorf("workload: fork has no twin for pager %q", pg.Cfg.Name)
	}
	ndrv, ok := ndom.DriverFor(nst.ID()).(*stretchdrv.Paged)
	if !ok {
		return nil, fmt.Errorf("workload: fork has no paged driver for pager %q", pg.Cfg.Name)
	}
	np := *pg
	np.Dom, np.Stretch, np.Drv = ndom, nst, ndrv
	return &np, nil
}
