package workload

import (
	"fmt"

	"nemesis/internal/core"
	"nemesis/internal/stretchdrv"
)

// Remap returns a copy of a warmed pager re-pointed at its forked twins via
// the snapshot's identity maps. The copy carries the warm-up's progress
// counters; call Resume on it to start the steady-state threads in the
// forked world.
func (pg *Pager) Remap(snap *core.Snapshot) (*Pager, error) {
	ndom := snap.Dom[pg.Dom]
	nst := snap.Stretch[pg.Stretch]
	ndrv, _ := snap.Driver[pg.Drv].(*stretchdrv.Paged)
	if ndom == nil || nst == nil || ndrv == nil {
		return nil, fmt.Errorf("workload: snapshot has no twin for pager %q", pg.Cfg.Name)
	}
	np := *pg
	np.Dom, np.Stretch, np.Drv = ndom, nst, ndrv
	return &np, nil
}
