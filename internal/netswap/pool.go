package netswap

import (
	"errors"
	"fmt"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// ErrPoolAdmission is returned when no server in a pool has enough
// unreserved store capacity for a new client's reservation.
var ErrPoolAdmission = errors.New("netswap: pool admission failed")

// Pool is a small cluster of independent swap servers (one fabric — link +
// server — each) with capacity-reserving admission: every client placement
// reserves a fixed number of store bytes on its server, and placements that
// would oversubscribe any server are refused outright. Under admission the
// servers can never thrash against promises they cannot keep, which is the
// property the cluster scenario audits.
type Pool struct {
	fabrics  []*Fabric
	reserved []int64
	clients  int
}

// NewPool builds n fabrics, each from its own copy of cfg. reg may be nil.
func NewPool(s *sim.Simulator, reg *obs.Registry, n int, cfg Config) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netswap: pool needs at least one server, got %d", n)
	}
	cfg.Server.fillDefaults() // so admission sees the real store capacity
	p := &Pool{reserved: make([]int64, n)}
	for i := 0; i < n; i++ {
		f, err := New(s, reg, cfg)
		if err != nil {
			return nil, err
		}
		p.fabrics = append(p.fabrics, f)
	}
	return p, nil
}

// Servers returns the number of fabrics in the pool.
func (p *Pool) Servers() int { return len(p.fabrics) }

// Fabric returns the i-th fabric (for tests and outage injection).
func (p *Pool) Fabric(i int) *Fabric { return p.fabrics[i] }

// Reserved returns the bytes reserved on the i-th server.
func (p *Pool) Reserved(i int) int64 { return p.reserved[i] }

// Clients returns how many placements have been admitted.
func (p *Pool) Clients() int { return p.clients }

// Place admits a client reserving reserveBytes of store on the
// least-reserved server (ties to the lowest index, so placement is
// deterministic) and returns its remote backing. It fails if every server
// would be oversubscribed, or if the client name is already taken on the
// chosen server.
func (p *Pool) Place(client, domName string, reserveBytes int64) (*RemoteBacking, error) {
	if reserveBytes <= 0 {
		return nil, fmt.Errorf("netswap: placement of %q needs a positive reservation, got %d", client, reserveBytes)
	}
	best := -1
	for i := range p.fabrics {
		if p.reserved[i]+reserveBytes > p.fabrics[i].Config().Server.StoreBytes {
			continue
		}
		if best < 0 || p.reserved[i] < p.reserved[best] {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("%w: %q needs %d bytes but every server is full", ErrPoolAdmission, client, reserveBytes)
	}
	rb, err := p.fabrics[best].NewRemoteBacking(client, domName)
	if err != nil {
		return nil, err
	}
	p.reserved[best] += reserveBytes
	p.clients++
	return rb, nil
}

// SetOutage blackholes (or restores) every link in the pool.
func (p *Pool) SetOutage(down bool) {
	for _, f := range p.fabrics {
		f.SetOutage(down)
	}
}

// Stop shuts every server down so an idle-drain run terminates.
func (p *Pool) Stop() {
	for _, f := range p.fabrics {
		f.Stop()
	}
}
