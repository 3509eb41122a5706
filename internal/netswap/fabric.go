package netswap

import (
	"fmt"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// Config bundles the whole remote-paging fabric: one link, one server, and
// the client and tiering options every backing on the fabric uses.
type Config struct {
	Link   LinkConfig
	Server ServerConfig
	Remote RemoteOptions
	Tiered TieredOptions
}

// DefaultConfig returns a healthy fabric on the defaults of each layer.
func DefaultConfig() Config {
	return Config{
		Link:   DefaultLinkConfig(),
		Server: DefaultServerConfig(),
		Remote: DefaultRemoteOptions(),
		Tiered: DefaultTieredOptions(),
	}
}

// Fabric owns the remote-paging plumbing: it routes client requests over the
// link to the server and server replies back to the issuing client. One
// fabric serves any number of RemoteBackings (one per paged stretch), all
// sharing the link and the server while keeping disjoint server-side blok
// maps.
type Fabric struct {
	s   *sim.Simulator
	reg *obs.Registry
	cfg Config

	Link   *Link
	Server *Server

	clients map[string]*RemoteBacking
}

// New builds the fabric: link, server, and reply routing. reg may be nil.
func New(s *sim.Simulator, reg *obs.Registry, cfg Config) (*Fabric, error) {
	f := &Fabric{
		s:       s,
		reg:     reg,
		cfg:     cfg,
		Link:    NewLink(s, reg, cfg.Link),
		clients: make(map[string]*RemoteBacking),
	}
	srv, err := NewServer(s, cfg.Server)
	if err != nil {
		return nil, err
	}
	f.Server = srv
	srv.reply = func(rep *reply) {
		f.Link.SendToClient(rep.wireSize(), func() {
			if c, ok := f.clients[rep.Client]; ok {
				c.deliver(rep)
			}
		})
	}
	return f, nil
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// toServer offers one request frame to the link.
func (f *Fabric) toServer(req *request) {
	f.Link.SendToServer(req.wireSize(), func() { f.Server.handle(req) })
}

// NewRemoteBacking registers a client endpoint named client (which keys the
// server-side blok map) for telemetry domain domName, on the fabric's
// remote options.
func (f *Fabric) NewRemoteBacking(client, domName string) (*RemoteBacking, error) {
	if _, ok := f.clients[client]; ok {
		return nil, fmt.Errorf("netswap: client %q already registered", client)
	}
	r := newRemoteBacking(f, client, domName, f.cfg.Remote)
	f.clients[client] = r
	return r, nil
}

// SetOutage blackholes (or restores) the fabric's link.
func (f *Fabric) SetOutage(down bool) { f.Link.SetOutage(down) }

// Stop shuts the server down so an idle-drain run terminates.
func (f *Fabric) Stop() { f.Server.Stop() }
