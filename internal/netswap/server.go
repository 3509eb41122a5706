package netswap

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/obs"
	"nemesis/internal/sfs"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// ServerConfig sizes the remote swap server: a separate simulated machine
// with the paper's drive, its own USD and swap store, sharing only the
// simulated clock.
type ServerConfig struct {
	// StoreBytes is the capacity of the remote swap store (default 64 MB).
	StoreBytes int64
}

// DefaultServerConfig returns a 64 MB store.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{StoreBytes: 64 << 20}
}

func (c *ServerConfig) fillDefaults() {
	if c.StoreBytes <= 0 {
		c.StoreBytes = DefaultServerConfig().StoreBytes
	}
}

// storeQoS is the store's contract on the server's own USD: 90% of the
// otherwise idle server disk. One service process drains it, so disk
// service is strictly serial.
var storeQoS = atropos.QoS{P: 100 * time.Millisecond, S: 90 * time.Millisecond, X: true, L: 10 * time.Millisecond}

// ServerStats counts remote-store activity.
type ServerStats struct {
	Reads, Writes int64 // RPCs serviced by kind
	PagesRead     int64
	PagesWritten  int64
	Txns          int64 // disk transactions issued
	Errors        int64 // definitive error replies
}

// Server is the remote swap server: one simulated process that drains an
// RPC queue, services page reads and batched page writes against
// its own disk through its own USD contract, and replies over the link. It
// keeps one blok map per client, so clients never see each other's pages.
type Server struct {
	s     *sim.Simulator
	disk  *disk.Disk
	usd   *usd.USD
	store *sfs.SwapFile
	blok  *stretchdrv.BlokAllocator

	clients map[string]serverClient
	queue   []*request
	work    sim.Cond
	proc    *sim.Proc
	reply   func(*reply) // installed by the Fabric

	// obs, when set via SetObs, is the server machine's own registry: every
	// delivered RPC opens a "service" span there (hops queue → load/store)
	// carrying the client's flow ID, which is what a merged cluster trace
	// draws the cross-machine arrow to. Nil (the default) costs nothing.
	obs *obs.Registry

	Stats ServerStats
}

// NewServer builds and starts the server's machine: disk, USD, store and
// service process.
func NewServer(s *sim.Simulator, cfg ServerConfig) (*Server, error) {
	cfg.fillDefaults()
	d := disk.New(s, disk.VP3221())
	u := usd.New(s, d)
	u.SlackEnabled = true // the server disk serves only the store
	fs := sfs.New(u, usd.Extent{Start: 0, Count: d.Geom.TotalBlocks})
	store, err := fs.CreateSwapFile("netswap-store", cfg.StoreBytes, storeQoS, 1)
	if err != nil {
		u.Stop()
		return nil, fmt.Errorf("netswap: creating remote store: %w", err)
	}
	blokBlocks := int64(vm.PageSize / disk.BlockSize)
	srv := &Server{
		s:       s,
		disk:    d,
		usd:     u,
		store:   store,
		blok:    stretchdrv.NewBlokAllocator(store.Blocks()/blokBlocks, blokBlocks),
		clients: make(map[string]serverClient),
	}
	srv.proc = s.Spawn("netswap-server-0", srv.serve)
	return srv, nil
}

// SetObs installs the server machine's telemetry registry. Call before
// traffic arrives; a nil registry (the default) keeps service unobserved.
func (srv *Server) SetObs(reg *obs.Registry) { srv.obs = reg }

// Obs returns the server machine's registry (nil unless SetObs was called).
func (srv *Server) Obs() *obs.Registry { return srv.obs }

// FreeBloks returns the unallocated store capacity in bloks (pages).
func (srv *Server) FreeBloks() int64 { return srv.blok.Free() }

// QueueLen returns the number of RPCs awaiting service.
func (srv *Server) QueueLen() int { return len(srv.queue) }

// Stop kills the service process and the server's USD so an idle-drain run
// terminates.
func (srv *Server) Stop() {
	srv.proc.Kill()
	srv.usd.Stop()
}

// handle enqueues one arrived request. Called from scheduler context (a link
// delivery event). With a registry installed this is where the server-side
// span opens: the "queue" hop runs from arrival to service pickup.
func (srv *Server) handle(req *request) {
	if srv.obs != nil {
		req.ssp = srv.obs.StartSpan(srv.client(req.Client).num, "service")
		req.ssp.SetFlow(req.Flow)
		req.ssp.BeginHop("queue")
	}
	srv.queue = append(srv.queue, req)
	srv.work.Signal()
}

// serve is the service loop: pop a request, service it against the store,
// send the reply back through the link.
func (srv *Server) serve(p *sim.Proc) {
	for {
		for len(srv.queue) == 0 {
			srv.work.Wait(p)
		}
		req := srv.queue[0]
		srv.queue = srv.queue[1:]
		req.ssp.SetThread(p.Name())
		rep := srv.service(p, req)
		if req.ssp != nil {
			outcome := "ok"
			if rep.Err != "" {
				outcome = "error"
			}
			req.ssp.Finish(outcome)
		}
		if srv.reply != nil {
			srv.reply(rep)
		}
	}
}

// serverClient is the server's record of one client: its page -> blok map
// and, with a registry installed, its number there, which its service spans
// carry.
type serverClient struct {
	pages map[vm.VPN]int64
	num   obs.DomainNum
}

// client returns (creating if needed) the server's record of a client.
func (srv *Server) client(name string) serverClient {
	c, ok := srv.clients[name]
	if !ok {
		c = serverClient{pages: make(map[vm.VPN]int64), num: srv.obs.DomainNum(name)}
		srv.clients[name] = c
	}
	return c
}

// service runs one RPC against the store, blocking p on the server's USD.
func (srv *Server) service(p *sim.Proc, req *request) *reply {
	rep := &reply{ID: req.ID, Client: req.Client, Flow: req.Flow}
	switch req.Op {
	case opRead:
		srv.Stats.Reads++
		if len(req.VPNs) != 1 {
			srv.Stats.Errors++
			rep.Err = "malformed read"
			return rep
		}
		blok, ok := srv.client(req.Client).pages[req.VPNs[0]]
		if !ok {
			srv.Stats.Errors++
			rep.Err = "no remote copy"
			return rep
		}
		buf := make([]byte, vm.PageSize)
		req.ssp.BeginHop("load")
		rep.ServiceStart = srv.s.Now()
		if err := srv.store.Read(p, srv.blok.BlockOffset(blok), int(srv.blok.BlokBlocks()), buf); err != nil {
			srv.Stats.Errors++
			rep.Err = err.Error()
			return rep
		}
		rep.ServiceEnd = srv.s.Now()
		rep.Data = buf
		rep.Txns = 1
		srv.Stats.Txns++
		srv.Stats.PagesRead++
		return rep

	case opWrite:
		srv.Stats.Writes++
		if len(req.Data) != len(req.VPNs)*int(vm.PageSize) {
			srv.Stats.Errors++
			rep.Err = "malformed write"
			return rep
		}
		req.ssp.BeginHop("store")
		rep.ServiceStart = srv.s.Now()
		txns, err := srv.writeBatch(p, req)
		rep.ServiceEnd = srv.s.Now()
		rep.Txns = txns
		srv.Stats.Txns += int64(txns)
		if err != nil {
			srv.Stats.Errors++
			rep.Err = err.Error()
			return rep
		}
		srv.Stats.PagesWritten += int64(len(req.VPNs))
		return rep

	default:
		srv.Stats.Errors++
		rep.Err = "unknown op"
		return rep
	}
}

// writeBatch allocates bloks for new pages (as a contiguous run when
// possible, falling back to singles, freeing the partial allocation on
// exhaustion) and writes disk-adjacent pages as merged spanned transactions.
// ServiceStart/ServiceEnd on the eventual reply bracket the disk work.
func (srv *Server) writeBatch(p *sim.Proc, req *request) (int, error) {
	m := srv.client(req.Client).pages
	bloks := make([]int64, len(req.VPNs))
	var need []int
	for i, vpn := range req.VPNs {
		if b, ok := m[vpn]; ok {
			bloks[i] = b
		} else {
			bloks[i] = -1
			need = append(need, i)
		}
	}
	if len(need) > 0 {
		if start, err := srv.blok.AllocRun(len(need)); err == nil {
			for k, i := range need {
				bloks[i] = start + int64(k)
			}
		} else {
			var got []int64
			for _, i := range need {
				b, err := srv.blok.Alloc()
				if err != nil {
					for _, g := range got {
						srv.blok.FreeBlok(g)
					}
					return 0, fmt.Errorf("remote store full: %d pages, %d bloks free", len(need), srv.blok.Free())
				}
				bloks[i] = b
				got = append(got, b)
			}
		}
		for _, i := range need {
			m[req.VPNs[i]] = bloks[i]
		}
	}

	// Sort page indices by blok and merge adjacent runs into single writes.
	order := make([]int, len(req.VPNs))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort: batches are small
		for j := i; j > 0 && bloks[order[j]] < bloks[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	blocks := int(srv.blok.BlokBlocks())
	txns := 0
	for at := 0; at < len(order); {
		run := 1
		for at+run < len(order) && bloks[order[at+run]] == bloks[order[at+run-1]]+1 {
			run++
		}
		// A run whose pages already sit side by side in the payload (every
		// one-page run does) is written straight from it: the client never
		// writes a payload after sending it.
		i0 := order[at]
		inPlace := true
		for k := 1; k < run && inPlace; k++ {
			inPlace = order[at+k] == i0+k
		}
		var buf []byte
		if inPlace {
			buf = req.Data[i0*int(vm.PageSize) : (i0+run)*int(vm.PageSize)]
		} else {
			buf = make([]byte, 0, run*int(vm.PageSize))
			for k := 0; k < run; k++ {
				i := order[at+k]
				buf = append(buf, req.Data[i*int(vm.PageSize):(i+1)*int(vm.PageSize)]...)
			}
		}
		if err := srv.store.Write(p, srv.blok.BlockOffset(bloks[order[at]]), run*blocks, buf); err != nil {
			return txns, err
		}
		txns++
		at += run
	}
	return txns, nil
}
