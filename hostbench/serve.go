package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"nemesis/internal/experiments"
	"nemesis/internal/serve"
)

// The serve-mix stream: each client sends blocks of blockOps requests, one
// a warm run (a new measure window on a warmed Fig. 7 or 8 prefix) and the
// rest cache hits (specs answered in set-up or earlier by that client).
const (
	serveClients = 2
	serveWorkers = 2
	blockOps     = 4
	recentCap    = 32 // own answers a client may repeat; far below the server's LRU
	warmBlocks   = 20 // untimed blocks per client in set-up, about 3 s
)

// answer is a spec the server has answered, with the body it sent.
type answer struct {
	spec experiments.Spec // normalized
	body []byte
}

// serveMix drives nemesis-serve's HTTP API on a loopback listener with
// closed-loop clients.
type serveMix struct {
	seed    int64
	prefix  [2]int64             // the spec seeds whose Fig. 7 and 8 prefixes set-up warms
	measure experiments.Duration // the figures' default window

	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*client
	cold    []answer          // set-up's answers, read-only once the timed phase starts
	coldMs  map[int][]float64 // figure → latency of its cold runs
	delta   map[string]float64

	mu  sync.Mutex
	bad error // the first failed check
}

func newServeMix(seed int64) workload {
	def := experiments.Spec{Kind: experiments.KindFigure, Figure: 7}
	if err := def.Normalize(); err != nil {
		panic("hostbench: normalizing the default figure spec: " + err.Error())
	}
	return &serveMix{seed: seed, prefix: [2]int64{seed, seed + 1}, measure: def.Measure, coldMs: map[int][]float64{}}
}

func (m *serveMix) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bad == nil {
		m.bad = err
		fmt.Fprintf(os.Stderr, "hostbench: serve-mix: %v\n", err)
	}
}

func (m *serveMix) check() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bad
}

// setup starts the server, answers one cold /run per warm prefix (Figs. 7
// and 8 at both prefix seeds), then sends the first warmBlocks blocks of
// each client's stream untimed.
func (m *serveMix) setup() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	m.srv = serve.New(serve.Config{Workers: serveWorkers, SweepWorkers: 1})
	m.hs = &http.Server{Handler: m.srv.Handler()}
	m.served = make(chan struct{})
	go func() {
		defer close(m.served)
		_ = m.hs.Serve(ln) // returns ErrServerClosed once close shuts it
	}()
	m.base = "http://" + ln.Addr().String()
	for i := 0; i < serveClients; i++ {
		m.clients = append(m.clients, &client{
			id:  i,
			mix: m,
			rng: rand.New(rand.NewPCG(uint64(m.seed), uint64(i)+1)),
			hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
	}
	for _, fig := range []int{7, 8} {
		for _, seed := range m.prefix {
			spec := experiments.Spec{Kind: experiments.KindFigure, Figure: fig, Seed: seed}
			if err := spec.Normalize(); err != nil {
				return err
			}
			t0 := time.Now()
			status, cache, body, err := m.clients[0].post(spec)
			d := time.Since(t0)
			if err == nil {
				err = expect(status, cache, "miss", body)
			}
			if err != nil {
				return fmt.Errorf("cold run %s: %w", specKey(spec), err)
			}
			if err := checkFirst(spec, body, validFigure(spec)); err != nil {
				m.fail(err)
			}
			m.coldMs[fig] = append(m.coldMs[fig], float64(d)/1e6)
			m.cold = append(m.cold, answer{spec, body})
		}
	}
	m.drive(func(blocks int) bool { return blocks < warmBlocks })
	return nil
}

// drive lets every client send whole blocks, concurrently, for as long as
// more allows, and returns each client's ops.
func (m *serveMix) drive(more func(blocks int) bool) [][]op {
	per := make([][]op, len(m.clients))
	var wg sync.WaitGroup
	for i, c := range m.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for n := 0; more(n); n++ {
				per[i] = c.block(per[i])
			}
		}(i, c)
	}
	wg.Wait()
	return per
}

// run lets every client send whole blocks until the deadline, then checks
// the server's counters against what the clients sent.
func (m *serveMix) run(deadline time.Time) []op {
	before, err := m.stats()
	if err != nil {
		m.fail(err)
	}
	per := m.drive(func(int) bool { return time.Now().Before(deadline) })
	after, err := m.stats()
	if err != nil {
		m.fail(err)
	}
	m.delta = map[string]float64{}
	for k, v := range after {
		m.delta[k] = v - before[k]
	}
	var ops []op
	var hits, warm float64
	for _, p := range per {
		for _, o := range p {
			if o.class == "hit" {
				hits++
			} else {
				warm++
			}
		}
		ops = append(ops, p...)
	}
	for _, c := range []struct {
		stat string
		want float64
	}{{"cache_hits", hits}, {"cache_misses", warm}, {"warm_hits", warm}, {"warm_misses", 0}, {"runs", warm}} {
		if got := m.delta[c.stat]; got != c.want {
			m.fail(fmt.Errorf("/stats %s grew by %v over the phase, want %v", c.stat, got, c.want))
		}
	}
	return ops
}

// stats reads the server's /stats counters.
func (m *serveMix) stats() (map[string]float64, error) {
	resp, err := m.clients[0].hc.Get(m.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	st := map[string]float64{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

func (m *serveMix) layers(ops []op, put func(string, float64)) {
	p := phase{ops: ops}
	put("serve.hit_ms_p50", quantile(p.millis("hit"), 0.5))
	put("serve.warm_fig7_ms_p50", quantile(p.millis("warm7"), 0.5))
	put("serve.warm_fig8_ms_p50", quantile(p.millis("warm8"), 0.5))
	put("serve.cold_fig7_ms", quantile(m.coldMs[7], 0.5))
	put("serve.cold_fig8_ms", quantile(m.coldMs[8], 0.5))
	d := m.delta
	if n := d["cache_hits"] + d["cache_misses"]; n > 0 {
		put("serve.cache_hit_pct", 100*d["cache_hits"]/n)
	}
	if n := d["warm_hits"] + d["warm_misses"]; n > 0 {
		put("serve.warm_hit_pct", 100*d["warm_hits"]/n)
	}
}

func (m *serveMix) close() {
	if m.hs == nil {
		return
	}
	_ = m.hs.Close() // the listener's close error is not actionable here
	<-m.served
	m.srv.Close()
	for _, c := range m.clients {
		c.hc.CloseIdleConnections()
	}
	m.hs = nil
}

// client is one closed-loop load generator with its own connection and
// its own seeded request order.
type client struct {
	id     int
	mix    *serveMix
	rng    *rand.Rand
	hc     *http.Client
	recent []answer // own warm answers, newest last
	blocks int
	figOff int // which figure the current pair of blocks warms first
}

// block sends the client's next block of requests and appends their ops.
// The draws depend only on the seed and the block's position in the
// stream, never on timing, so every run sends the same stream.
func (c *client) block(ops []op) []op {
	k := c.blocks
	c.blocks++
	if k%2 == 0 {
		c.figOff = c.rng.IntN(2) // each pair of blocks warms Figs. 7 and 8 once, in random order
	}
	warmAt := c.rng.IntN(blockOps)
	warm := experiments.Spec{
		Kind:   experiments.KindFigure,
		Figure: 7 + (k+c.figOff)%2,
		Seed:   c.mix.prefix[c.rng.IntN(2)],
		// A window no request has used yet: unique per client and block.
		Measure: c.mix.measure + experiments.Duration(time.Duration(serveClients*k+c.id+1)*time.Millisecond),
	}
	for i := 0; i < blockOps; i++ {
		if i == warmAt {
			ops = append(ops, c.warmRun(warm))
			continue
		}
		j := c.rng.IntN(len(c.mix.cold) + len(c.recent))
		if j < len(c.mix.cold) {
			ops = append(ops, c.hit(c.mix.cold[j]))
		} else {
			ops = append(ops, c.hit(c.recent[j-len(c.mix.cold)]))
		}
	}
	return ops
}

// warmRun sends a spec the server has not seen and checks the answer is
// a miss that answers that spec.
func (c *client) warmRun(spec experiments.Spec) op {
	t0 := time.Now()
	status, cache, body, err := c.post(spec)
	o := op{class: fmt.Sprintf("warm%d", spec.Figure), dur: time.Since(t0)}
	if err == nil {
		err = expect(status, cache, "miss", body)
	}
	if err == nil {
		err = spec.Normalize()
	}
	if err == nil {
		var r experiments.Result
		switch err = json.Unmarshal(body, &r); {
		case err != nil:
		case specKey(r.Spec) != specKey(spec):
			err = fmt.Errorf("answer is for %s", specKey(r.Spec))
		default:
			err = validFigure(spec)(&r)
		}
	}
	if err != nil {
		c.mix.fail(fmt.Errorf("warm run %s: %w", specKey(spec), err))
		return o
	}
	o.ok = true
	c.recent = append(c.recent, answer{spec, body})
	if len(c.recent) > recentCap {
		c.recent = c.recent[1:]
	}
	return o
}

// hit repeats an answered spec and checks the server answers it from the
// cache with the same bytes.
func (c *client) hit(a answer) op {
	t0 := time.Now()
	status, cache, body, err := c.post(a.spec)
	o := op{class: "hit", dur: time.Since(t0)}
	if err == nil {
		err = expect(status, cache, "hit", body)
	}
	if err == nil && !bytes.Equal(body, a.body) {
		err = fmt.Errorf("body differs from the answered miss")
	}
	if err != nil {
		c.mix.fail(fmt.Errorf("hit %s: %w", specKey(a.spec), err))
		return o
	}
	o.ok = true
	return o
}

// post sends one POST /run and returns the status, the X-Cache header and
// the body.
func (c *client) post(spec experiments.Spec) (int, string, []byte, error) {
	req, err := json.Marshal(spec)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := c.hc.Post(c.mix.base+"/run", "application/json", bytes.NewReader(req))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

func expect(status int, cache, wantCache string, body []byte) error {
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	case cache != wantCache:
		return fmt.Errorf("X-Cache %q, want %q", cache, wantCache)
	}
	return nil
}
