package atropos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nemesis/internal/sim"
)

// The equivalence suite co-runs the indexed Core against the retained linear
// ReferenceCore over seeded random operation sequences — admissions,
// removals, overruns, laxity churn, slack churn, readiness flips — and
// requires every observable decision and every piece of client state to be
// identical after every operation. This is the contract that makes the heap
// refactor "pure": same inputs, same scheduling, bit for bit.

// pair drives both cores in lockstep.
type pair struct {
	t     *testing.T
	seed  int64
	heap  *Core
	ref   *ReferenceCore
	ready map[string]bool // driver-side work availability, mirrored via SetReady
	names []string        // the names random admits and removals draw from
	now   sim.Time
	step  int
	// compactions counts Refresh and SetReady calls after which readyq was
	// shorter than before: only a compaction shortens the heap those
	// operations push to.
	compactions int
}

func newPair(t *testing.T, seed int64, capacity float64) *pair {
	return &pair{
		t:     t,
		seed:  seed,
		heap:  NewCore(capacity),
		ref:   NewReferenceCore(capacity),
		ready: make(map[string]bool),
		names: []string{"a", "b", "c", "d", "e", "f", "g", "h"},
	}
}

// populate admits n uniquely named clients d0…d(n-1) into both cores, each
// ready with probability 1/2, and adds their names to the random op pool.
// qos draws each contract.
func (p *pair) populate(rng *rand.Rand, n int, qos func(*rand.Rand) QoS) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		q := qos(rng)
		hc, err := p.heap.Admit(name, q, p.now)
		if err != nil {
			p.t.Fatalf("heap admit: %v", err)
		}
		if _, err := p.ref.Admit(name, q, p.now); err != nil {
			p.t.Fatalf("ref admit: %v", err)
		}
		p.names = append(p.names, name)
		p.setReady(hc, rng.Intn(2) == 0)
	}
	p.checkState()
}

// setReady mirrors driver-side readiness into the indexed core.
func (p *pair) setReady(c *Client, ready bool) {
	p.ready[c.name] = ready
	n := len(p.heap.readyq)
	p.heap.SetReady(c, ready)
	if len(p.heap.readyq) < n {
		p.compactions++
	}
}

// remove deregisters name from both cores; their errors must agree.
func (p *pair) remove(name string) {
	p.t.Helper()
	herr := p.heap.Remove(name)
	rerr := p.ref.Remove(name)
	if (herr == nil) != (rerr == nil) {
		p.fatalf("remove %q: heap err %v, ref err %v", name, herr, rerr)
	}
	delete(p.ready, name)
}

// pickSlackReady takes a slack pick from both cores (the reference under a
// ready predicate), requires the same client and the same cursor, and
// returns the pick.
func (p *pair) pickSlackReady() string {
	p.t.Helper()
	got := cname(p.heap.PickSlackReady())
	want := rname(p.ref.PickSlackWhere(func(c *ReferenceClient) bool { return p.ready[c.name] }))
	if got != want {
		p.fatalf("PickSlackReady: heap %q ref %q", got, want)
	}
	if p.heap.slackIdx != p.ref.slackIdx {
		p.fatalf("slack cursor: heap %d ref %d", p.heap.slackIdx, p.ref.slackIdx)
	}
	return got
}

func (p *pair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("seed %d step %d: %s", p.seed, p.step, fmt.Sprintf(format, args...))
}

// checkState compares the full client population of both cores.
func (p *pair) checkState() {
	p.t.Helper()
	hc, rc := p.heap.Clients(), p.ref.Clients()
	if len(hc) != len(rc) {
		p.fatalf("client count: heap %d ref %d", len(hc), len(rc))
	}
	for i := range hc {
		h, r := hc[i], rc[i]
		if h.name != r.name || h.qos != r.qos || h.state != r.state ||
			h.remain != r.remain || h.deadline != r.deadline ||
			h.periodStart != r.periodStart || h.laxSpan != r.laxSpan ||
			h.allocations != r.allocations || h.charged != r.charged ||
			h.laxCharged != r.laxCharged {
			p.fatalf("client %d diverged:\n heap %q %v remain=%v dl=%v ps=%v lax=%v alloc=%d chg=%v laxchg=%v\n ref  %q %v remain=%v dl=%v ps=%v lax=%v alloc=%d chg=%v laxchg=%v",
				i,
				h.name, h.state, h.remain, h.deadline, h.periodStart, h.laxSpan, h.allocations, h.charged, h.laxCharged,
				r.name, r.state, r.remain, r.deadline, r.periodStart, r.laxSpan, r.allocations, r.charged, r.laxCharged)
		}
	}
	if p.heap.Contracted() != p.ref.Contracted() {
		p.fatalf("contracted: heap %v ref %v", p.heap.Contracted(), p.ref.Contracted())
	}
}

func cname(c *Client) string {
	if c == nil {
		return "<nil>"
	}
	return c.name
}

func rname(c *ReferenceClient) string {
	if c == nil {
		return "<nil>"
	}
	return c.name
}

// pickClient returns a random admitted client (heap view) or nil.
func (p *pair) pickClient(rng *rand.Rand) (*Client, *ReferenceClient) {
	cs := p.heap.Clients()
	if len(cs) == 0 {
		return nil, nil
	}
	c := cs[rng.Intn(len(cs))]
	return c, p.ref.Lookup(c.name)
}

func randQoS(rng *rand.Rand) QoS {
	periods := []time.Duration{10, 20, 50, 100}
	pd := periods[rng.Intn(len(periods))] * time.Millisecond
	return QoS{
		P: pd,
		S: time.Duration(1 + rng.Int63n(int64(pd))),
		X: rng.Intn(2) == 0,
		L: time.Duration(rng.Int63n(int64(5 * time.Millisecond))),
	}
}

func (p *pair) run(rng *rand.Rand, ops int) {
	p.t.Helper()
	for i := 0; i < ops; i++ {
		p.op(rng)
	}
}

// op draws one random operation, applies it to both cores, checks every
// decision and the full client population, and returns what the indexed
// core decided ("" for operations that decide nothing), so two pairs driven
// by equal random streams can be compared op by op.
func (p *pair) op(rng *rand.Rand) string {
	p.t.Helper()
	p.step++
	out := ""
	switch op := rng.Intn(14); op {
	case 0, 1: // admit (often over capacity — errors must agree)
		name := p.names[rng.Intn(len(p.names))]
		q := randQoS(rng)
		hc, herr := p.heap.Admit(name, q, p.now)
		rc, rerr := p.ref.Admit(name, q, p.now)
		if (herr == nil) != (rerr == nil) {
			p.fatalf("admit %q: heap err %v, ref err %v", name, herr, rerr)
		}
		if herr != nil {
			if !errors.Is(herr, ErrOvercommitted) && !errors.Is(herr, ErrDuplicate) && !errors.Is(herr, ErrBadQoS) {
				p.fatalf("admit %q: unexpected error %v", name, herr)
			}
			if herr.Error() != rerr.Error() {
				p.fatalf("admit %q: error text heap %q ref %q", name, herr, rerr)
			}
			break
		}
		if hc.name != rc.name {
			p.fatalf("admit returned %q vs %q", hc.name, rc.name)
		}
	case 2: // remove
		p.remove(p.names[rng.Intn(len(p.names))])
	case 3, 4: // charge, sometimes into overrun
		hc, rc := p.pickClient(rng)
		if hc == nil {
			break
		}
		d := time.Duration(rng.Int63n(int64(2 * hc.qos.S)))
		p.heap.Charge(hc, d)
		p.ref.Charge(rc, d)
	case 5: // lax charge
		hc, rc := p.pickClient(rng)
		if hc == nil {
			break
		}
		d := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		p.heap.ChargeLax(hc, d)
		p.ref.ChargeLax(rc, d)
	case 6: // note work
		hc, rc := p.pickClient(rng)
		if hc == nil {
			break
		}
		p.heap.NoteWork(hc)
		p.ref.NoteWork(rc)
	case 7: // park idle
		hc, rc := p.pickClient(rng)
		if hc == nil {
			break
		}
		p.heap.Idle(hc)
		p.ref.Idle(rc)
	case 8: // readiness flip
		hc, _ := p.pickClient(rng)
		if hc == nil {
			break
		}
		p.setReady(hc, rng.Intn(2) == 0)
	case 9, 10: // refresh after a time step (occasionally a long gap)
		var dt time.Duration
		if rng.Intn(8) == 0 {
			dt = time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
		} else {
			dt = time.Duration(rng.Int63n(int64(30 * time.Millisecond)))
		}
		p.now = p.now.Add(dt)
		n := len(p.heap.readyq)
		hg := p.heap.Refresh(p.now)
		if len(p.heap.readyq) < n {
			p.compactions++
		}
		rg := p.ref.Refresh(p.now)
		if len(hg) != len(rg) {
			p.fatalf("refresh granted %d vs %d", len(hg), len(rg))
		}
		for i := range hg {
			if hg[i].name != rg[i].name {
				p.fatalf("refresh grant %d: %q vs %q", i, hg[i].name, rg[i].name)
			}
		}
	case 11: // EDF pick over the ready set (readiness as the reference's predicate)
		got := cname(p.heap.PickEDFReady())
		want := rname(p.ref.PickEDFWhere(func(c *ReferenceClient) bool { return p.ready[c.name] }))
		if got != want {
			p.fatalf("PickEDFReady: heap %q ref %q", got, want)
		}
		out = "PickEDFReady " + got
	case 12: // slack round-robin over the ready set (advances both cursors)
		out = fmt.Sprintf("PickSlackReady %s %d", p.pickSlackReady(), p.heap.slackIdx)
	case 13: // next period boundary
		hb, hok := p.heap.NextBoundary()
		rb, rok := p.ref.NextBoundary()
		if hok != rok || (hok && hb != rb) {
			p.fatalf("NextBoundary: heap %v,%v ref %v,%v", hb, hok, rb, rok)
		}
		out = fmt.Sprintf("NextBoundary %v %v", hb, hok)
	}
	p.checkState()
	return out
}

// TestHeapMatchesReference is the headline equivalence property: 1,200
// seeded random contract sets, each driven through ~150 operations on both
// implementations in lockstep.
func TestHeapMatchesReference(t *testing.T) {
	seqs := 1200
	if testing.Short() {
		seqs = 200
	}
	for seed := 0; seed < seqs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		capacity := 1.0
		if seed%5 == 0 {
			capacity = 3.0 // roomy admission → bigger populations
		}
		p := newPair(t, int64(seed), capacity)
		p.run(rng, 150)
	}
}

// TestHeapMatchesReferenceLargePopulation stresses the ready heap and the
// slack bitmap with hundreds of concurrent clients per core (high
// capacity), ready clients spread over every bitmap word. Admits and
// removals draw from the d* population as well as a–h, so removals land in
// every word and shift the bits of all the words after them, and removed d*
// names come back. Each sequence runs long enough for the ready heap to be
// compacted.
func TestHeapMatchesReferenceLargePopulation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		p := newPair(t, seed, 1e9)
		p.populate(rng, 300, randQoS)
		p.run(rng, 600)
		if p.compactions == 0 {
			t.Errorf("seed %d: no heap compaction in %d operations", seed, p.step)
		}
	}
}

// TestSlackPickAcrossWordBoundaries pins PickSlackReady to the reference
// around removals at the edges of the slack bitmap's 64-bit words: the
// first and last client of a word (0, 63, 64, 127) and the last client. A
// removal shifts every later client down a slot, so a bit that fails to
// carry across a word boundary shows up as a pick of the wrong client. The
// cursor sits just before, at and just after the removed index, or at the
// old last slot, which after the removal is ≥ n.
func TestSlackPickAcrossWordBoundaries(t *testing.T) {
	allSlack := func(*rand.Rand) QoS {
		return QoS{P: 100 * time.Millisecond, S: time.Millisecond, X: true}
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, cursor := range []func(at, n int) int{
			func(at, n int) int { return (at + n - 1) % n },
			func(at, n int) int { return at },
			func(at, n int) int { return (at + 1) % n },
			func(at, n int) int { return n - 1 },
		} {
			rng := rand.New(rand.NewSource(3000 + seed))
			p := newPair(t, seed, 1e9)
			p.populate(rng, 200, allSlack)
			for _, at := range []int{0, 63, 64, 127, -1} {
				n := len(p.heap.Clients())
				if at < 0 {
					at = n - 1
				}
				c := cursor(at, n)
				p.heap.slackIdx, p.ref.slackIdx = c, c
				p.remove(p.heap.Clients()[at].name)
				// Two laps of picks from the post-removal cursor, with
				// readiness flips on the way.
				for k := 0; k < 2*n; k++ {
					p.step++
					if rng.Intn(4) == 0 {
						cs := p.heap.Clients()
						p.setReady(cs[rng.Intn(len(cs))], rng.Intn(2) == 0)
					}
					p.pickSlackReady()
				}
				p.checkState()
			}
		}
	}
}

// byteSource is a rand.Source that reads the fuzz input four bytes a draw
// and yields 0 once the input is used up, so the fuzzer's mutations steer
// every choice the pair harness makes. The four bytes fill both halves of
// the draw: rand.Rand takes small ranges from its high bits (Intn) or, for
// a power-of-two bound, its low bits (Int63n).
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	var w [4]byte
	n := copy(w[:], s.b)
	s.b = s.b[n:]
	x := uint64(binary.LittleEndian.Uint32(w[:]))
	return int64((x<<32 | x) >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzCoreMatchesReference drives the pair harness from the fuzz input. Its
// first byte picks the admission capacity: 1, 3, or so roomy that the pair
// starts with up to 200 clients across four bitmap words. The rest feeds
// the harness's random choices, and operations run until it is used up.
// Every pick, grant, boundary and piece of client state must agree with the
// reference after every operation.
func FuzzCoreMatchesReference(f *testing.F) {
	for mode := byte(0); mode < 3; mode++ {
		b := make([]byte, 2048)
		rand.New(rand.NewSource(int64(mode))).Read(b)
		b[0] = mode
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := []float64{1, 3, 1e9}[data[0]%3]
		src := &byteSource{b: data[1:]}
		rng := rand.New(src)
		p := newPair(t, 0, capacity)
		if capacity == 1e9 {
			p.populate(rng, rng.Intn(200), randQoS)
		}
		for len(src.b) > 0 {
			p.op(rng)
		}
	})
}

// clone returns an independent copy of the reference core.
func (co *ReferenceCore) clone() *ReferenceCore {
	nc := *co
	nc.clients = make([]*ReferenceClient, len(co.clients))
	for i, c := range co.clients {
		cc := *c
		nc.clients[i] = &cc
	}
	return &nc
}

// TestForkMatchesParent forks an indexed core mid-sequence, with ready
// clients spread across several bitmap words, then drives parent and fork
// through the same random operations in lockstep, each beside its own copy
// of the reference. Parent and fork must make the same decisions —
// PickEDFReady and PickSlackReady, with the same slack cursor — and hold the
// same state for every client, index bookkeeping included. Since each core
// also answers to its own reference after every operation, a fork that
// shared a heap or the slack bitmap with its parent fails even though
// lockstep applies every change to both.
func TestForkMatchesParent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		p := newPair(t, seed, 1e9)
		p.populate(rng, 300, randQoS)
		p.run(rng, 200)

		child, m := p.heap.Fork()
		for _, c := range p.heap.Clients() {
			if m[c] == nil || m[c] == c || m[c].name != c.name {
				t.Fatalf("seed %d: fork map sends %q to %v", seed, c.name, m[c])
			}
		}
		ready := make(map[string]bool, len(p.ready))
		for name, r := range p.ready {
			ready[name] = r
		}
		f := &pair{t: t, seed: seed, heap: child, ref: p.ref.clone(), ready: ready,
			names: p.names, now: p.now, step: p.step}

		prng := rand.New(rand.NewSource(seed))
		frng := rand.New(rand.NewSource(seed))
		for i := 0; i < 600; i++ {
			if got, want := f.op(frng), p.op(prng); got != want {
				t.Fatalf("seed %d step %d: fork decided %q, parent %q", seed, p.step, got, want)
			}
			if f.heap.slackIdx != p.heap.slackIdx {
				t.Fatalf("seed %d step %d: slack cursor fork %d parent %d", seed, p.step, f.heap.slackIdx, p.heap.slackIdx)
			}
			pc, fc := p.heap.Clients(), f.heap.Clients()
			if len(pc) != len(fc) {
				t.Fatalf("seed %d step %d: fork has %d clients, parent %d", seed, p.step, len(fc), len(pc))
			}
			for j := range pc {
				if *pc[j] != *fc[j] {
					t.Fatalf("seed %d step %d: client %d diverged:\n fork   %+v\n parent %+v", seed, p.step, j, *fc[j], *pc[j])
				}
			}
		}
	}
}
