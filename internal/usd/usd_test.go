package usd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/sim"
	"nemesis/internal/trace"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

func newUSD() (*sim.Simulator, *USD) {
	s := sim.New(1)
	d := disk.New(s, disk.VP3221())
	u := New(s, d)
	u.Log = &trace.Log{}
	return s, u
}

func wholeDisk(u *USD) Extent { return Extent{0, u.Disk().Geom.TotalBlocks} }

func TestExtentContains(t *testing.T) {
	e := Extent{100, 50}
	if !e.Contains(100, 50) || !e.Contains(120, 1) {
		t.Fatal("containment false negative")
	}
	if e.Contains(99, 1) || e.Contains(149, 2) || e.Contains(200, 1) {
		t.Fatal("containment false positive")
	}
	if e.String() != "[100,+50)" {
		t.Fatalf("String = %q", e.String())
	}
}

// TestUnknownClientSentinel: Close and Grant on an unadmitted name report
// ErrUnknownClient via errors.Is.
func TestUnknownClientSentinel(t *testing.T) {
	_, u := newUSD()
	if err := u.Close("ghost"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("Close err = %v", err)
	}
	if err := u.Grant("ghost", Extent{0, 10}); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("Grant err = %v", err)
	}
}

func TestOpenAdmissionControl(t *testing.T) {
	_, u := newUSD()
	if _, err := u.Open("a", atropos.QoS{P: ms(250), S: ms(200)}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Open("b", atropos.QoS{P: ms(250), S: ms(100)}, 1); !errors.Is(err, atropos.ErrOvercommitted) {
		t.Fatalf("err = %v", err)
	}
	if got := u.Contracted(); got != 0.8 {
		t.Fatalf("Contracted = %v", got)
	}
}

func TestSimpleReadWrite(t *testing.T) {
	s, u := newUSD()
	ch, err := u.Open("a", atropos.QoS{P: ms(250), S: ms(100), L: ms(10)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	u.Grant("a", wholeDisk(u))
	var readBack []byte
	s.Spawn("app", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0x5A}, 16*disk.BlockSize)
		if _, err := ch.Do(p, &Request{Op: disk.Write, Block: 4096, Count: 16, Data: data}); err != nil {
			t.Error(err)
			return
		}
		r, err := ch.Do(p, &Request{Op: disk.Read, Block: 4096, Count: 16})
		if err != nil {
			t.Error(err)
			return
		}
		readBack = r.Data
	})
	s.RunFor(2 * time.Second)
	u.Stop()
	s.RunUntilIdle(100000)
	if len(readBack) != 16*disk.BlockSize || readBack[0] != 0x5A || readBack[len(readBack)-1] != 0x5A {
		t.Fatal("read back wrong data")
	}
	st, ok := u.Stats("a")
	if !ok || st.Txns != 2 || st.Bytes != 2*16*disk.BlockSize {
		t.Fatalf("stats = %+v", st)
	}
	if st.Charged <= 0 {
		t.Fatal("no time charged")
	}
}

func TestExtentProtection(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(100), L: ms(10)}, 1)
	u.Grant("a", Extent{1000, 100})
	var inErr, outErr error
	s.Spawn("app", func(p *sim.Proc) {
		_, inErr = ch.Do(p, &Request{Op: disk.Read, Block: 1000, Count: 16})
		_, outErr = ch.Do(p, &Request{Op: disk.Read, Block: 2000, Count: 16})
	})
	s.RunFor(time.Second)
	if inErr != nil {
		t.Fatalf("in-extent request failed: %v", inErr)
	}
	if !errors.Is(outErr, ErrNoSuchExtent) {
		t.Fatalf("out-of-extent err = %v", outErr)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(100)}, 1)
	s.Spawn("app", func(p *sim.Proc) {
		if err := ch.Submit(p, &Request{Op: disk.Read, Block: 0, Count: 0}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("zero count err = %v", err)
		}
		if err := ch.Submit(p, &Request{Op: disk.Write, Block: 0, Count: 2, Data: make([]byte, 10)}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("short write err = %v", err)
		}
		if err := ch.Submit(p, &Request{Op: disk.Read, Block: 0, Count: 1, Data: make([]byte, 10)}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("short read buf err = %v", err)
		}
	})
	s.RunFor(100 * time.Millisecond)
}

func TestChannelClose(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(100)}, 1)
	u.Close("a")
	s.Spawn("app", func(p *sim.Proc) {
		if err := ch.Submit(p, &Request{Op: disk.Read, Block: 0, Count: 1}); !errors.Is(err, ErrClosed) {
			t.Errorf("submit after close err = %v", err)
		}
	})
	s.RunFor(100 * time.Millisecond)
	// Contract released: full disk admissible again.
	if _, err := u.Open("b", atropos.QoS{P: ms(250), S: ms(250)}, 1); err != nil {
		t.Fatalf("readmission failed: %v", err)
	}
}

// TestProportionalSharing is the heart of Fig. 7: three clients with 10%,
// 20% and 40% guarantees hammering the disk must make progress ~4:2:1.
func TestProportionalSharing(t *testing.T) {
	s, u := newUSD()
	type app struct {
		name  string
		slice time.Duration
		pages int64
	}
	apps := []*app{
		{name: "a10", slice: ms(25)},
		{name: "b20", slice: ms(50)},
		{name: "c40", slice: ms(100)},
	}
	for i, a := range apps {
		ch, err := u.Open(a.name, atropos.QoS{P: ms(250), S: a.slice, L: ms(10)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		u.Grant(a.name, wholeDisk(u))
		base := int64(200000 * (i + 1)) // separate disk regions
		a := a
		s.Spawn(a.name, func(p *sim.Proc) {
			buf := make([]byte, 16*disk.BlockSize)
			for n := int64(0); ; n++ {
				req := &Request{Op: disk.Read, Block: base + (n%2000)*16, Count: 16, Data: buf}
				if _, err := ch.Do(p, req); err != nil {
					return
				}
				a.pages++
				p.Sleep(150 * time.Microsecond) // per-page "compute"
			}
		})
	}
	s.RunFor(10 * time.Second)
	r1 := float64(apps[1].pages) / float64(apps[0].pages)
	r2 := float64(apps[2].pages) / float64(apps[1].pages)
	if r1 < 1.6 || r1 > 2.4 || r2 < 1.6 || r2 > 2.4 {
		t.Fatalf("progress %d:%d:%d, ratios %.2f %.2f want ~2.0 each",
			apps[0].pages, apps[1].pages, apps[2].pages, r1, r2)
	}
	u.Stop()
	s.RunUntilIdle(1 << 20)
}

// TestLaxityBoundsRespected: no single lax charge may exceed l, and with
// laxity on, an unpipelined client achieves more than one transaction per
// period.
func TestLaxityBoundsRespected(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(100), L: ms(10)}, 1)
	u.Grant("a", wholeDisk(u))
	pages := 0
	s.Spawn("a", func(p *sim.Proc) {
		buf := make([]byte, 16*disk.BlockSize)
		for n := int64(0); ; n++ {
			if _, err := ch.Do(p, &Request{Op: disk.Read, Block: n * 16 % 100000, Count: 16, Data: buf}); err != nil {
				return
			}
			pages++
			p.Sleep(200 * time.Microsecond)
		}
	})
	s.RunFor(3 * time.Second)
	maxLax := u.Log.MaxLax()["a"]
	if maxLax > 0.010+1e-6 {
		t.Fatalf("lax span %.4fs exceeds l=10ms", maxLax)
	}
	if maxLax == 0 {
		t.Fatal("no lax time recorded for an unpipelined client")
	}
	// 3s = 12 periods; without laxity it would be ~12 transactions.
	if pages < 50 {
		t.Fatalf("pages = %d; laxity not keeping client runnable", pages)
	}
}

// TestShortBlockProblem: with laxity disabled, an unpipelined client gets
// roughly one transaction per period (the paper's motivation for laxity).
func TestShortBlockProblem(t *testing.T) {
	s, u := newUSD()
	u.LaxityEnabled = false
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(100), L: ms(10)}, 1)
	u.Grant("a", wholeDisk(u))
	pages := 0
	s.Spawn("a", func(p *sim.Proc) {
		buf := make([]byte, 16*disk.BlockSize)
		for n := int64(0); ; n++ {
			if _, err := ch.Do(p, &Request{Op: disk.Read, Block: n * 16 % 100000, Count: 16, Data: buf}); err != nil {
				return
			}
			pages++
			p.Sleep(200 * time.Microsecond)
		}
	})
	s.RunFor(3 * time.Second) // 12 periods
	if pages > 16 {
		t.Fatalf("pages = %d; expected ~1 per 250ms period without laxity", pages)
	}
	if pages < 8 {
		t.Fatalf("pages = %d; client starved entirely", pages)
	}
}

// TestPipelinedClientUnaffectedByLaxity: a client that always has work
// queued should accrue no lax time.
func TestPipelinedClientNoLax(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("fs", atropos.QoS{P: ms(250), S: ms(125), L: ms(10)}, 8)
	u.Grant("fs", wholeDisk(u))
	s.Spawn("fs", func(p *sim.Proc) {
		next := int64(0)
		inflight := 0
		for {
			for inflight < 8 {
				if err := ch.Submit(p, &Request{Op: disk.Read, Block: next, Count: 16}); err != nil {
					return
				}
				next += 16
				inflight++
			}
			if _, err := ch.Await(p); err != nil {
				return
			}
			inflight--
		}
	})
	s.RunFor(2 * time.Second)
	st, _ := u.Stats("fs")
	if st.LaxCharged > ms(15) {
		t.Fatalf("pipelined client charged %v lax", st.LaxCharged)
	}
	if st.Txns < 100 {
		t.Fatalf("Txns = %d, pipeline not flowing", st.Txns)
	}
	u.Stop()
	s.RunUntilIdle(1 << 20)
}

// TestEDFOrderAcrossSubmits: while the client with the earlier deadline has
// work queued, it is served back to back, ahead of a later-deadline client
// that submitted at the same instant. Its work either waits in its FIFO
// (depth 4, three requests) or, at depth 1, in a second submitter blocked
// in Send until the first request leaves the FIFO; that request must still
// be served inside the client's slice, before the other client's.
func TestEDFOrderAcrossSubmits(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		depth, submitters, perSubmitter int
	}{
		{"pipelined", 4, 1, 3},
		{"blocked", 1, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, u := newUSD()
			chA, _ := u.Open("a", atropos.QoS{P: ms(100), S: ms(80), L: ms(10)}, tc.depth)
			chB, _ := u.Open("b", atropos.QoS{P: ms(250), S: ms(25), L: ms(10)}, 1)
			u.Grant("a", wholeDisk(u))
			u.Grant("b", wholeDisk(u))
			var reqA []*Request
			for i := 0; i < tc.submitters; i++ {
				s.Spawn("a", func(p *sim.Proc) {
					for j := 0; j < tc.perSubmitter; j++ {
						r := &Request{Op: disk.Read, Block: int64(len(reqA)) * 16, Count: 16}
						reqA = append(reqA, r)
						if err := chA.Submit(p, r); err != nil {
							t.Error(err)
							return
						}
					}
					for j := 0; j < tc.perSubmitter; j++ {
						if _, err := chA.Await(p); err != nil {
							t.Error(err)
							return
						}
					}
				})
			}
			reqB := &Request{Op: disk.Read, Block: 1 << 20, Count: 16}
			s.Spawn("b", func(p *sim.Proc) {
				if _, err := chB.Do(p, reqB); err != nil {
					t.Error(err)
				}
			})
			s.RunFor(ms(250))
			if reqB.Completed() == 0 {
				t.Fatal("b's request never served")
			}
			for i, r := range reqA {
				if r.Completed() == 0 || r.Started() >= reqB.Started() {
					t.Fatalf("a's request %d served at %v–%v, b's at %v: want every a request first",
						i, r.Started(), r.Completed(), reqB.Started())
				}
				if r.Completed() > sim.Time(ms(100)) {
					t.Fatalf("a's request %d completed at %v, after a's first deadline", i, r.Completed())
				}
			}
			if st, _ := u.Stats("a"); st.Txns != int64(len(reqA)) || st.Charged < ms(1) {
				t.Fatalf("a's stats = %+v, want %d charged transactions", st, len(reqA))
			}
			u.Stop()
			s.RunUntilIdle(1 << 20)
		})
	}
}

// TestGuaranteeNotExceeded: over a long run, busy time per period must not
// deterministically exceed the slice (roll-over keeps the long-run average
// at or below the guarantee, within one transaction of slop per period).
func TestGuaranteeNotExceeded(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(25), L: ms(10)}, 1)
	u.Grant("a", wholeDisk(u))
	s.Spawn("a", func(p *sim.Proc) {
		buf := make([]byte, 16*disk.BlockSize)
		for n := int64(0); ; n++ {
			// Writes: ~10ms each, uncachable.
			if _, err := ch.Do(p, &Request{Op: disk.Write, Block: (n % 5000) * 16, Count: 16, Data: buf}); err != nil {
				return
			}
		}
	})
	s.RunFor(5 * time.Second)
	busy := u.Log.TotalBusy(0, s.Now())["a"]
	// 20 periods x 25ms = 0.5s guarantee; allow one txn of roll-over slop.
	if busy > 0.5+0.035 {
		t.Fatalf("busy %.3fs exceeds guarantee 0.5s", busy)
	}
	if busy < 0.35 {
		t.Fatalf("busy %.3fs far below guarantee — scheduler underserving", busy)
	}
}

// TestSlackScheduling: an x=true client may consume otherwise-idle disk time
// beyond its guarantee; an x=false client may not.
func TestSlackScheduling(t *testing.T) {
	run := func(slackOn bool, x bool) int64 {
		s, u := newUSD()
		u.SlackEnabled = slackOn
		ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(25), X: x, L: ms(10)}, 4)
		u.Grant("a", wholeDisk(u))
		s.Spawn("a", func(p *sim.Proc) {
			next := int64(0)
			inflight := 0
			for {
				for inflight < 4 {
					if err := ch.Submit(p, &Request{Op: disk.Read, Block: next % 800000, Count: 16}); err != nil {
						return
					}
					next += 16
					inflight++
				}
				if _, err := ch.Await(p); err != nil {
					return
				}
				inflight--
			}
		})
		s.RunFor(3 * time.Second)
		st, _ := u.Stats("a")
		u.Stop()
		s.RunUntilIdle(1 << 20)
		return st.Txns
	}
	base := run(false, true)
	slacked := run(true, true)
	notEligible := run(true, false)
	if slacked < base*3 {
		t.Fatalf("slack gave little benefit: base=%d slacked=%d", base, slacked)
	}
	if notEligible > base*3/2 {
		t.Fatalf("x=false client received slack: base=%d got=%d", base, notEligible)
	}
}

// TestAllocationEventsLogged: period boundaries appear in the trace.
func TestAllocationEventsLogged(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(25), L: ms(10)}, 1)
	u.Grant("a", wholeDisk(u))
	s.Spawn("a", func(p *sim.Proc) {
		buf := make([]byte, 16*disk.BlockSize)
		for n := int64(0); ; n++ {
			if _, err := ch.Do(p, &Request{Op: disk.Write, Block: n % 1000 * 16, Count: 16, Data: buf}); err != nil {
				return
			}
		}
	})
	s.RunFor(2 * time.Second)
	allocs := 0
	for _, e := range u.Log.Events() {
		if e.Kind == trace.Allocation && e.Client == "a" {
			allocs++
		}
	}
	if allocs < 6 || allocs > 8 { // ~7 boundaries in 2s after the initial one
		t.Fatalf("allocation events = %d", allocs)
	}
}

func TestStatsUnknownClient(t *testing.T) {
	_, u := newUSD()
	if _, ok := u.Stats("ghost"); ok {
		t.Fatal("stats for unknown client")
	}
	if err := u.Grant("ghost", Extent{}); err == nil {
		t.Fatal("grant to unknown client succeeded")
	}
	if err := u.Close("ghost"); err == nil {
		t.Fatal("close of unknown client succeeded")
	}
}

func TestOpenAfterStop(t *testing.T) {
	s, u := newUSD()
	u.Stop()
	s.RunUntilIdle(1000)
	if _, err := u.Open("a", atropos.QoS{P: ms(250), S: ms(25)}, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
}

func TestRequestTimestamps(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(100), L: ms(10)}, 1)
	u.Grant("a", wholeDisk(u))
	s.Spawn("a", func(p *sim.Proc) {
		r, err := ch.Do(p, &Request{Op: disk.Read, Block: 0, Count: 16})
		if err != nil {
			t.Error(err)
			return
		}
		if !(r.Submitted() <= r.Started() && r.Started() < r.Completed()) {
			t.Errorf("timestamps out of order: %v %v %v", r.Submitted(), r.Started(), r.Completed())
		}
	})
	s.RunFor(time.Second)
}

// TestFCFSMode: with FCFS scheduling, service order follows submission
// time, not deadlines, and nothing is charged.
func TestFCFSMode(t *testing.T) {
	s, u := newUSD()
	u.FCFS = true
	chA, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(10)}, 4)
	chB, _ := u.Open("b", atropos.QoS{P: ms(250), S: ms(200)}, 4)
	u.Grant("a", wholeDisk(u))
	u.Grant("b", wholeDisk(u))
	var order []string
	s.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := chA.Do(p, &Request{Op: disk.Read, Block: int64(i) * 16, Count: 16}); err != nil {
				return
			}
			order = append(order, "a")
		}
	})
	s.Spawn("b", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // submit strictly after a's first
		for i := 0; i < 4; i++ {
			if _, err := chB.Do(p, &Request{Op: disk.Read, Block: 100000 + int64(i)*16, Count: 16}); err != nil {
				return
			}
			order = append(order, "b")
		}
	})
	s.RunFor(2 * time.Second)
	// Strict alternation by submission time, despite b's 20x contract.
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want alternation", order)
		}
	}
	// Nothing charged in FCFS mode.
	stA, _ := u.Stats("a")
	if stA.Charged != 0 {
		t.Fatalf("charged %v in FCFS mode", stA.Charged)
	}
	u.Stop()
	s.RunUntilIdle(1 << 20)
}

// TestRollOverVisibleInTrace reproduces the paper's Fig. 8 observation: a
// client with a small slice completes a transaction that overruns its
// remaining time, then receives less in the following period.
func TestRollOverVisibleInTrace(t *testing.T) {
	s, u := newUSD()
	ch, _ := u.Open("a", atropos.QoS{P: ms(250), S: ms(25), L: ms(10)}, 1)
	u.Grant("a", wholeDisk(u))
	s.Spawn("a", func(p *sim.Proc) {
		buf := make([]byte, 16*disk.BlockSize)
		for n := int64(0); ; n++ {
			if _, err := ch.Do(p, &Request{Op: disk.Write, Block: (n % 4000) * 16, Count: 16, Data: buf}); err != nil {
				return
			}
		}
	})
	s.RunFor(5 * time.Second)
	// Count transactions per period: with ~10ms writes against a 25ms
	// slice, some periods see 3 txns (>25ms, via roll-over) and the
	// following period then sees fewer.
	periods := make(map[int64]int)
	for _, e := range u.Log.ByClient("a") {
		if e.Kind == trace.Transaction {
			periods[int64(e.Start)/int64(ms(250))]++
		}
	}
	three, lean := 0, 0
	for pd, n := range periods {
		if n >= 3 {
			three++
			if periods[pd+1] > 0 && periods[pd+1] < 3 {
				lean++
			}
		}
	}
	if three == 0 {
		t.Fatal("no period completed 3 transactions (roll-over never exercised)")
	}
	if lean == 0 {
		t.Fatal("no lean period followed an overrun period")
	}
	u.Stop()
	s.RunUntilIdle(1 << 20)
}
