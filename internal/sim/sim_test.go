package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.RunUntilIdle(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunUntilIdle(100)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestEventScheduledInPastClampsToNow(t *testing.T) {
	s := New(1)
	var at Time = -1
	s.At(100, func() {
		s.At(50, func() { at = s.Now() })
	})
	s.RunUntilIdle(100)
	if at != 100 {
		t.Fatalf("past event ran at %v, want clamped to 100", at)
	}
}

func TestRunStopsAtLimit(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.Run(15)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 15 {
		t.Fatalf("Now = %v, want 15 (clock advances to limit)", s.Now())
	}
	s.Run(25)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := New(1)
	s.RunFor(5 * time.Millisecond)
	if s.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now = %v", s.Now())
	}
	s.RunFor(5 * time.Millisecond)
	if s.Now() != Time(10*time.Millisecond) {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.At(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	s.RunUntilIdle(10)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(time.Microsecond, recurse)
		}
	}
	s.After(time.Microsecond, recurse)
	s.RunUntilIdle(100)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if s.Now() != Time(5*time.Microsecond) {
		t.Fatalf("Now = %v, want 5us", s.Now())
	}
}

func TestRunUntilIdlePanicsOnRunaway(t *testing.T) {
	expectPanic := func(what string, s *Simulator) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on runaway loop", what)
			}
			// The guard fires after its 1001st dispatch, wherever it ran.
			if s.Dispatched() != 1001 {
				t.Errorf("%s: Dispatched = %d at the panic, want 1001", what, s.Dispatched())
			}
			s.Shutdown()
		}()
		s.RunUntilIdle(1000)
	}
	s := New(1)
	var loop func()
	loop = func() { s.At(s.Now(), loop) }
	s.At(0, loop)
	expectPanic("event loop", s)

	// A lone process that keeps waking itself resumes inline, inside its
	// own park, so only a guard that counts dispatched events stops it.
	s = New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	expectPanic("self-waking process", s)
}

// TestDeterminism runs the same random scenario twice and requires identical
// event interleavings.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		var log []Time
		for i := 0; i < 200; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			s.After(d, func() { log = append(log, s.Now()) })
		}
		s.RunUntilIdle(10000)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timeline diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of offsets, events fire in non-decreasing time order
// and the clock never runs backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New(7)
		var times []Time
		for _, o := range offsets {
			s.At(Time(o), func() { times = append(times, s.Now()) })
		}
		s.RunUntilIdle(len(offsets) + 10)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tt Time = Time(1500 * time.Microsecond)
	if tt.Milliseconds() != 1.5 {
		t.Fatalf("Milliseconds = %v", tt.Milliseconds())
	}
	if tt.Microseconds() != 1500 {
		t.Fatalf("Microseconds = %v", tt.Microseconds())
	}
	if tt.Add(500*time.Microsecond) != Time(2*time.Millisecond) {
		t.Fatalf("Add wrong")
	}
	if tt.Sub(Time(500*time.Microsecond)) != time.Millisecond {
		t.Fatalf("Sub wrong")
	}
	if tt.Seconds() != 0.0015 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if tt.String() != "1.500000ms" {
		t.Fatalf("String = %q", tt.String())
	}
}

// TestSameTimestampFIFOUnderChurn pins the tie-break contract under
// adversarial heap state: events sharing a timestamp must dispatch in the
// exact order they were scheduled, even after the heap's internal layout and
// the event free list have been churned by a seeded-random schedule/cancel/
// fire workload. A shuffled insertion stream goes in; the per-timestamp
// dispatch sequence must reproduce that stream, and the whole run must be
// bit-stable across repetitions.
func TestSameTimestampFIFOUnderChurn(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		rng := s.Rand()

		// Phase 1: churn. Random events at random times, a third of them
		// cancelled, so the heap's sibling layout and the free list are in a
		// non-trivial seeded-random state before the batch under test.
		var timers []Timer
		for i := 0; i < 300; i++ {
			tm := s.At(Time(rng.Intn(50)), func() {})
			if rng.Intn(3) == 0 {
				timers = append(timers, tm)
			}
		}
		for _, tm := range timers {
			tm.Stop()
		}
		s.Run(50)

		// Phase 2: a shuffled stream of (timestamp, id) pairs. Several ids
		// share each timestamp; insertion order within a timestamp is the
		// shuffled stream order.
		const nTimes, perTime = 7, 20
		type slot struct{ t, id int }
		var stream []slot
		for ts := 0; ts < nTimes; ts++ {
			for k := 0; k < perTime; k++ {
				stream = append(stream, slot{t: 100 + ts*10, id: ts*perTime + k})
			}
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

		insertion := make(map[int][]int) // timestamp -> ids in insertion order
		var dispatched []int
		for _, sl := range stream {
			sl := sl
			insertion[sl.t] = append(insertion[sl.t], sl.id)
			s.At(Time(sl.t), func() { dispatched = append(dispatched, sl.id) })
		}
		s.RunUntilIdle(10000)

		// Per-timestamp dispatch order must equal per-timestamp insertion
		// order: walk the dispatch log grouped by the id's timestamp.
		pos := make(map[int]int) // timestamp -> next expected index
		for _, id := range dispatched {
			ts := 100 + (id/perTime)*10
			want := insertion[ts][pos[ts]]
			if id != want {
				t.Fatalf("seed %d: at t=%d dispatched id %d, want %d (FIFO among same-time events broken)",
					seed, ts, id, want)
			}
			pos[ts]++
		}
		if len(dispatched) != nTimes*perTime {
			t.Fatalf("seed %d: dispatched %d events, want %d", seed, len(dispatched), nTimes*perTime)
		}
		return dispatched
	}

	for _, seed := range []int64{1, 7, 42, 12345} {
		a, b := run(seed), run(seed)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: dispatch sequence not stable across runs (index %d: %d vs %d)",
					seed, i, a[i], b[i])
			}
		}
	}
}
