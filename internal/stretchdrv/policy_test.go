package stretchdrv_test

// Property-based checks (testing/quick) of the replacement policies against
// a reference model: residency tracked in a plain set, referenced bits in a
// map. The policies are pure data structures, so they can be driven directly
// without a simulator.

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// fakePageState is an in-memory referenced-bit table standing in for the
// engine's translation-system view.
type fakePageState map[vm.VA]bool

func (f fakePageState) Referenced(va vm.VA) bool { return f[va] }
func (f fakePageState) ClearReferenced(va vm.VA) { f[va] = false }

var allPolicies = []stretchdrv.PolicyKind{
	stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance, stretchdrv.PolicyClock,
}

// TestPolicyModelQuick drives each policy with random access traces under a
// random capacity and checks the structural invariants: the tracked resident
// set never exceeds the capacity, every evicted page was resident, and
// Resident() always matches the model set exactly.
func TestPolicyModelQuick(t *testing.T) {
	for _, kind := range allPolicies {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			prop := func(accesses []uint8, capRaw uint8) bool {
				capacity := int(capRaw%6) + 1
				pol, err := stretchdrv.NewPolicy(kind)
				if err != nil {
					return false
				}
				ps := fakePageState{}
				resident := map[vm.VA]bool{}
				for _, b := range accesses {
					va := vm.VA(int(b%16) * vm.PageSize)
					if resident[va] {
						ps[va] = true // re-access sets the referenced bit
						continue
					}
					if len(resident) == capacity {
						victim, _, ok := pol.Victim(ps)
						if !ok || !resident[victim] {
							return false // evicted a non-resident page
						}
						delete(resident, victim)
						delete(ps, victim)
					}
					pol.NoteMapped(va)
					resident[va] = true
					ps[va] = true
					if pol.Len() != len(resident) || pol.Len() > capacity {
						return false
					}
					view := pol.Resident()
					if len(view) != len(resident) {
						return false
					}
					for _, r := range view {
						if !resident[r] {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPolicySparesReferencedQuick: for random referenced-bit assignments with
// at least one unreferenced resident page, second chance and CLOCK must never
// pick a referenced page as the victim (clearing a bit never sets another, so
// the victim must be one of the initially-unreferenced pages).
func TestPolicySparesReferencedQuick(t *testing.T) {
	for _, kind := range []stretchdrv.PolicyKind{stretchdrv.PolicySecondChance, stretchdrv.PolicyClock} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			prop := func(refBits []bool) bool {
				if len(refBits) == 0 {
					return true
				}
				pol, err := stretchdrv.NewPolicy(kind)
				if err != nil {
					return false
				}
				ps := fakePageState{}
				unref := map[vm.VA]bool{}
				any := false
				for i, r := range refBits {
					va := vm.VA(i * vm.PageSize)
					pol.NoteMapped(va)
					ps[va] = r
					if !r {
						unref[va] = true
						any = true
					}
				}
				victim, spared, ok := pol.Victim(ps)
				if !ok {
					return false
				}
				if any && !unref[victim] {
					return false // evicted a just-referenced page over an idle one
				}
				if !any && spared < len(refBits) {
					return false // a full sweep must have cleared every bit
				}
				return true
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPolicyVictimExhaustion: draining a policy yields each page exactly once
// and then reports ok=false.
func TestPolicyVictimExhaustion(t *testing.T) {
	for _, kind := range allPolicies {
		pol, err := stretchdrv.NewPolicy(kind)
		if err != nil {
			t.Fatal(err)
		}
		ps := fakePageState{}
		const n = 9
		for i := 0; i < n; i++ {
			pol.NoteMapped(vm.VA(i * vm.PageSize))
		}
		seen := map[vm.VA]bool{}
		for i := 0; i < n; i++ {
			va, _, ok := pol.Victim(ps)
			if !ok {
				t.Fatalf("%s: exhausted after %d of %d", kind, i, n)
			}
			if seen[va] {
				t.Fatalf("%s: evicted %#x twice", kind, va)
			}
			seen[va] = true
		}
		if _, _, ok := pol.Victim(ps); ok {
			t.Fatalf("%s: victim from an empty policy", kind)
		}
	}
}

// BenchmarkPolicyVictim measures steady-state victim selection + remap for
// each policy over a 64-page resident set with a referenced hot half.
func BenchmarkPolicyVictim(b *testing.B) {
	for _, kind := range allPolicies {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			pol, err := stretchdrv.NewPolicy(kind)
			if err != nil {
				b.Fatal(err)
			}
			ps := fakePageState{}
			const n = 64
			for i := 0; i < n; i++ {
				va := vm.VA(i * vm.PageSize)
				pol.NoteMapped(va)
				ps[va] = i%2 == 0
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va, _, ok := pol.Victim(ps)
				if !ok {
					b.Fatal("no victim")
				}
				pol.NoteMapped(va)
				ps[va] = i%2 == 0
			}
		})
	}
}

// sliceFIFO and sliceSecondChance are the queue policies as they were before
// their queues became head-indexed: pop by reslicing, push by append. The
// policies must choose exactly the victims these do.
type sliceFIFO struct{ q []vm.VA }

func (f *sliceFIFO) NoteMapped(va vm.VA) { f.q = append(f.q, va) }

func (f *sliceFIFO) Victim(stretchdrv.PageState) (vm.VA, int, bool) {
	if len(f.q) == 0 {
		return 0, 0, false
	}
	va := f.q[0]
	f.q = f.q[1:]
	return va, 0, true
}

type sliceSecondChance struct{ q []vm.VA }

func (s *sliceSecondChance) NoteMapped(va vm.VA) { s.q = append(s.q, va) }

func (s *sliceSecondChance) Victim(ps stretchdrv.PageState) (vm.VA, int, bool) {
	spared, passes := 0, 0
	for len(s.q) > 0 && passes < 2*len(s.q)+2 {
		va := s.q[0]
		s.q = s.q[1:]
		if ps.Referenced(va) {
			ps.ClearReferenced(va)
			s.q = append(s.q, va)
			spared++
			passes++
			continue
		}
		return va, spared, true
	}
	if len(s.q) > 0 {
		va := s.q[0]
		s.q = s.q[1:]
		return va, spared, true
	}
	return 0, spared, false
}

// TestQueuePoliciesMatchSliceReference drives FIFO and second chance and
// their slice references with the same random NoteMapped/Victim sequences
// (runs of maps and evictions of random length, so the queue both grows
// past and drains below its compaction point) and compares every victim,
// spare count, length and resident view.
func TestQueuePoliciesMatchSliceReference(t *testing.T) {
	for _, kind := range []stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance} {
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			for trial := 0; trial < 200; trial++ {
				pol, err := stretchdrv.NewPolicy(kind)
				if err != nil {
					t.Fatal(err)
				}
				var ref interface {
					NoteMapped(vm.VA)
					Victim(stretchdrv.PageState) (vm.VA, int, bool)
				}
				var queue func() []vm.VA
				if kind == stretchdrv.PolicyFIFO {
					f := &sliceFIFO{}
					ref, queue = f, func() []vm.VA { return f.q }
				} else {
					s := &sliceSecondChance{}
					ref, queue = s, func() []vm.VA { return s.q }
				}
				ps, refPS := fakePageState{}, fakePageState{}
				next := 0
				for op := 0; op < 300; op++ {
					if rng.Intn(2) == 0 {
						for k := rng.Intn(8); k > 0; k-- {
							va := vm.VA(next * vm.PageSize)
							next++
							pol.NoteMapped(va)
							ref.NoteMapped(va)
							hot := rng.Intn(3) == 0
							ps[va], refPS[va] = hot, hot
						}
					} else {
						for k := rng.Intn(8); k > 0; k-- {
							va, spared, ok := pol.Victim(ps)
							wva, wspared, wok := ref.Victim(refPS)
							if va != wva || spared != wspared || ok != wok {
								t.Fatalf("trial %d op %d: Victim = (%#x, %d, %v), reference (%#x, %d, %v)",
									trial, op, va, spared, ok, wva, wspared, wok)
							}
						}
					}
					if got, want := pol.Resident(), queue(); pol.Len() != len(want) || !slices.Equal(got, want) {
						t.Fatalf("trial %d op %d: Len %d, Resident %v; reference %v", trial, op, pol.Len(), got, want)
					}
				}
			}
		})
	}
}

// TestQueuePoliciesSteadyStateAllocs pins that a steady evict-and-map cycle
// on a full FIFO or second-chance queue reuses its backing array. One run
// is thousands of cycles, so a queue that reallocates once every len(q)
// cycles, or one that never compacts and keeps growing, still shows
// through AllocsPerRun's whole-number average.
func TestQueuePoliciesSteadyStateAllocs(t *testing.T) {
	for _, kind := range []stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance} {
		pol, err := stretchdrv.NewPolicy(kind)
		if err != nil {
			t.Fatal(err)
		}
		ps := fakePageState{}
		const n = 64
		for i := 0; i < n; i++ {
			va := vm.VA(i * vm.PageSize)
			pol.NoteMapped(va)
			ps[va] = i%3 == 0
		}
		cycle := 0
		evictAndMap := func() {
			va, _, ok := pol.Victim(ps)
			if !ok {
				t.Fatal("no victim")
			}
			pol.NoteMapped(va)
			ps[va] = cycle%3 == 0
			cycle++
		}
		for i := 0; i < 4*n; i++ {
			evictAndMap()
		}
		if a := testing.AllocsPerRun(5, func() {
			for i := 0; i < 4096; i++ {
				evictAndMap()
			}
		}); a != 0 {
			t.Errorf("%s: 4,096 steady evict-and-map cycles allocated %.0f times, want 0", kind, a)
		}
	}
}
