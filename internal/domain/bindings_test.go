package domain

import (
	"math/rand"
	"slices"
	"testing"

	"nemesis/internal/vm"
)

// modelDriverList is driverList as it was over the map of bindings: the
// drivers in stretch-id order, each once.
func modelDriverList(m map[vm.StretchID]Driver) []Driver {
	seen := make(map[Driver]bool)
	var ids []vm.StretchID
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []Driver
	for _, id := range ids {
		if drv := m[id]; !seen[drv] {
			seen[drv] = true
			out = append(out, drv)
		}
	}
	return out
}

// A domain keeps its stretch-driver bindings as a slice ordered by stretch
// ID. Over seeded random binds, rebinds and unbinds, with fewer drivers
// than stretches so one driver serves several, it must agree with the map
// it replaced in DriverFor, Bindings and driverList.
func TestBindingsMatchMapModel(t *testing.T) {
	r := newRig()
	d := r.domain(t, "app", 4)
	const nst = 10
	var sts []*vm.Stretch
	for i := 0; i < nst; i++ {
		st, err := r.env.SA.New(d.ID(), vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	drvs := []Driver{&fixedDriver{}, &fixedDriver{}, &fixedDriver{}}
	rng := rand.New(rand.NewSource(36))
	m := map[vm.StretchID]Driver{}
	for step := 0; step < 2000; step++ {
		st := sts[rng.Intn(nst)]
		if rng.Intn(3) == 0 {
			d.Unbind(st.ID())
			delete(m, st.ID())
		} else {
			drv := drvs[rng.Intn(len(drvs))]
			d.Bind(st, drv)
			m[st.ID()] = drv
		}
		for _, st := range sts {
			if got, want := d.DriverFor(st.ID()), m[st.ID()]; got != want {
				t.Fatalf("step %d: DriverFor(%d) = %p, model %p", step, st.ID(), got, want)
			}
		}
		var want []Binding
		for _, st := range sts { // stretch IDs ascend with allocation
			if drv, ok := m[st.ID()]; ok {
				want = append(want, Binding{SID: st.ID(), Driver: drv})
			}
		}
		if got := d.Bindings(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Bindings = %v, model %v", step, got, want)
		}
		if got, want := d.driverList(), modelDriverList(m); !slices.Equal(got, want) {
			t.Fatalf("step %d: driverList = %v, model %v", step, got, want)
		}
	}
}
