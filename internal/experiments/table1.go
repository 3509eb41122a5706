package experiments

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/baseline"
	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/vm"
)

// Table1Row is one line of the comparative micro-benchmark table. Values
// are microseconds per operation. AltUS is the bracketed protection-domain
// variant where the paper reports one (0 = not applicable).
type Table1Row struct {
	Name      string
	NemesisUS float64
	AltUS     float64
	OSF1US    float64
	// PaperNemesisUS/PaperOSF1US are the paper's published values, for
	// EXPERIMENTS.md's paper-vs-measured comparison.
	PaperNemesisUS, PaperAltUS, PaperOSF1US float64
}

// Table1 runs all six micro-benchmarks on the simulated Nemesis paths and
// composes the OSF1 comparison column from the baseline cost model. Each
// row warms its own premapped machine and measures on it, so every row
// starts from the same machine state.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range []string{"dirty", "(un)prot1", "(un)prot100", "trap", "appel1", "appel2"} {
		w, err := warmTable1()
		if err != nil {
			return nil, err
		}
		row, err := runTable1Row(w, name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1World is one warmed Table 1 world: the bench domain admitted, both
// stretches premapped, premap thread exited.
type table1World struct {
	sys     *core.System
	dom     *domain.Domain
	st, st1 *vm.Stretch
}

const table1Pages = 100
const table1Iters = 256

// warmTable1 boots the Table 1 machine and premaps both stretches in a
// thread that exits when done, leaving the world quiesced for one row.
func warmTable1() (*table1World, error) {
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 256
	sys := core.New(cfg)
	dom, err := sys.NewDomain("bench", atropos.QoS{P: 100 * time.Millisecond, S: 90 * time.Millisecond, X: true}, mem.Contract{Guaranteed: table1Pages + 8})
	if err != nil {
		return nil, err
	}
	st, _, err := sys.NewPhysicalStretch(dom, table1Pages*vm.PageSize)
	if err != nil {
		return nil, err
	}
	// A second single-page stretch for the prot1 benchmarks.
	st1, _, err := sys.NewPhysicalStretch(dom, vm.PageSize)
	if err != nil {
		return nil, err
	}
	warmed := false
	dom.Go("premap", func(t *domain.Thread) {
		if err := core.PreallocateFrames(t, table1Pages+1); err != nil {
			return
		}
		if err := t.Touch(st.Base(), table1Pages*vm.PageSize, vm.AccessWrite); err != nil {
			return
		}
		if err := t.Touch(st1.Base(), vm.PageSize, vm.AccessWrite); err != nil {
			return
		}
		warmed = true
	})
	deadline := sys.Sim.Now().Add(5 * time.Minute)
	for !warmed {
		if sys.Sim.Now() >= deadline {
			sys.Shutdown()
			return nil, fmt.Errorf("experiments: table1 premap stalled")
		}
		sys.Run(time.Second)
	}
	return &table1World{sys: sys, dom: dom, st: st, st1: st1}, nil
}

// runTable1Row measures one benchmark on a warmed world, consuming it. Each
// row is self-contained: it installs its own handlers and protections.
func runTable1Row(w *table1World, name string) (Table1Row, error) {
	sys, dom, st, st1 := w.sys, w.dom, w.st, w.st1
	const pages = table1Pages
	const iters = table1Iters
	costs := sys.CPU.Costs
	osf1 := baseline.DefaultOSF1Costs()
	ts := sys.TS
	var row Table1Row
	finished := false

	dom.Go("bench", func(t *domain.Thread) {
		rng := sys.Sim.Rand()
		perOp := func(fn func()) float64 {
			t0 := t.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			return t.Now().Sub(t0).Seconds() * 1e6 / iters
		}

		switch name {
		case "dirty":
			us := perOp(func() {
				va := st.PageBase(rng.Intn(pages))
				ts.IsDirty(va)
				t.Compute(costs.PTLookup)
			})
			row = Table1Row{Name: "dirty", NemesisUS: us, PaperNemesisUS: 0.15}

		case "(un)prot1":
			val := vm.Rights(vm.Read)
			us := perOp(func() {
				val ^= vm.Write
				n, _ := ts.ProtectPages(dom.PD(), st1, val)
				t.Compute(costs.SyscallOverhead + time.Duration(n)*costs.PTEUpdate)
			})
			val = vm.Read
			pd := perOp(func() {
				val ^= vm.Write
				changed, _ := ts.SetRights(dom.PD(), dom.PD(), st1.ID(), val|vm.Meta)
				if changed {
					t.Compute(costs.SyscallOverhead + costs.PDChange)
				} else {
					t.Compute(costs.IdempotentProt)
				}
			})
			row = Table1Row{
				Name: "(un)prot1", NemesisUS: us, AltUS: pd,
				OSF1US:         osf1.Prot(1).Seconds() * 1e6,
				PaperNemesisUS: 0.42, PaperAltUS: 0.40, PaperOSF1US: 3.36,
			}

		case "(un)prot100":
			val := vm.Rights(vm.Read)
			us := perOp(func() {
				val ^= vm.Write
				n, _ := ts.ProtectPages(dom.PD(), st, val)
				t.Compute(costs.SyscallOverhead + time.Duration(n)*costs.PTEUpdate)
			})
			val = vm.Read
			pd := perOp(func() {
				val ^= vm.Write
				changed, _ := ts.SetRights(dom.PD(), dom.PD(), st.ID(), val|vm.Meta)
				if changed {
					t.Compute(costs.SyscallOverhead + costs.PDChange)
				} else {
					t.Compute(costs.IdempotentProt)
				}
			})
			row = Table1Row{
				Name: "(un)prot100", NemesisUS: us, AltUS: pd,
				OSF1US:         osf1.Prot(100).Seconds() * 1e6,
				PaperNemesisUS: 10.78, PaperAltUS: 0.30, PaperOSF1US: 5.14,
			}

		case "trap":
			ts.GrantInitial(dom.PD(), st.ID(), vm.Read|vm.Write|vm.Execute|vm.Meta)
			dom.SetFaultHandler(vm.ProtectionFault, func(th *domain.Thread, f *vm.Fault) bool {
				ts.GrantInitial(dom.PD(), f.SID, vm.Read|vm.Write|vm.Execute|vm.Meta)
				return true
			})
			us := perOp(func() {
				ts.GrantInitial(dom.PD(), st.ID(), vm.Read|vm.Meta) // uncharged re-arm
				t.Touch(st.PageBase(rng.Intn(pages)), 1, vm.AccessWrite)
			})
			dom.SetFaultHandler(vm.ProtectionFault, nil)
			row = Table1Row{
				Name: "trap", NemesisUS: us,
				OSF1US:         osf1.Trap().Seconds() * 1e6,
				PaperNemesisUS: 4.20, PaperOSF1US: 10.33,
			}

		case "appel1":
			for i := 0; i < pages; i++ {
				ts.PageTable().Lookup(vm.PageOf(st.PageBase(i))).Prot = vm.Read
			}
			ts.GrantInitial(dom.PD(), st.ID(), vm.Read|vm.Meta) // PD grants read only
			prev := 0
			dom.SetFaultHandler(vm.ProtectionFault, func(th *domain.Thread, f *vm.Fault) bool {
				pte := ts.PageTable().Lookup(vm.PageOf(f.VA))
				pte.Prot = vm.Read | vm.Write
				th.Compute(costs.SyscallOverhead + costs.PTEUpdate)
				ts.PageTable().Lookup(vm.PageOf(st.PageBase(prev))).Prot = vm.Read
				th.Compute(costs.SyscallOverhead + costs.PTEUpdate)
				prev = int(vm.PageOf(f.VA) - vm.PageOf(st.Base()))
				return true
			})
			us := perOp(func() {
				t.Touch(st.PageBase(rng.Intn(pages)), 1, vm.AccessWrite)
			})
			dom.SetFaultHandler(vm.ProtectionFault, nil)
			row = Table1Row{
				Name: "appel1", NemesisUS: us,
				OSF1US:         osf1.Appel1().Seconds() * 1e6,
				PaperNemesisUS: 5.33, PaperOSF1US: 24.08,
			}

		case "appel2":
			frames := make(map[vm.VPN]mem.PFN, pages)
			dom.SetFaultHandler(vm.PageFault, func(th *domain.Thread, f *vm.Fault) bool {
				vpn := vm.PageOf(f.VA)
				if err := ts.Map(dom.PD(), dom.ID(), vpn.Base(), frames[vpn], vm.DefaultAttr()); err != nil {
					return false
				}
				th.Compute(costs.SyscallOverhead + costs.MapUnmap)
				return true
			})
			order := rng.Perm(pages)
			t0 := t.Now()
			for i := 0; i < pages; i++ {
				va := st.PageBase(i)
				pfn, _, err := ts.Unmap(dom.PD(), dom.ID(), va)
				if err != nil {
					return
				}
				frames[vm.PageOf(va)] = pfn
				t.Compute(costs.SyscallOverhead + costs.MapUnmap)
			}
			for _, pg := range order {
				if err := t.Touch(st.PageBase(pg), 1, vm.AccessWrite); err != nil {
					return
				}
			}
			us := t.Now().Sub(t0).Seconds() * 1e6 / pages
			dom.SetFaultHandler(vm.PageFault, nil)
			row = Table1Row{
				Name: "appel2", NemesisUS: us,
				OSF1US:         osf1.Appel2().Seconds() * 1e6,
				PaperNemesisUS: 9.75, PaperOSF1US: 19.12,
			}

		default:
			return
		}
		finished = true
	})

	sys.Run(5 * time.Minute)
	sys.Shutdown()
	if !finished {
		return Table1Row{}, fmt.Errorf("experiments: table1 row %q did not finish (sim %v)", name, sys.Sim.Now())
	}
	return row, nil
}

// FormatTable1 renders the rows like the paper's table.
func FormatTable1(rows []Table1Row) string {
	out := fmt.Sprintf("%-12s %12s %12s %12s   %s\n", "benchmark", "nemesis(us)", "[pd](us)", "osf1(us)", "paper: nemesis [pd] / osf1")
	for _, r := range rows {
		alt := "-"
		if r.AltUS > 0 {
			alt = fmt.Sprintf("%.2f", r.AltUS)
		}
		osf := "n/a"
		if r.OSF1US > 0 {
			osf = fmt.Sprintf("%.2f", r.OSF1US)
		}
		paperAlt := ""
		if r.PaperAltUS > 0 {
			paperAlt = fmt.Sprintf(" [%.2f]", r.PaperAltUS)
		}
		paperOSF := "n/a"
		if r.PaperOSF1US > 0 {
			paperOSF = fmt.Sprintf("%.2f", r.PaperOSF1US)
		}
		out += fmt.Sprintf("%-12s %12.2f %12s %12s   %.2f%s / %s\n",
			r.Name, r.NemesisUS, alt, osf, r.PaperNemesisUS, paperAlt, paperOSF)
	}
	return out
}
