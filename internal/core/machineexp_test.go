package core

import (
	"testing"

	"plum/internal/machine"
)

// TestMachineSweepTopoBeatsHeuristic pins the acceptance property of
// the machine experiment: on the SMP cluster the topology-aware mapper
// achieves strictly lower hop-weighted MaxV than the hop-oblivious
// heuristic (at processor counts spanning more than one node), and is
// never worse on any topology.
func TestMachineSweepTopoBeatsHeuristic(t *testing.T) {
	if testing.Short() {
		t.Skip("full adaption pipeline per (topology, P, mapper)")
	}
	e := NewExperiments(false)
	e.Ps = []int{8, 16}
	rows := e.MachineSweep(0.33, machine.Names(), MachineMappers())
	if len(rows) != len(machine.Names())*2*2 {
		t.Fatalf("sweep produced %d rows", len(rows))
	}
	find := func(model string, p int, m Mapper) MachineRow {
		for _, r := range rows {
			if r.Model == model && r.P == p && r.Mapper == m {
				return r
			}
		}
		t.Fatalf("row (%s, %d, %v) missing", model, p, m)
		return MachineRow{}
	}
	for _, name := range machine.Names() {
		for _, p := range e.Ps {
			heu := find(name, p, MapHeuristic)
			topo := find(name, p, MapTopo)
			if topo.HopMaxV > heu.HopMaxV {
				t.Errorf("%s P=%d: MapTopo HopMaxV %d worse than HeuMWBG %d",
					name, p, topo.HopMaxV, heu.HopMaxV)
			}
			if heu.RemapTime <= 0 || topo.RemapTime <= 0 {
				t.Errorf("%s P=%d: missing simulated remap times", name, p)
			}
		}
	}
	// The headline claim, strict: multiple SMP nodes give the hop-aware
	// mapper room the greedy mapper cannot see.
	for _, p := range e.Ps {
		heu, topo := find("smp", p, MapHeuristic), find("smp", p, MapTopo)
		if topo.HopMaxV >= heu.HopMaxV {
			t.Errorf("smp P=%d: MapTopo HopMaxV %d not strictly below HeuMWBG %d",
				p, topo.HopMaxV, heu.HopMaxV)
		}
	}
	// An SMP cluster's cheap intra-node links must make the same
	// migration cheaper than on the flat machine.
	for _, p := range e.Ps {
		if smp, flat := find("smp", p, MapHeuristic), find("flat", p, MapHeuristic); smp.RemapTime >= flat.RemapTime {
			t.Errorf("P=%d: smp migration %.4fs not cheaper than flat %.4fs",
				p, smp.RemapTime, flat.RemapTime)
		}
	}
}

// TestMachineSweepIgnoresHarnessModel: every topology row starts from
// its own machine's partition, so the harness's -model selection moves
// no row — the flat rows stay on equal shares and the hetero rows on
// speed-scaled ones either way.
func TestMachineSweepIgnoresHarnessModel(t *testing.T) {
	sweep := func(model string) []MachineRow {
		e := NewExperiments(false)
		e.Ps = []int{8}
		if err := e.UseMachine(model); err != nil {
			t.Fatal(err)
		}
		return e.MachineSweep(0.33, []string{"flat", "hetero"}, MachineMappers())
	}
	plain, hetero := sweep(""), sweep("hetero")
	if len(plain) != len(hetero) {
		t.Fatalf("row counts differ: %d vs %d", len(plain), len(hetero))
	}
	for i := range plain {
		if plain[i] != hetero[i] {
			t.Errorf("row %d moved with -model hetero:\n  default: %+v\n  hetero:  %+v",
				i, plain[i], hetero[i])
		}
	}
}
