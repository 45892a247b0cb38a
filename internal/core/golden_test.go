package core

import (
	"testing"

	"plum/internal/machine"
)

// Golden regression: the machine subsystem must be a behavioral no-op
// when no topology is selected.  The constants below are the simulated
// phase times of the reduced-scale Real_2 remap-before step recorded on
// the pre-machine-layer tree (hex float literals, so the comparison is
// bitwise).  Simulated time is fully deterministic — goroutine
// scheduling never reaches the clocks — so any drift here means the
// default cost path changed.
//
// The float arithmetic is unfused on amd64; a platform that contracts
// a*b+c into FMA could legitimately differ in the last bit.  CI runs
// on amd64, matching the recording.
type goldenStep struct {
	p                             int
	mark, part, reassign          float64
	remapT, refine                float64
	elems                         int
	wOldMax, wNewMax, movedCTotal int64
}

var goldenSteps = []goldenStep{
	{
		p:    4,
		mark: 0x1.9a5aae89b46dcp-07, part: 0x1.bc5e42b7bbb16p-05,
		reassign: 0x1.29cf81198ec4p-09, remapT: 0x1.ec8f16391503p-07,
		refine: 0x1.e6d73a0e18c7p-08,
		elems:  15024, wOldMax: 6216, wNewMax: 3908, movedCTotal: 1325,
	},
	{
		p:    8,
		mark: 0x1.426764ef30853p-06, part: 0x1.e10eb5992363ep-05,
		reassign: 0x1.c8c651c5e4p-10, remapT: 0x1.6803498b8f42p-07,
		refine: 0x1.0989ec7d6c3cp-08,
		elems:  15024, wOldMax: 3424, wNewMax: 1965, movedCTotal: 1568,
	},
}

func checkGolden(t *testing.T, label string, st StepStats, g goldenStep) {
	t.Helper()
	times := []struct {
		name      string
		got, want float64
	}{
		{"MarkTime", st.MarkTime, g.mark},
		{"PartitionTime", st.PartitionTime, g.part},
		{"ReassignTime", st.ReassignTime, g.reassign},
		{"RemapTime", st.RemapTime, g.remapT},
		{"RefineTime", st.RefineTime, g.refine},
	}
	for _, c := range times {
		if c.got != c.want {
			t.Errorf("%s P=%d %s = %x, want %x (bitwise)", label, g.p, c.name, c.got, c.want)
		}
	}
	if st.Counts.Elems != g.elems {
		t.Errorf("%s P=%d Elems = %d, want %d", label, g.p, st.Counts.Elems, g.elems)
	}
	if st.WOldMax != g.wOldMax || st.WNewMax != g.wNewMax {
		t.Errorf("%s P=%d loads = %d/%d, want %d/%d", label, g.p, st.WOldMax, st.WNewMax, g.wOldMax, g.wNewMax)
	}
	if st.Moved.CTotal != g.movedCTotal {
		t.Errorf("%s P=%d CTotal = %d, want %d", label, g.p, st.Moved.CTotal, g.movedCTotal)
	}
}

// TestGoldenDefaultPath pins the no-topology (pre-machine-layer) cost
// path against the recorded constants.
func TestGoldenDefaultPath(t *testing.T) {
	e := NewExperiments(false)
	for _, g := range goldenSteps {
		checkGolden(t, "default", e.RunStep(g.p, 0.33, true, MapHeuristic), g)
	}
}

// TestGoldenFlatTopology: selecting the explicit "flat" machine model
// must reproduce the same constants bitwise — machine.Flat built from
// SP2Link charges exactly what the scalar model charges, end to end
// through the full adaption pipeline.
func TestGoldenFlatTopology(t *testing.T) {
	e := NewExperiments(false)
	if err := e.UseMachine("flat"); err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenSteps {
		checkGolden(t, "flat", e.RunStep(g.p, 0.33, true, MapHeuristic), g)
	}
}

// TestFlatTopologyDecisionNoOp covers the branch the golden constants
// cannot: with ForceAccept=false the gain-vs-cost decision runs, and a
// uniform topology must take the scalar pricing path, so every
// statistic — including Accepted — matches the default machine exactly.
func TestFlatTopologyDecisionNoOp(t *testing.T) {
	run := func(flat bool) StepStats {
		e := NewExperiments(false)
		e.Cfg.ForceAccept = false
		e.Cfg.NAdapt = 1 // small gain: the decision is near its threshold
		if flat {
			if err := e.UseMachine("flat"); err != nil {
				t.Fatal(err)
			}
		}
		return e.RunStep(8, 0.33, true, MapHeuristic)
	}
	def, flat := run(false), run(true)
	if def.Accepted != flat.Accepted {
		t.Fatalf("accept decision diverged: default %v, flat topology %v", def.Accepted, flat.Accepted)
	}
	if def.RemapTime != flat.RemapTime || def.RefineTime != flat.RefineTime ||
		def.ReassignTime != flat.ReassignTime {
		t.Errorf("phase times diverged: default %+v, flat %+v", def, flat)
	}
}

// TestUseMachineValidates: unknown names are rejected up front and the
// empty name resolves to the flat SP2 machine without renaming the
// harness's selection or touching its shared model.
func TestUseMachineValidates(t *testing.T) {
	e := NewExperiments(false)
	if err := e.UseMachine("hypercube"); err == nil {
		t.Error("unknown machine name accepted")
	}
	for _, name := range machine.Names() {
		if err := e.UseMachine(name); err != nil {
			t.Errorf("UseMachine(%q): %v", name, err)
		}
	}
	if err := e.UseMachine(""); err != nil {
		t.Fatal(err)
	}
	mod, _ := e.onMachine(4, mustMachine(e.ModelName, 4))
	flat, ok := mod.Topo.(*machine.Flat)
	if !ok || flat.Ranks() != 4 || flat.Pair(0, 1) != machine.SP2Link() {
		t.Errorf("empty name resolved to %#v, want a 4-rank flat SP2", mod.Topo)
	}
	if e.ModelName != "" || e.Model.Topo != nil {
		t.Errorf("resolution leaked into the harness: ModelName %q, Model.Topo %v", e.ModelName, e.Model.Topo)
	}
}
