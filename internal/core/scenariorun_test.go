package core

import (
	"testing"

	"plum/internal/scenario"
)

// The scenario plans inherit the engine's bitwise reproducibility:
// a (spec, pricing mode) pair must produce identical epochs whatever
// the host parallelism, even with the straggler and multi-job machine
// wrappers switching state mid-run (TestEpochPlansDeterministic); the
// full-corpus byte-level check (ledgers and stdout) lives in
// cmd/plumbench.

// stragglerSpec exercises the CycleSpeed wrapper: a transient slowdown
// window that the pre-run partitioner must not see.
func stragglerSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	sp := &scenario.Spec{
		Name: "det-straggler", Kind: scenario.KindStraggler, Model: "flat",
		P: 8, Cycles: 2, Frac: 0.12, CoarsenBelow: 0.05,
		Front:     &scenario.FrontSpec{X0: 0.25, X1: 0.75, Width: 0.17, Radius: 0.35},
		Straggler: &scenario.StragglerSpec{Ranks: []int{1}, Slowdown: 0.5, From: 1},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

// multijobSpec exercises the Background wrapper: injection-time-
// dependent up-link tolls on the fat tree.
func multijobSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	sp := &scenario.Spec{
		Name: "det-multijob", Kind: scenario.KindMultiJob, Model: "fattree",
		P: 8, Cycles: 2, Frac: 0.12, CoarsenBelow: 0.05,
		MultiJob: &scenario.MultiJobSpec{Period: 0.3, Duty: 0.5, Load: 4},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

// runScenarioOnce drives one (spec, pricing-mode) world on a fresh
// Experiments, unscheduled.
func runScenarioOnce(t *testing.T, sp *scenario.Spec, measured bool) FeedbackRun {
	t.Helper()
	e := NewExperiments(false)
	pl, err := e.scenarioPlan(sp, measured)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := e.runEpochs(pl, nil)
	return run
}

// TestScenarioStragglerChangesTimings: the transient slowdown must
// actually reach the simulated clocks — the same spec without its
// straggler section finishes faster.  Guards against the wrapper
// silently never being consulted.
func TestScenarioStragglerChangesTimings(t *testing.T) {
	slow := stragglerSpec(t)
	fast := *slow
	fast.Name = "det-nostraggler"
	fast.Kind = scenario.KindFront
	fast.Straggler = nil
	if err := fast.Validate(); err != nil {
		t.Fatal(err)
	}
	a := runScenarioOnce(t, slow, false)
	b := runScenarioOnce(t, &fast, false)
	if a.SimTime <= b.SimTime {
		t.Errorf("straggler run (%v s) not slower than unimpaired run (%v s)",
			a.SimTime, b.SimTime)
	}
}

// TestParseMapper: the one mapper-name table — the names scenario specs
// and serve requests share map onto the core constants, and anything
// else is an error, never a silent heuristic.
func TestParseMapper(t *testing.T) {
	want := map[string]Mapper{
		"heu": MapHeuristic, "opt": MapOptMWBG, "bmcm": MapOptBMCM,
		"topo": MapTopo, "": MapHeuristic,
	}
	for name, m := range want {
		if got, err := ParseMapper(name); err != nil || got != m {
			t.Errorf("ParseMapper(%q) = %v, %v; want %v", name, got, err, m)
		}
	}
	if m, err := ParseMapper("magic"); err == nil {
		t.Errorf("ParseMapper(\"magic\") = %v, want an error", m)
	}
}
