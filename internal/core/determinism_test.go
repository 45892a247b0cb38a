package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"plum/internal/scenario"
)

// Regression for the event engine's deterministic reservation pass: the
// fat tree's shared up-links used to reserve in goroutine-scheduling
// order, making contended timings only approximately reproducible (the
// caveat the old msg package documented).  Now every reservation is
// processed in (time, rank, seq) order by the engine, so two runs must
// agree bitwise — whatever GOMAXPROCS is, and under -race (CI runs this
// package with -race in the determinism job).

// fatTreeStep runs the full Real_2 remap-before adaption step on the
// fat tree and returns its simulated phase times.
func fatTreeStep(t *testing.T, p int) StepStats {
	t.Helper()
	e := NewExperiments(false)
	if err := e.UseMachine("fattree"); err != nil {
		t.Fatal(err)
	}
	return e.RunStep(p, 0.33, true, MapHeuristic)
}

func requireIdenticalStats(t *testing.T, label string, a, b StepStats) {
	t.Helper()
	pairs := []struct {
		name string
		x, y float64
	}{
		{"MarkTime", a.MarkTime, b.MarkTime},
		{"PartitionTime", a.PartitionTime, b.PartitionTime},
		{"ReassignTime", a.ReassignTime, b.ReassignTime},
		{"RemapTime", a.RemapTime, b.RemapTime},
		{"RefineTime", a.RefineTime, b.RefineTime},
	}
	for _, c := range pairs {
		if c.x != c.y {
			t.Errorf("%s: %s = %x vs %x (must be bitwise identical)", label, c.name, c.x, c.y)
		}
	}
	if a.Counts != b.Counts || a.Moved != b.Moved {
		t.Errorf("%s: step outcomes diverged: %+v vs %+v", label, a, b)
	}
}

// TestFatTreeDeterministicAcrossGOMAXPROCS: contended fat-tree timings
// are a pure function of the program — the host's parallelism must not
// reach the simulated clocks.
func TestFatTreeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := fatTreeStep(t, 8)
	runtime.GOMAXPROCS(8)
	parallel := fatTreeStep(t, 8)
	requireIdenticalStats(t, "gomaxprocs 1 vs 8", serial, parallel)
}

// TestFatTreeDeterministicRepeat: back-to-back runs with fresh machine
// instances agree bitwise (fresh contention state per run).
func TestFatTreeDeterministicRepeat(t *testing.T) {
	requireIdenticalStats(t, "repeat", fatTreeStep(t, 8), fatTreeStep(t, 8))
}

// TestEpochPlansDeterministic: every kind of epoch plan — the measured
// feedback world (profile windows cut from a live trace, rates
// calibrated from it), scenarios whose machine wrappers switch state
// mid-run under both pricing modes, and served worlds with their
// cancellation checkpoints — is a pure function of its inputs.  Each
// runs at GOMAXPROCS 1, at GOMAXPROCS 8, and once more (fresh trace,
// fresh machine wrappers, fresh contention state) and must agree
// bitwise: the soundness condition of the goldens, the corpus ledgers,
// and the serve layer's content-addressed cache.
func TestEpochPlansDeterministic(t *testing.T) {
	served := func(ws WorldSpec) func(*testing.T) FeedbackRun {
		return func(t *testing.T) FeedbackRun {
			t.Helper()
			run, err := NewExperiments(false).RunWorldCtx(context.Background(), ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			return run
		}
	}
	scenarioKind := func(sp *scenario.Spec, measured bool) func(*testing.T) FeedbackRun {
		return func(t *testing.T) FeedbackRun { return runScenarioOnce(t, sp, measured) }
	}
	straggler, multijob := stragglerSpec(t), multijobSpec(t)
	small := *straggler // a served scenario need not be a large one
	small.Name, small.P = "det-straggler-p4", 4
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	shape := WorldSpec{P: 4, Cycles: 2, Mapper: MapHeuristic, Workload: WorkloadImplicit, Seed: 7}
	kinds := []struct {
		name string
		run  func(*testing.T) FeedbackRun // on a fresh harness
	}{
		// The smp cluster puts cheap intra-node links next to expensive
		// inter-node ones, so both calibration classes are observed.
		{"feedback/measured", func(t *testing.T) FeedbackRun { return runFeedback(t, 8, 3, "smp", true) }},
		{"straggler/analytic", scenarioKind(straggler, false)},
		{"straggler/measured", scenarioKind(straggler, true)},
		{"multijob/analytic", scenarioKind(multijob, false)},
		{"multijob/measured", scenarioKind(multijob, true)},
		{"served/shape", served(shape)},
		{"served/scenario", served(WorldSpec{Scenario: &small, Measured: true})},
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	bases := make(map[string]FeedbackRun)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, mode := range []struct {
				label string
				procs int
			}{{"gomaxprocs 1", 1}, {"gomaxprocs 8", 8}, {"repeat", 8}} {
				runtime.GOMAXPROCS(mode.procs)
				run := k.run(t)
				base, ok := bases[k.name]
				if !ok {
					bases[k.name] = run
					if len(run.Epochs) == 0 || run.SimTime <= 0 {
						t.Errorf("run shape: epochs=%d simtime=%v", len(run.Epochs), run.SimTime)
					}
					continue
				}
				requireIdenticalRuns(t, "gomaxprocs 1 vs "+mode.label, base, run)
			}
		})
	}

	// The base runs double as the measured loop's handshake checks: the
	// profile warms up after epoch 0, and — on the contended fat tree —
	// the traced measured run's unprofiled epoch 0 is the untraced
	// analytic run's.
	requireWarmedUp(t, bases["feedback/measured"])
	requireTracingObservesOnly(t, bases["multijob/analytic"], bases["multijob/measured"])

	// Distinct seeds are distinct simulations: the seed is part of the
	// served function, so it must be part of what the cache keys.
	shape.Seed = 8
	if other := served(shape)(t); reflect.DeepEqual(bases["served/shape"].Epochs, other.Epochs) {
		t.Error("seed 7 and seed 8 produced identical epochs")
	}
}
