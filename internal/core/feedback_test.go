package core

import (
	"math"
	"testing"
)

// The measured-cost loop adds two new ingredients to the decision path —
// profile windows cut from a live trace and rates calibrated from it —
// and both must inherit the event engine's guarantee: bitwise
// reproducible, whatever the host's parallelism (pinned for every plan
// kind by TestEpochPlansDeterministic).

// runFeedback drives one feedback world on a fresh harness, unscheduled.
func runFeedback(t *testing.T, p, cycles int, model string, measured bool) FeedbackRun {
	t.Helper()
	e := NewExperiments(false)
	pl, err := e.feedbackPlan(p, cycles, model, measured)
	if err != nil {
		t.Fatal(err)
	}
	run, _ := e.runEpochs(pl, nil)
	return run
}

func requireIdenticalRuns(t *testing.T, label string, a, b FeedbackRun) {
	t.Helper()
	if a.SimTime != b.SimTime {
		t.Errorf("%s: SimTime %x vs %x (must be bitwise identical)", label, a.SimTime, b.SimTime)
	}
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("%s: epoch counts %d vs %d", label, len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		x, y := a.Epochs[i], b.Epochs[i]
		if x != y {
			t.Errorf("%s: epoch %d diverged:\n  %+v\n  %+v", label, i, x, y)
		}
		if math.Float64bits(x.Gain) != math.Float64bits(y.Gain) ||
			math.Float64bits(x.Cost) != math.Float64bits(y.Cost) {
			t.Errorf("%s: epoch %d prices not bitwise: gain %x/%x cost %x/%x",
				label, i, x.Gain, y.Gain, x.Cost, y.Cost)
		}
	}
}

// requireWarmedUp: in a measured-mode run epoch 0 must price
// analytically (no profile exists yet) and later epochs must price from
// measurement — the loop's defining handshake.
func requireWarmedUp(t *testing.T, run FeedbackRun) {
	t.Helper()
	if len(run.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	if run.Epochs[0].Measured {
		t.Error("epoch 0 claims a measured decision before any profile exists")
	}
	sawMeasured := false
	for _, ep := range run.Epochs[1:] {
		if ep.Balanced {
			continue
		}
		if !ep.Measured {
			t.Errorf("epoch %d repartitioned but priced analytically in measured mode", ep.Cycle)
		}
		sawMeasured = true
	}
	if !sawMeasured {
		t.Error("no epoch exercised the measured pricing (run too balanced?)")
	}
}

// requireTracingObservesOnly: tracing observes, never perturbs.  The
// measured run executes traced but has no profile at epoch 0, so its
// first epoch must match the untraced analytic run's bitwise — the
// bridge between pre-feedback behaviour and this tree.
func requireTracingObservesOnly(t *testing.T, a, m FeedbackRun) {
	t.Helper()
	if len(a.Epochs) == 0 || len(m.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	if a.Epochs[0] != m.Epochs[0] {
		t.Errorf("epoch 0 diverged between untraced and traced runs:\n  %+v\n  %+v",
			a.Epochs[0], m.Epochs[0])
	}
	if a.Epochs[0].Measured || a.Epochs[len(a.Epochs)-1].Measured {
		t.Error("analytic run reports measured decisions")
	}
}
