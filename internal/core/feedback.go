package core

import (
	"bytes"

	"plum/internal/machine"
	"plum/internal/obs"
)

// The measured-cost feedback experiment: the same unsteady implicit run
// driven twice per topology — once with the paper's analytic gain/cost
// pricing, once with the measured-cost loop (each epoch's decision
// priced by the previous epoch's event-trace profile).  Both runs see
// identical meshes, indicators, and machine models; the only degree of
// freedom is which epochs rebalance.  Comparing them answers the
// question the ROADMAP's event-engine follow-up poses: does pricing
// remapping against measured waits change the decision, and is the
// changed decision any good (end-to-end simulated time)?

// FeedbackEpoch is one adaption epoch of a feedback run.
type FeedbackEpoch struct {
	Cycle     int
	Balanced  bool    // evaluation step skipped the repartition
	Accepted  bool    // new mapping adopted
	Measured  bool    // decision priced from a profile (epoch 0 never is)
	Gain      float64 // gain side as the decision priced it
	Cost      float64 // cost side as the decision priced it
	TotalV    int64   // moved weight of the candidate assignment (CTotal)
	MaxV      int64   // bottleneck moved weight (CMax)
	Elems     int     // global mesh size after the epoch
	SolveTime float64 // simulated solve-phase seconds, max over ranks
}

// FeedbackRun is one complete unsteady run under one pricing mode.
type FeedbackRun struct {
	Model    string
	Measured bool
	Epochs   []FeedbackEpoch
	SimTime  float64 // end-to-end simulated makespan of the whole run

	// recs are the run's ledger records (rank 0; only when e.Obs is
	// set) and spans its serialized span stream (only when e.Spans is
	// set).  The fan-out that scheduled the world flushes both after its
	// barrier (Experiments.flush) so ledger and span-file order is
	// deterministic.
	recs  []obs.EpochRecord
	spans *bytes.Buffer
}

// FeedbackPair is the analytic/measured comparison on one topology.
type FeedbackPair struct {
	Analytic, Measured FeedbackRun
}

// DecisionDiffs counts epochs where the two runs decided differently
// (balanced/accepted outcome, not the prices).
func (fp FeedbackPair) DecisionDiffs() int {
	n := len(fp.Analytic.Epochs)
	if len(fp.Measured.Epochs) < n {
		n = len(fp.Measured.Epochs)
	}
	diffs := 0
	for i := 0; i < n; i++ {
		a, m := fp.Analytic.Epochs[i], fp.Measured.Epochs[i]
		if a.Accepted != m.Accepted || a.Balanced != m.Balanced {
			diffs++
		}
	}
	return diffs
}

// feedbackPlan resolves one feedback world: cycles unsteady implicit
// epochs on p ranks of the named machine under the given pricing mode.
func (e *Experiments) feedbackPlan(p, cycles int, model string, measured bool) (epochPlan, error) {
	topo, err := machine.ByName(model, p)
	if err != nil {
		return epochPlan{}, err
	}
	pl := epochPlan{
		exp: "feedback", model: model, p: p, cycles: cycles,
		cfg:          e.decisionConfig(),
		indicator:    e.movingShock(cycles, 0.25),
		frac:         constFrac(0.12),
		coarsenBelow: 0.05,
	}
	pl.cfg.Measured = measured
	pl.topo = topo
	return pl, nil
}

// FeedbackComparison runs the analytic and measured modes on every
// named topology.  Each (topology, pricing-mode) epoch sweep is an
// independent world; all 2*len(models) run concurrently.  With e.Obs
// set the ledger receives every run's epochs after the barrier, in
// (model, analytic-then-measured) order.
func (e *Experiments) FeedbackComparison(p, cycles int, models []string) []FeedbackPair {
	return e.runPairs(len(models), func(i int, measured bool) (epochPlan, error) {
		return e.feedbackPlan(p, cycles, models[i], measured)
	})
}

// The reduced-scale feedback experiment's shape: enough epochs for the
// moving feature to force several rebalancing decisions after the
// profile warms up (epoch 0 is always analytic).
const (
	DefaultFeedbackCycles = 4
	DefaultFeedbackProcs  = 8
)

// FeedbackModels returns the topologies the feedback experiment
// compares: the two where per-pair pricing and contention make the
// analytic estimate least trustworthy.
func FeedbackModels() []string { return []string{"smp", "fattree"} }
