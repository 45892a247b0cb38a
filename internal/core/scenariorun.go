package core

import "plum/internal/scenario"

// The scenario harness: each scenario.Spec is driven exactly like a
// feedback run — the same unsteady implicit epochs, executed once under
// analytic pricing and once under the measured-cost loop — but with the
// indicator sequence, the marked-fraction schedule, the mapper, and the
// machine wrappers all taken from the spec.  A scenario run is a pure
// function of (mesh, spec, pricing mode), so its ledger is bitwise
// reproducible and the committed corpus under ci/scenarios doubles as
// the balancer's regression suite.

// ScenarioPair is one scenario's analytic/measured comparison.
type ScenarioPair struct {
	Spec *scenario.Spec
	FeedbackPair
}

// scenarioExp is the ledger experiment key of a scenario run: the
// prefix keeps scenario RunKeys disjoint from every other experiment's.
func scenarioExp(sp *scenario.Spec) string { return "scenario/" + sp.Name }

// scenarioPlan resolves one scenario under one pricing mode: the
// feedback experiment's implicit workload and decision-sensitive regime
// with the spec supplying the dynamics —
//
//   - the indicator advances per the front schedule (Spec.Indicator),
//   - the marked fraction follows the burst schedule (Spec.FracAt),
//   - straggler speeds switch at epoch boundaries (epochPlan.dyn),
//   - multi-job background load rides inside the machine's Acquire.
//
// The partitioner's speed targets are derived here, before the run,
// when a straggler wrapper still reports cycle -1 (no slowdown): the
// balancer starts blind to the transient, exactly the regime where
// analytic and measured pricing can disagree.
func (e *Experiments) scenarioPlan(sp *scenario.Spec, measured bool) (epochPlan, error) {
	topo, dyn, err := sp.BuildMachine()
	if err != nil {
		return epochPlan{}, err
	}
	mapper, err := ParseMapper(sp.Mapper)
	if err != nil {
		return epochPlan{}, err
	}
	pl := epochPlan{
		exp: scenarioExp(sp), model: sp.Model, p: sp.P, cycles: sp.Cycles, measured: measured,
		cfg:          e.decisionConfig(),
		indicator:    sp.Indicator(scenario.Domain{LX: e.LX, LY: e.LY}),
		frac:         sp.FracAt,
		coarsenBelow: sp.CoarsenBelow,
		barrier:      true,
		dyn:          dyn,
	}
	pl.cfg.useMapper(mapper)
	pl.topo = topo
	return pl, nil
}

// Scenarios runs the analytic/measured pair for every spec.  Each
// (spec, pricing-mode) sweep is an independent world; all 2*len(specs)
// run concurrently under the runWorlds bound.  With e.Obs set the
// ledger receives every run's epochs after the barrier, in (spec,
// analytic-then-measured) order — deterministic even though the worlds
// race.
func (e *Experiments) Scenarios(specs []*scenario.Spec) []ScenarioPair {
	runs := e.runPairs(len(specs), func(i int, measured bool) (epochPlan, error) {
		return e.scenarioPlan(specs[i], measured)
	})
	pairs := make([]ScenarioPair, len(specs))
	for i, sp := range specs {
		pairs[i] = ScenarioPair{Spec: sp, FeedbackPair: runs[i]}
	}
	return pairs
}
