package core

import (
	"bytes"

	"plum/internal/adapt"
	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/remap"
	"plum/internal/scenario"
	"plum/internal/solver"
)

// The epoch runner: the outer loop of the paper's Fig. 1 — solve,
// adapt, evaluate, repartition, reassign, price gain against cost,
// remap — driven for a number of epochs in one simulated world.  Every
// epoch-driving experiment (the feedback comparison, the scenario
// corpus, a served request, the implicit scaling study) is an epochPlan
// value run through runEpochs; what distinguishes them is data on the
// plan, never a second loop.

// epochPlan is one fully resolved epoch-driven world.
type epochPlan struct {
	// exp and model key the world's ledger records and span stream;
	// model also names the run.  An empty exp leaves the world
	// unrecorded whatever sinks the harness carries: a served world has
	// no experiment key in the process-wide ledger's namespace.
	exp, model string
	p, cycles  int

	// topo is the machine the world runs on, a private instance;
	// runEpochs places the world on it (onMachine).
	topo machine.Model
	// cfg is the driver configuration, complete except for Topo and
	// Observe, which runEpochs derives from topo and the sinks: the
	// decision always prices with the topology the world runs on.
	cfg Config

	indicator    func(i int) func(mesh.Vec3) float64
	frac         func(i int) float64 // marked-edge fraction of epoch i
	coarsenBelow float64

	// barrier opens every epoch with a world barrier, after which dyn
	// (when non-nil) switches the straggler speeds to the new cycle: no
	// rank can still be computing its previous epoch under the old
	// speeds.  The barrier's messages are part of the world's simulated
	// schedule, so whether a plan has one is pinned by its goldens — it
	// is never inferred.
	barrier bool
	dyn     *scenario.CycleSpeed
	// stop, when non-nil, is the cooperative cancellation hook: agreed
	// collectively after each epoch barrier and, through Unsteady.Stop,
	// between solver iterations.  The agreement collectives run whether
	// or not the hook fires, so — like barrier — stop != nil is part of
	// what the simulated clocks are a function of.
	stop func() bool
}

// decisionConfig is the implicit workload in the regime where the
// gain/cost decision is sensitive to how it is priced, with the
// decision live (no ForceAccept).
func (e *Experiments) decisionConfig() Config {
	cfg := e.implicitConfig()
	cfg.ForceAccept = false
	// One solver step between adaptions puts the analytic gain — Titer,
	// a constant calibrated for the explicit solver — in the same range
	// as the redistribution cost, which is exactly where the decision is
	// sensitive to pricing: the implicit workload's real per-iteration
	// time is several times the constant, and only the measured loop can
	// see that.
	cfg.NAdapt = 1
	// An implicit element migrates with its CSR matrix rows and
	// preconditioner state on top of the Section 4.5 solver+adaptor
	// words, so its payload is roughly three elements' worth.
	cfg.Machine.M *= 3
	return cfg
}

// useMapper selects the reassignment algorithm together with the
// redistribution metric it optimizes: the bottleneck mappers minimize
// MaxV, so the decision must price MaxV too.
func (cfg *Config) useMapper(m Mapper) {
	cfg.Mapper = m
	if m == MapOptBMCM || m == MapTopo {
		cfg.Metric = remap.MaxV
	}
}

// movingShock returns the indicator sequence of the feedback and served
// runs: a shock cylinder that starts at start (a fraction of the
// domain's x extent) and advances half the domain over the run, so the
// refined region — and with it the imbalance the balancer must judge —
// shifts every epoch.
func (e *Experiments) movingShock(cycles int, start float64) func(i int) func(mesh.Vec3) float64 {
	den := cycles - 1
	if den < 1 {
		den = 1
	}
	return func(i int) func(mesh.Vec3) float64 {
		x := (start + 0.5*float64(i)/float64(den)) * e.LX
		return adapt.ShockCylinderIndicator(
			mesh.Vec3{x, e.LY / 2, 0}, mesh.Vec3{0, 0, 1},
			0.35*e.LY, 0.17*e.LY)
	}
}

// constFrac marks the same fraction of edges every epoch.
func constFrac(f float64) func(int) float64 { return func(int) float64 { return f } }

// runEpochs drives one world per the plan and reports every completed
// epoch's decision; each, when non-nil, also sees every completed epoch
// on rank 0, from inside the world.  stopped reports that the plan's
// stop hook ended the run early: the epochs before the checkpoint are
// intact.  The world executes traced when something reads the trace —
// the measured-cost loop, the ledger, the span sink — and tracing never
// touches a simulated clock, so pricing modes diverge only where their
// decisions do.
//
// runEpochs does not schedule: its caller passes the world through
// runWorlds, exactly once.  With sinks attached the run carries its
// ledger records and span stream back for the caller to flush after
// the fan-out's barrier (Experiments.flush).
func (e *Experiments) runEpochs(pl epochPlan, each func(FeedbackEpoch, CycleStats, *pmesh.DistMesh)) (run FeedbackRun, stopped bool) {
	ledger, spans := e.Obs, e.Spans
	if pl.exp == "" {
		ledger, spans = nil, nil
	}
	mod, initPart := e.onMachine(pl.p, pl.topo)
	cfg := pl.cfg
	cfg.Topo = pl.topo
	cfg.Observe = ledger != nil || spans != nil
	run = FeedbackRun{Model: pl.model, Measured: cfg.Measured}
	mode := remap.Analytic{}.Name() // the run's pricing, once a profile exists
	if cfg.Measured {
		mode = remap.Measured{}.Name()
	}
	// The span stream: rank 0 writes each cycle's window, which the cut
	// takes out of the trace, and the spans the trace still holds after
	// the last cut close the stream.
	var sl *event.SpanLog
	if spans != nil {
		run.spans = new(bytes.Buffer)
		sl = event.NewSpanLog(run.spans, pl.p, spanLabel(pl.exp, pl.model, mode, pl.p))
	}
	body := func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, initPart, solver.NComp)
		u := NewUnsteady(d, e.Dual, cfg)
		u.Stop = pl.stop
		u.CoarsenBelow = pl.coarsenBelow
		u.Indicator = pl.indicator
		u.PS.InitParallel(solver.GaussianPulse(
			mesh.Vec3{e.LX / 2, e.LY / 2, 0.6}, 0.5))
		for i := 0; i < pl.cycles; i++ {
			if pl.barrier {
				c.Barrier()
				if pl.dyn != nil {
					// Idempotent, single-token-serialized writes.
					pl.dyn.SetCycle(i)
				}
				if pl.stop != nil && CollectiveStop(c, pl.stop) {
					stopped = true
					return
				}
			}
			u.Frac = pl.frac(i)
			cs := u.Cycle()
			if sl != nil && c.Rank() == 0 {
				sl.Cut(cs.Spans, cs.Blame)
			}
			if cs.Stopped {
				stopped = true
				return
			}
			if c.Rank() != 0 {
				continue
			}
			row := FeedbackEpoch{
				Cycle:     i,
				Balanced:  cs.Step.Balanced,
				Accepted:  cs.Step.Accepted,
				Measured:  cs.Step.Pricing == remap.Measured{}.Name(),
				Gain:      cs.Step.Gain,
				Cost:      cs.Step.Cost,
				TotalV:    cs.Step.Moved.CTotal,
				MaxV:      cs.Step.Moved.CMax,
				Elems:     cs.Step.Counts.Elems,
				SolveTime: cs.SolverTime,
			}
			run.Epochs = append(run.Epochs, row)
			if ledger != nil {
				run.recs = append(run.recs, epochRecord(
					pl.exp, pl.model, mode,
					pl.p, i, cs, partition.EdgeCut(e.Dual, d.RootOwner)))
			}
			if each != nil {
				each(row, cs, d)
			}
		}
	}
	var times []float64
	if cfg.Measured || cfg.Observe {
		var tr *event.Trace
		times, tr = msg.RunTraced(pl.p, mod, body)
		if sl != nil {
			// A bytes.Buffer sink cannot fail.
			_ = sl.Close(tr.Spans)
		}
	} else {
		times = msg.RunModel(pl.p, mod, body)
	}
	run.SimTime = msg.MaxTime(times)
	return run, stopped
}

// flush hands a finished world's ledger records and span stream to the
// harness's sinks.  Worlds race, so callers flush after the fan-out's
// barrier, in loop order: ledgers and span files are then deterministic.
func (e *Experiments) flush(run *FeedbackRun) {
	if e.Obs != nil {
		e.Obs.Add(run.recs...)
	}
	e.Spans.flush(run.spans)
}

// runPairs runs n analytic/measured world pairs — plan(i, measured)
// resolves pair i's world, each with its own machine instance — all 2n
// concurrently, and flushes their sinks in (pair,
// analytic-then-measured) order.
func (e *Experiments) runPairs(n int, plan func(i int, measured bool) (epochPlan, error)) []FeedbackPair {
	plans := make([]epochPlan, 2*n)
	for i := range plans {
		pl, err := plan(i/2, i%2 == 1)
		if err != nil {
			panic(err) // unreachable: callers pass validated names and specs
		}
		plans[i] = pl
	}
	runs := mustRunWorlds(plans, func(pl epochPlan) FeedbackRun {
		run, _ := e.runEpochs(pl, nil)
		return run
	})
	pairs := make([]FeedbackPair, n)
	for i := range pairs {
		pairs[i] = FeedbackPair{Analytic: runs[2*i], Measured: runs[2*i+1]}
		e.flush(&pairs[i].Analytic)
		e.flush(&pairs[i].Measured)
	}
	return pairs
}
