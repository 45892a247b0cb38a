package core

import (
	"plum/internal/linalg"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

// Implicit-workload experiments: the preconditioned-CG solver between
// adaptions turns the partition-quality metrics (edge cut, CommVolume)
// into directly measurable simulated communication time, because every
// PCG iteration performs a halo exchange and three global reductions.

// ImplicitRow is one processor count of the implicit scaling study.
type ImplicitRow struct {
	P            int
	PCGIters     int     // PCG iterations in the final cycle (identical on all ranks)
	Converged    bool    // all solves hit the 1e-8 tolerance
	SolverTime   float64 // simulated seconds in the PCG solve phase
	AdaptTime    float64 // mark + refine
	RemapTime    float64 // data migration
	WorkBalance  float64 // sum(work)/(P*max(work))
	EdgeCut      int64   // final partition edge cut (dual graph)
	CommVolume   int64   // final partition communication volume
	GlobalElems  int     // mesh size after the final cycle
	GlobalIters  int     // total PCG iterations across all cycles
	MassDiagnost float64 // conservation-style diagnostic after the run
}

// implicitConfig returns the driver configuration of the implicit
// workload experiments: few, expensive solver steps per cycle.
func (e *Experiments) implicitConfig() Config {
	cfg := e.Cfg
	cfg.Workload = WorkloadImplicit
	cfg.NAdapt = 2
	return cfg
}

// ImplicitScaling drives the full solve->adapt->balance cycle under the
// implicit workload for every processor count.  The PCG iteration
// counts are bitwise identical across P (the determinism guarantee of
// internal/linalg); what changes with P is the simulated time those
// iterations cost — the communication the load balancer is minimizing.
//
// With e.Obs set every world runs traced and each cycle lands in the
// ledger as one epoch record; the per-world record slices flush after
// the barrier, in P order, so ledgers are deterministic even though the
// worlds race.
func (e *Experiments) ImplicitScaling(cycles int) []ImplicitRow {
	ind := e.Indicator()
	e.prewarmPartitions(e.Ps)
	rows := make([]ImplicitRow, len(e.Ps))
	runs := make([]FeedbackRun, len(e.Ps))
	mustRunWorlds(len(e.Ps), func(i int) {
		p := e.Ps[i]
		pl := epochPlan{
			exp: "implicit", model: e.ModelName, p: p, cycles: cycles, measured: e.Measured,
			mod:       e.modelFor(p),
			initPart:  e.initialPartition(p),
			cfg:       e.implicitConfig(),
			indicator: func(int) func(mesh.Vec3) float64 { return ind },
			frac:      constFrac(0.10),
		}
		if e.Measured {
			// Measured-cost loop: decisions gate on the previous epoch's
			// profile instead of always remapping.
			pl.cfg.ForceAccept = false
		}
		row := ImplicitRow{P: p, Converged: true}
		runs[i], _ = e.runEpochs(pl, func(ep FeedbackEpoch, cs CycleStats, d *pmesh.DistMesh) {
			row.GlobalIters += cs.PCGIters
			row.Converged = row.Converged && cs.PCGConverged
			if ep.Cycle < cycles-1 {
				return
			}
			row.PCGIters = cs.PCGIters
			row.SolverTime = cs.SolverTime
			row.AdaptTime = cs.Step.MarkTime + cs.Step.RefineTime
			row.RemapTime = cs.Step.RemapTime
			row.WorkBalance = cs.WorkBalance
			row.EdgeCut = partition.EdgeCut(e.Dual, d.RootOwner)
			row.CommVolume = partition.CommVolume(e.Dual, d.RootOwner)
			row.GlobalElems = cs.Step.Counts.Elems
			row.MassDiagnost = cs.Mass
		})
		rows[i] = row
	})
	for i := range runs {
		e.flush(&runs[i])
	}
	return rows
}

// PrecondRow compares preconditioners for one processor count.
type PrecondRow struct {
	Precond    string
	Iterations int
	Converged  bool
	RelResid   float64
	SolveTime  float64 // simulated seconds for one implicit step
	Residuals  []float64
}

// PrecondComparison runs one implicit step on an adapted distributed
// mesh with each preconditioner (the Jacobi-vs-SPAI trade the SPAI
// literature studies: more setup, fewer and cheaper iterations).
func (e *Experiments) PrecondComparison(p int) []PrecondRow {
	kinds := []linalg.PrecondKind{linalg.PrecondNone, linalg.PrecondJacobi, linalg.PrecondSPAI}
	rows := make([]PrecondRow, len(kinds))
	initPart := e.initialPartition(p)
	ind := e.Indicator()
	mustRunWorlds(len(kinds), func(i int) {
		kind := kinds[i]
		msg.RunModel(p, e.modelFor(p), func(c *msg.Comm) {
			d := pmesh.New(c, e.Global, initPart, solver.NComp)
			d.MarkGeometricFraction(ind, 0.2)
			d.PropagateParallel()
			d.Refine()
			solver.InitField(d.M, solver.GaussianPulse(
				mesh.Vec3{e.LX / 2, e.LY / 2, 0.6}, 0.5))
			opt := solver.DefaultImplicitOptions()
			opt.Precond = kind
			im := solver.NewImplicit(d, opt)
			before := c.Elapsed()
			r := im.Step()
			elapsed := c.AllreduceFloat64(c.Elapsed()-before, msg.MaxFloat64)
			if c.Rank() != 0 {
				return
			}
			rows[i] = PrecondRow{
				Precond:    kind.String(),
				Iterations: r.Iterations,
				Converged:  r.Converged,
				RelResid:   r.RelResidual(),
				SolveTime:  elapsed,
				Residuals:  r.Residuals,
			}
		})
	})
	return rows
}
