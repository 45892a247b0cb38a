package core

import (
	"plum/internal/linalg"
	"plum/internal/mesh"
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
	cfg := e.implicitConfig()
	if e.Measured {
		// Measured-cost loop: decisions gate on the previous epoch's
		// profile instead of always remapping.
		cfg.ForceAccept = false
	}
	type world struct {
		row ImplicitRow
		run FeedbackRun
	}
	res := mustRunWorlds(e.Ps, func(p int) world {
		pl := epochPlan{
			exp: "implicit", model: e.ModelName, p: p, cycles: cycles, measured: e.Measured,
			topo:      mustMachine(e.ModelName, p),
			cfg:       cfg,
			indicator: func(int) func(mesh.Vec3) float64 { return ind },
			frac:      constFrac(0.10),
		}
		w := world{row: ImplicitRow{P: p, Converged: true}}
		w.run, _ = e.runEpochs(pl, func(ep FeedbackEpoch, cs CycleStats, d *pmesh.DistMesh) {
			row := &w.row
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
		return w
	})
	rows := make([]ImplicitRow, len(res))
	for i := range res {
		e.flush(&res[i].run)
		rows[i] = res[i].row
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
	worlds := make([]implicitWorld, len(kinds))
	for i, kind := range kinds {
		worlds[i] = implicitWorld{model: e.ModelName, p: p, opt: solver.DefaultImplicitOptions()}
		worlds[i].opt.Precond = kind
	}
	rows := make([]PrecondRow, len(kinds))
	for i, st := range mustRunWorlds(worlds, e.runImplicit) {
		rows[i] = PrecondRow{
			Precond:    kinds[i].String(),
			Iterations: st.res.Iterations,
			Converged:  st.res.Converged,
			RelResid:   st.res.RelResidual(),
			SolveTime:  st.solve,
			Residuals:  st.res.Residuals,
		}
	}
	return rows
}
