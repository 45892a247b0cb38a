package core

import (
	"plum/internal/event"
	"plum/internal/linalg"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

// The comm/compute-overlap experiment: the same implicit PCG step run
// twice per machine topology — once with the blocking halo exchange,
// once with the split-SpMV overlap (interior rows compute while the
// ghost messages are in flight).  The iterates are bitwise identical
// (identical per-row kernels, exact reductions), so the two runs do
// exactly the same arithmetic; what changes is the simulated critical
// path, extracted from the event trace.  This is the ROADMAP item the
// blocking Send/Recv runtime could not express.

// OverlapRow compares blocking and overlapped PCG on one topology.
type OverlapRow struct {
	Model string
	P     int
	Iters int // PCG iterations (identical in both modes by construction)

	// Simulated seconds of the PCG solve phase, max over ranks.
	SolveBlocking, SolveOverlap float64
	// Critical-path makespan of the full traced run.
	CPBlocking, CPOverlap float64
	// Comm-wait seconds on the critical path (wire latency, contention
	// queueing, idle gaps) — the bucket overlap exists to shrink.
	WaitBlocking, WaitOverlap float64

	// TraceOverlapped is the overlapped run's event trace, kept so
	// -trace exports it without repeating the (deterministic, identical)
	// simulation.
	TraceOverlapped *event.Trace
}

// Speedup returns the critical-path ratio blocking/overlapped.
func (r OverlapRow) Speedup() float64 {
	if r.CPOverlap == 0 {
		return 1
	}
	return r.CPBlocking / r.CPOverlap
}

// overlapOptions returns the implicit solve the overlap experiment
// runs: Jacobi preconditioning isolates the halo-exchange SpMV (the
// path being overlapped), and the iteration cap keeps the trace small —
// both modes run the identical iteration sequence either way.
func overlapOptions(overlap bool) solver.ImplicitOptions {
	opt := solver.DefaultImplicitOptions()
	opt.Precond = linalg.PrecondJacobi
	opt.MaxIter = 60
	opt.Overlap = overlap
	return opt
}

// traceImplicit runs one adapted implicit PCG step on p ranks of the
// named machine with tracing enabled and returns the per-rank times,
// the trace, the iteration count, and the solve-phase simulated seconds
// (max over ranks).  The initial partition is built for the named
// machine itself — speed-scaled targets iff it is heterogeneous — so
// every topology row of a comparison runs on its own machine's natural
// partition, not on whatever -model the harness happens to carry.
func (e *Experiments) traceImplicit(p int, model string, overlap bool) ([]float64, *event.Trace, int, float64) {
	topo, err := machine.ByName(model, p)
	if err != nil {
		panic(err)
	}
	mod := e.Model.WithTopo(topo)
	popt := e.Cfg.PartOpts
	popt.TargetShares = machine.SpeedShares(topo, p)
	initPart := partition.Partition(e.Dual, p, popt)
	ind := e.Indicator()
	var iters int
	var solve float64
	times, tr := msg.RunTraced(p, mod, func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, initPart, solver.NComp)
		d.MarkGeometricFraction(ind, 0.2)
		d.PropagateParallel()
		d.Refine()
		solver.InitField(d.M, solver.GaussianPulse(
			mesh.Vec3{e.LX / 2, e.LY / 2, 0.6}, 0.5))
		im := solver.NewImplicit(d, overlapOptions(overlap))
		before := c.Elapsed()
		r := im.Step()
		elapsed := c.AllreduceFloat64(c.Elapsed()-before, msg.MaxFloat64)
		if c.Rank() == 0 {
			iters = r.Iterations
			solve = elapsed
		}
	})
	return times, tr, iters, solve
}

// OverlapComparison runs the blocking-vs-overlapped implicit step on
// every named topology and reports solve times and the traced critical
// path of each mode.  The 2*len(models) worlds are independent
// (traceImplicit builds a private partition and topology per call) and
// run concurrently.
func (e *Experiments) OverlapComparison(p int, models []string) []OverlapRow {
	type result struct {
		tr    *event.Trace
		iters int
		solve float64
	}
	res := make([]result, 2*len(models)) // [2i]: blocking, [2i+1]: overlapped
	mustRunWorlds(len(res), func(i int) {
		_, tr, iters, solve := e.traceImplicit(p, models[i/2], i%2 == 1)
		res[i] = result{tr, iters, solve}
	})
	rows := make([]OverlapRow, 0, len(models))
	for i, name := range models {
		b, o := res[2*i], res[2*i+1]
		if b.iters != o.iters {
			panic("core: overlap changed the PCG iteration sequence")
		}
		row := OverlapRow{Model: name, P: p, Iters: b.iters}
		row.SolveBlocking, row.SolveOverlap = b.solve, o.solve
		cpB, cpO := event.CriticalPath(b.tr), event.CriticalPath(o.tr)
		row.CPBlocking, row.CPOverlap = cpB.Makespan, cpO.Makespan
		row.WaitBlocking, row.WaitOverlap = cpB.CommWait, cpO.CommWait
		row.TraceOverlapped = o.tr
		rows = append(rows, row)
	}
	return rows
}

// TraceImplicitStep runs one implicit PCG step on p ranks of the named
// machine (empty name: flat) and returns the event trace — the artifact
// plumviz -trace exports as Chrome-tracing JSON (plumbench reuses the
// trace already produced by its OverlapComparison instead).
func (e *Experiments) TraceImplicitStep(p int, overlap bool) *event.Trace {
	model := e.ModelName
	if model == "" {
		model = "flat"
	}
	_, tr, _, _ := e.traceImplicit(p, model, overlap)
	return tr
}
