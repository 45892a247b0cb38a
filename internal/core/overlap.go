package core

import (
	"plum/internal/event"
	"plum/internal/linalg"
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

// OverlapComparison runs the blocking-vs-overlapped implicit step on
// every named topology and reports solve times and the traced critical
// path of each mode.  The 2*len(models) traced implicit-step worlds are
// independent and run concurrently.
func (e *Experiments) OverlapComparison(p int, models []string) []OverlapRow {
	var worlds []implicitWorld // [2i]: blocking, [2i+1]: overlapped
	for _, name := range models {
		for _, overlap := range []bool{false, true} {
			worlds = append(worlds, implicitWorld{model: name, p: p, opt: overlapOptions(overlap), traced: true})
		}
	}
	res := mustRunWorlds(worlds, e.runImplicit)
	rows := make([]OverlapRow, 0, len(models))
	for i, name := range models {
		b, o := res[2*i], res[2*i+1]
		if b.res.Iterations != o.res.Iterations {
			panic("core: overlap changed the PCG iteration sequence")
		}
		row := OverlapRow{Model: name, P: p, Iters: b.res.Iterations}
		row.SolveBlocking, row.SolveOverlap = b.solve, o.solve
		cpB, cpO := event.CriticalPath(b.trace), event.CriticalPath(o.trace)
		row.CPBlocking, row.CPOverlap = cpB.Makespan, cpO.Makespan
		row.WaitBlocking, row.WaitOverlap = cpB.CommWait, cpO.CommWait
		row.TraceOverlapped = o.trace
		rows = append(rows, row)
	}
	return rows
}
