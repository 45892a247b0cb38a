package core

import (
	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/pmesh"
	"plum/internal/profile"
	"plum/internal/solver"
)

// Unsteady drives the paper's target application pattern: a feature
// (shock, vortex) moves through the domain over many time steps, and
// every NAdapt solver iterations the framework re-adapts and rebalances
// around the feature's new position (the outer loop of Fig. 1).  This
// is the public API the examples and downstream users build on;
// AdaptionStep remains available for single-cycle control.
type Unsteady struct {
	D   *pmesh.DistMesh
	PS  *solver.PSolver
	IS  *solver.Implicit // non-nil when Cfg.Workload == WorkloadImplicit
	G   *dual.Graph      // replicated dual graph (weights owned per rank)
	Cfg Config

	// Indicator returns the error-indicator function for cycle number
	// i (the moving feature).
	Indicator func(i int) func(mesh.Vec3) float64
	// Frac is the fraction of edges targeted for refinement per cycle.
	Frac float64
	// CoarsenBelow, when > 0, coarsens edges whose indicator value for
	// the *new* position falls below this threshold before refining —
	// releasing resolution the feature has left behind.
	CoarsenBelow float64
	// DT is the solver pseudo-time step.
	DT float64

	// Stop, when non-nil, is the cooperative cancellation hook of the
	// serving path: it is consulted ONLY on rank 0 (so it may read host
	// state — a context, a drain flag — without rank divergence) and its
	// verdict is agreed by a zero-payload allreduce at solver-iteration
	// boundaries, so every rank leaves the solve loop at the same
	// checkpoint.  The agreement allreduce runs whether or not the
	// verdict fires, making the message pattern — and with it every
	// simulated clock — a pure function of (config, Stop != nil): a
	// served world and its offline replay stay bitwise identical.  CLI
	// and experiment paths leave Stop nil, which skips the checkpoints
	// entirely and keeps the golden-pinned schedules untouched.
	Stop func() bool
	// StopEvery is the solver-iteration cadence of the Stop checkpoints
	// (<= 0: every 8 iterations).
	StopEvery int

	cycle int
	// prof is the previous cycle's measured cost profile (rank 0 only;
	// nil on other ranks, on untraced runs, and before the first solve
	// phase completes).  Each cycle hands it to AdaptionStep's gain/cost
	// decision and replaces it after the solve phase — the measured-cost
	// feedback loop.
	prof *profile.Profile
}

// CycleStats extends the adaption statistics with solver accounting.
type CycleStats struct {
	Step        StepStats
	Coarsen     adapt.CoarsenStats
	SolverWork  int     // this rank's work units (edge fluxes, or PCG iters x nnz)
	WorkBalance float64 // sum(work)/(P*max(work)); 1.0 = perfect
	Mass        float64 // conservation diagnostic
	SolverTime  float64 // simulated seconds in the solve phase, max over ranks

	// Implicit-workload accounting (zero under WorkloadExplicit).
	PCGIters     int  // total PCG iterations this cycle
	PCGConverged bool // every solve hit the tolerance

	// Stopped reports that a Stop checkpoint fired inside the solve
	// loop: the cycle completed collectively (all ranks agreed at the
	// same iteration boundary) but ran fewer solver steps than
	// configured.  The caller should treat the cycle's statistics as
	// partial and stop driving further cycles.
	Stopped bool

	// Blame is the wait-blame attribution of this cycle's critical path
	// (rank 0 of a traced run; nil otherwise): every second the path
	// waited, charged to a lagging sender's compute, a contended link,
	// wire latency, or idleness (event.WaitBlame).
	Blame *event.BlameReport

	// Profile is the cost profile measured over this cycle (rank 0 of a
	// traced run with Cfg.Measured set; nil otherwise).  The *next*
	// cycle's gain/cost decision consumes it.
	Profile *profile.Profile
}

// NewUnsteady wires the driver over an existing distributed mesh with
// the configured workload's solver attached.  Collective.
func NewUnsteady(d *pmesh.DistMesh, g *dual.Graph, cfg Config) *Unsteady {
	if cfg.Topo == nil {
		cfg.Topo = machine.NewFlat(d.C.Size(), machine.SP2Link())
	}
	u := &Unsteady{D: d, G: g, Cfg: cfg, Frac: 0.1, DT: 0.002}
	u.PS = solver.NewParallel(d)
	if cfg.Workload == WorkloadImplicit {
		u.IS = solver.NewImplicit(d, cfg.Implicit)
	}
	return u
}

// Cycle runs one adapt-balance-solve cycle and returns its statistics.
// Collective.
func (u *Unsteady) Cycle() CycleStats {
	var cs CycleStats
	ind := u.Indicator(u.cycle)
	c := u.D.C

	// Measured-cost feedback: on a traced run, remember where this
	// cycle's records begin so the post-solve profile covers exactly one
	// epoch (adaption + migration + solve).  Only rank 0 cuts the
	// window — it is the rank that prices the decision — and the
	// engine's deterministic total order makes the boundary, and with it
	// the profile, bitwise reproducible.  Observe cuts the same window
	// for the run ledger but never feeds the profile forward.
	var tr *event.Trace
	cycleStart := 0
	if u.Cfg.Measured || u.Cfg.Observe {
		tr = c.Trace()
		if tr != nil && c.Rank() == 0 {
			cycleStart = len(tr.Records)
		}
	}

	if u.CoarsenBelow > 0 && u.cycle > 0 {
		c.PushPhase(event.PhaseCoarsen)
		cs.Coarsen = u.D.ParallelCoarsen(ind, u.CoarsenBelow)
		c.PopPhase()
	}
	gv := u.G.WithWeights(u.G.WComp, u.G.WRemap)
	cfg := u.Cfg
	if c.Rank() == 0 {
		cfg.Profile = u.prof
	}
	cs.Step = AdaptionStep(c, u.D, gv, ind, u.Frac, cfg)
	// Rebuild only the active workload's solver: each rebuild performs
	// a collective ownership resolution, so doing both would double the
	// per-cycle setup cost for no benefit.
	if u.IS != nil {
		u.IS.Rebuild()
	} else {
		u.PS.Rebuild()
	}

	n := u.Cfg.NAdapt
	if n <= 0 {
		n = 1
	}
	timer := newPhaseTimer(c)
	if u.IS != nil {
		cs.PCGConverged = true
		for it := 0; it < n; it++ {
			c.PushPhase(event.PhaseSolve)
			r := u.IS.Step()
			c.PopPhase()
			cs.SolverWork += r.Work
			cs.PCGIters += r.Iterations
			cs.PCGConverged = cs.PCGConverged && r.Converged
			if u.stopCheckpoint(c, it, n) {
				cs.Stopped = true
				break
			}
		}
	} else {
		for it := 0; it < n; it++ {
			c.PushPhase(event.PhaseSolve)
			cs.SolverWork += u.PS.Step(u.DT)
			c.PopPhase()
			if u.stopCheckpoint(c, it, n) {
				cs.Stopped = true
				break
			}
		}
	}
	cs.SolverTime = timer.Lap()
	if tr != nil && c.Rank() == 0 {
		// Aggregate the epoch's records into the profile the next cycle's
		// decision will price with: per-rank wait decomposition, critical
		// path, solve-phase per-iteration time, and link rates calibrated
		// from the observed sends, classed by the machine's hop counts.
		win := &event.Trace{P: c.Size(), Records: tr.Records[cycleStart:]}
		p := profile.FromTrace(win, 0, len(win.Records), nil)
		p.SolveSeconds = cs.SolverTime
		p.SolveSteps = n
		p.Rates = machine.CalibrateRates(win.Records, u.Cfg.Topo)
		// Only the measured-cost loop feeds the profile into the next
		// decision; an Observe-only run records it (cs.Profile) and stays
		// bitwise analytic.
		if u.Cfg.Measured {
			u.prof = p
		}
		cs.Profile = p
		// Blame the epoch's waits while the window is cut: the profile's
		// critical path, attributed culprit by culprit.  The span log
		// (when this run streams spans) closes its epoch with the summary.
		cs.Blame = event.WaitBlame(win, &p.Path)
		if sl := c.Spans(); sl != nil {
			sl.CutEpoch(cs.Blame)
		}
	}
	maxW := c.AllreduceInt64(int64(cs.SolverWork), msg.MaxInt64)
	sumW := c.AllreduceInt64(int64(cs.SolverWork), msg.SumInt64)
	if maxW > 0 {
		cs.WorkBalance = float64(sumW) / (float64(c.Size()) * float64(maxW))
	}
	if u.IS != nil {
		cs.Mass = u.IS.GlobalMass()
	} else {
		cs.Mass = u.PS.GlobalMass()
	}
	u.cycle++
	return cs
}

// CycleNumber returns how many cycles have completed.
func (u *Unsteady) CycleNumber() int { return u.cycle }

// stopCheckpoint is the mid-epoch cooperative cancellation point: after
// solver iteration it (of n) it decides collectively whether to abandon
// the remaining iterations.  With no Stop hook it is free — no message,
// no clock movement.  With one, every rank joins a zero-payload
// max-allreduce whose value is rank 0's sampled verdict, so the ranks
// agree on exactly which iteration boundary they leave from; the
// allreduce runs at the same cadence whether or not the verdict fires,
// keeping served and offline schedules bitwise identical.  The final
// iteration skips the check — the epoch is about to close anyway.
func (u *Unsteady) stopCheckpoint(c *msg.Comm, it, n int) bool {
	if u.Stop == nil || it+1 >= n {
		return false
	}
	every := u.StopEvery
	if every <= 0 {
		every = 8
	}
	if (it+1)%every != 0 {
		return false
	}
	return CollectiveStop(c, u.Stop)
}

// CollectiveStop agrees a host-plane stop verdict across a world's
// ranks: hook is consulted only on rank 0, and the verdict is broadcast
// through a max-allreduce so every rank adopts it at the same point of
// its program.  Collective; runs the allreduce unconditionally.
func CollectiveStop(c *msg.Comm, hook func() bool) bool {
	var flag int64
	if c.Rank() == 0 && hook() {
		flag = 1
	}
	return c.AllreduceInt64(flag, msg.MaxInt64) == 1
}
