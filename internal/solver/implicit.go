package solver

import (
	"plum/internal/linalg"
	"plum/internal/pmesh"
)

// Implicit time stepping: where the explicit kernel (solver.go)
// communicates once per time step, a backward-Euler diffusion update
//
//	(I + dt*L) u^{n+1} = u^n
//
// solved by preconditioned conjugate gradients communicates every PCG
// iteration — a halo exchange per SpMV plus a global reduction per dot
// product.  This is the second workload class of the reproduction: under
// it, the partition-quality metrics the load balancer optimizes (edge
// cut, CommVolume) stop being proxies and become directly observable as
// simulated communication time.  L is the edge-weighted vertex
// Laplacian of linalg.Assemble, so the operator tracks the adapted mesh
// exactly as the explicit flux loop does.

// ImplicitOptions tunes the implicit workload.
type ImplicitOptions struct {
	DT      float64            // pseudo-time step (Laplacian scale)
	Precond linalg.PrecondKind // preconditioner for the PCG solves
	Tol     float64            // PCG relative residual target
	MaxIter int                // PCG iteration cap
	// Overlap enables the split-SpMV halo overlap: interior rows compute
	// while the ghost exchange is in flight.  The iterates are bitwise
	// unchanged; only the simulated communication wait shrinks.
	Overlap bool
}

// DefaultImplicitOptions returns the settings the experiments use: a
// step large enough that preconditioning visibly pays, SPAI, and the
// acceptance tolerance of the subsystem (1e-8).
func DefaultImplicitOptions() ImplicitOptions {
	return ImplicitOptions{DT: 0.5, Precond: linalg.PrecondSPAI, Tol: 1e-8, MaxIter: 500}
}

// ImplicitResult reports one implicit step (all NComp component solves).
type ImplicitResult struct {
	Iterations int  // total PCG iterations across components
	Converged  bool // every component solve converged
	Work       int  // local work measure: iterations x owned nonzeros
	// Residuals is the residual history of the last component solve
	// (all components share the operator, so histories are alike).
	Residuals []float64
}

// Implicit is the distributed implicit solver bound to a DistMesh.
type Implicit struct {
	D   *pmesh.DistMesh
	Sys *linalg.DistSystem
	Pre linalg.Preconditioner
	Opt ImplicitOptions
}

// NewImplicit assembles the operator for the current mesh topology.
// Call Rebuild after any adaption or migration.  Collective.
func NewImplicit(d *pmesh.DistMesh, opt ImplicitOptions) *Implicit {
	im := &Implicit{D: d, Opt: opt}
	im.Rebuild()
	return im
}

// Rebuild reassembles the operator and preconditioner.  Collective.
func (im *Implicit) Rebuild() {
	im.Sys = linalg.NewDistSystem(im.D, 1, im.Opt.DT)
	im.Sys.Overlap = im.Opt.Overlap
	im.Pre = im.Sys.NewPrecond(im.Opt.Precond)
}

// Step advances every solution component one implicit iteration and
// writes the result back into the mesh (all copies of shared vertices,
// bitwise consistent).  Collective.
func (im *Implicit) Step() ImplicitResult {
	ncomp := im.D.M.NComp
	res := ImplicitResult{Converged: true}
	opt := linalg.Options{Tol: im.Opt.Tol, MaxIter: im.Opt.MaxIter}
	for comp := 0; comp < ncomp; comp++ {
		b := im.Sys.GatherField(ncomp, comp)
		x := append([]float64(nil), b...) // u^n is the natural initial guess
		r := linalg.PCG(im.Sys, im.Pre, b, x, opt)
		im.Sys.ScatterField(ncomp, comp, x)
		res.Iterations += r.Iterations
		res.Converged = res.Converged && r.Converged
		res.Residuals = r.Residuals
	}
	res.Work = res.Iterations * im.Sys.A.NNZ()
	return res
}

// RelResidual returns the final relative residual of the last component
// solve.
func (r ImplicitResult) RelResidual() float64 {
	return linalg.Result{Residuals: r.Residuals}.RelResidual()
}

// GlobalMass sums the density component over all owned rows with the
// subsystem's exact reduction, so the diagnostic is bitwise independent
// of the partition (unlike PSolver.GlobalMass, which reduces rank by
// rank).  Collective.
func (im *Implicit) GlobalMass() float64 {
	if im.D.M.NComp == 0 {
		return 0
	}
	b := im.Sys.GatherField(im.D.M.NComp, 0)
	ones := make([]float64, len(b))
	for i := range ones {
		ones[i] = 1
	}
	return im.Sys.Dot(b, ones)
}
