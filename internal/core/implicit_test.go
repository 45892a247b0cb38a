package core

import (
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/linalg"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

// runImplicitCycles drives the implicit workload for a few cycles and
// returns the per-cycle PCG iteration counts and the final mass.
func runImplicitCycles(t *testing.T, p, cycles int, kind linalg.PrecondKind) ([]int, float64) {
	t.Helper()
	const lx, ly = 3.0, 2.0
	global := mesh.Box(6, 4, 3, lx, ly, 1.0)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	cfg := DefaultConfig()
	cfg.Workload = WorkloadImplicit
	cfg.NAdapt = 1
	cfg.Implicit.Precond = kind

	iters := make([]int, cycles)
	var mass float64
	msg.RunModel(p, msg.SP2Model(), func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, solver.NComp)
		u := NewUnsteady(d, g, cfg)
		u.Frac = 0.15
		u.Indicator = func(i int) func(mesh.Vec3) float64 {
			x := lx * (0.3 + 0.2*float64(i))
			return adapt.ShockCylinderIndicator(
				mesh.Vec3{x, ly / 2, 0}, mesh.Vec3{0, 0, 1}, 0.4, 0.2)
		}
		u.PS.InitParallel(solver.GaussianPulse(mesh.Vec3{lx / 3, ly / 2, 0.5}, 0.5))
		for i := 0; i < cycles; i++ {
			cs := u.Cycle()
			if !cs.PCGConverged {
				t.Errorf("p=%d cycle %d: PCG did not converge", p, i)
			}
			if c.Rank() == 0 {
				iters[i] = cs.PCGIters
			}
		}
		// Exact (partition-independent) mass diagnostic; PS.GlobalMass
		// would round rank-by-rank and could differ in the last bits
		// across P.
		m := u.IS.GlobalMass()
		if c.Rank() == 0 {
			mass = m
		}
	})
	return iters, mass
}

// TestImplicitWorkloadIterationsIndependentOfP exercises the workload
// selector end to end: the full solve->adapt->balance cycle under the
// implicit workload must produce identical PCG iteration counts and a
// bitwise-identical solution diagnostic for every processor count —
// migration, refinement, and the remap decision included.
func TestImplicitWorkloadIterationsIndependentOfP(t *testing.T) {
	refIters, refMass := runImplicitCycles(t, 1, 2, linalg.PrecondSPAI)
	for _, p := range []int{2, 4} {
		iters, mass := runImplicitCycles(t, p, 2, linalg.PrecondSPAI)
		for i := range iters {
			if iters[i] != refIters[i] {
				t.Errorf("p=%d cycle %d: %d PCG iterations, serial %d", p, i, iters[i], refIters[i])
			}
		}
		if mass != refMass {
			t.Errorf("p=%d: final mass %x, serial %x", p, mass, refMass)
		}
	}
}

// TestImplicitWorkloadJacobi smoke-tests the other preconditioner
// through the driver.
func TestImplicitWorkloadJacobi(t *testing.T) {
	iters, _ := runImplicitCycles(t, 2, 1, linalg.PrecondJacobi)
	if iters[0] == 0 {
		t.Fatal("no PCG iterations recorded")
	}
}
