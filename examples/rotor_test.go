package examples_test

import (
	"fmt"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

// Rotor: an unsteady adaptive computation in the style of the paper's
// motivating application — a rotor-blade acoustics simulation where the
// shock system moves through the domain, so the refined region (and the
// load) moves with it.
//
// The example runs several coupled solve -> adapt -> balance cycles of
// the full framework with an advancing cylindrical shock: each cycle
// refines around the new shock position, rebalances, and runs the
// edge-based flow kernel on the balanced mesh.  (Refinement dominates,
// as in the paper's experiments; Example_unsteady adds coarsening
// behind the shock via the high-level driver.)
//
// Run with: go test ./examples -run Example_rotor -v
func Example_rotor() {
	const (
		p      = 8   // simulated processors
		steps  = 4   // adaption cycles (shock positions)
		iters  = 10  // solver iterations per cycle
		frac   = 0.1 // fraction of edges targeted per cycle
		lx, ly = 4.0, 2.0
	)
	global := mesh.Box(16, 8, 6, lx, ly, 1.2)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Default())
	cfg := core.DefaultConfig()
	cfg.ForceAccept = false // let the gain/cost model decide
	cfg.NAdapt = iters

	fmt.Printf("rotor-style unsteady adaption: %d elements, %d processors, %d cycles\n\n",
		global.NumElems(), p, steps)

	msg.RunModel(p, msg.SP2Model(), func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, solver.NComp)
		ps := solver.NewParallel(d)
		ps.InitParallel(solver.GaussianPulse(mesh.Vec3{lx / 4, ly / 2, 0.6}, 0.5))

		for step := 0; step < steps; step++ {
			// The shock sweeps across the domain, as a blade tip vortex
			// would traverse the grid.
			x := lx * (0.25 + 0.5*float64(step)/float64(steps-1))
			ind := adapt.ShockCylinderIndicator(
				mesh.Vec3{x, ly / 2, 0}, mesh.Vec3{0, 0, 1}, 0.35, 0.18)

			gv := g.WithWeights(g.WComp, g.WRemap)
			st := core.AdaptionStep(c, d, gv, ind, frac, cfg)
			ps.Rebuild() // topology and ownership changed

			var work int
			for it := 0; it < iters; it++ {
				work += ps.Step(0.002)
			}
			maxWork := c.AllreduceInt64(int64(work), msg.MaxInt64)
			totWork := c.AllreduceInt64(int64(work), msg.SumInt64)
			mass := ps.GlobalMass()

			if c.Rank() == 0 {
				balance := float64(totWork) / float64(p) / float64(maxWork)
				fmt.Printf("cycle %d: shock at x=%.2f\n", step, x)
				fmt.Printf("  mesh: %d elements (imbalance before balancing %.2f, remap accepted: %v)\n",
					st.Counts.Elems, st.Imbalance, st.Accepted)
				fmt.Printf("  migrated %d elements; solver edge-work balance %.2f (1.0 = perfect)\n",
					st.Mig.ElemsSent, balance)
				fmt.Printf("  solver: %d edge fluxes/iter across %d ranks, mass diagnostic %.4f\n",
					int(totWork)/iters, p, mass)
			}
		}
	})

	// Output:
	// rotor-style unsteady adaption: 4608 elements, 8 processors, 4 cycles
	//
	// cycle 0: shock at x=1.00
	//   mesh: 9096 elements (imbalance before balancing 1.57, remap accepted: true)
	//   migrated 1008 elements; solver edge-work balance 0.86 (1.0 = perfect)
	//   solver: 11628 edge fluxes/iter across 8 ranks, mass diagnostic 2202.5224
	// cycle 1: shock at x=1.67
	//   mesh: 18160 elements (imbalance before balancing 1.91, remap accepted: true)
	//   migrated 2090 elements; solver edge-work balance 0.83 (1.0 = perfect)
	//   solver: 22426 edge fluxes/iter across 8 ranks, mass diagnostic 4200.1997
	// cycle 2: shock at x=2.33
	//   mesh: 33160 elements (imbalance before balancing 2.19, remap accepted: true)
	//   migrated 6636 elements; solver edge-work balance 0.85 (1.0 = perfect)
	//   solver: 40321 edge fluxes/iter across 8 ranks, mass diagnostic 6939.6708
	// cycle 3: shock at x=3.00
	//   mesh: 59715 elements (imbalance before balancing 1.91, remap accepted: true)
	//   migrated 5168 elements; solver edge-work balance 0.90 (1.0 = perfect)
	//   solver: 71887 edge fluxes/iter across 8 ranks, mass diagnostic 11590.0604
}
