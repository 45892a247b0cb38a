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

// Unsteady: the high-level driver API (core.Unsteady) on a moving-shock
// problem — the most compact way to adopt the full framework: construct
// a distributed mesh, describe the moving feature, and call Cycle().
// Coarsening releases the resolution the shock leaves behind, so the
// mesh tracks the feature instead of accumulating refinement.
//
// Run with: go test ./examples -run Example_unsteady -v
func Example_unsteady() {
	const (
		p      = 6
		cycles = 5
		lx, ly = 5.0, 2.0
	)
	global := mesh.Box(20, 8, 5, lx, ly, 1.25)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	cfg := core.DefaultConfig()
	cfg.NAdapt = 8
	cfg.ForceAccept = false

	fmt.Printf("unsteady driver: %d elements, %d processors, %d cycles\n",
		global.NumElems(), p, cycles)
	fmt.Printf("%-6s %-9s %-9s %-9s %-10s %-8s %-8s\n",
		"cycle", "elems", "migrated", "balance", "imbalance", "accept", "coarsened")

	msg.RunModel(p, msg.SP2Model(), func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, solver.NComp)
		u := core.NewUnsteady(d, g, cfg)
		u.Frac = 0.10
		u.CoarsenBelow = 0.05
		u.Indicator = func(i int) func(mesh.Vec3) float64 {
			x := lx * (0.15 + 0.7*float64(i)/float64(cycles-1))
			return adapt.ShockCylinderIndicator(
				mesh.Vec3{x, ly / 2, 0}, mesh.Vec3{0, 0, 1}, 0.4, 0.2)
		}
		u.PS.InitParallel(solver.GaussianPulse(mesh.Vec3{lx / 4, ly / 2, 0.6}, 0.5))

		for i := 0; i < cycles; i++ {
			cs := u.Cycle()
			if c.Rank() == 0 {
				fmt.Printf("%-6d %-9d %-9d %-9.2f %-10.2f %-8v %d\n",
					i, cs.Step.Counts.Elems, cs.Step.Mig.ElemsSent,
					cs.WorkBalance, cs.Step.Imbalance, cs.Step.Accepted,
					cs.Coarsen.ElemsRemoved)
			}
		}
	})

	// Output:
	// unsteady driver: 4800 elements, 6 processors, 5 cycles
	// cycle  elems     migrated  balance   imbalance  accept   coarsened
	// 0      9395      1836      0.87      1.72       true     0
	// 1      13747     1542      0.85      2.93       true     400
	// 2      14166     3466      0.82      1.56       true     1056
	// 3      14919     2038      0.89      3.09       true     1726
	// 4      14203     1380      0.93      1.44       true     1304
}
