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
)

// Quickstart: the smallest end-to-end use of the PLUM reproduction.
//
// It builds a tetrahedral box mesh, runs one full load-balanced adaption
// cycle on four simulated processors (mark -> evaluate -> repartition ->
// reassign -> remap -> refine), and prints what happened at each stage.
//
// Run with: go test ./examples -run Example_quickstart -v
func Example_quickstart() {
	const p = 4 // simulated processors

	// 1. An initial mesh: a box split into tetrahedra, standing in for
	// the paper's rotor-blade mesh.
	global := mesh.Box(10, 8, 6, 2.0, 1.6, 1.2)
	fmt.Printf("initial mesh: %d vertices, %d elements, %d edges, %d boundary faces\n",
		global.NumVerts(), global.NumElems(), global.NumEdges(), global.NumBFaces())

	// 2. The dual graph drives all load balancing; its size never
	// changes, no matter how far the mesh is refined.
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	fmt.Printf("dual graph: %d vertices, %d edges; initial edge cut %d, imbalance %.3f\n",
		g.NumVerts(), g.NumEdges(), partition.EdgeCut(g, initPart), partition.Imbalance(g, initPart, p))

	// 3. An error indicator: a spherical "shock" in one corner, so the
	// refinement (and hence the load) is strongly localized.
	ind := adapt.SphericalIndicator(mesh.Vec3{0.5, 0.4, 0.3}, 0.35, 0.2)

	// 4. One adaption cycle under the framework, on p ranks.
	cfg := core.DefaultConfig()
	model := msg.SP2Model()
	msg.RunModel(p, model, func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, 0)
		gv := g.WithWeights(g.WComp, g.WRemap)
		st := core.AdaptionStep(c, d, gv, ind, 0.15, cfg)
		if c.Rank() != 0 {
			return
		}
		fmt.Printf("\nadaption cycle on %d processors:\n", p)
		fmt.Printf("  marking propagation rounds: %d\n", st.Rounds)
		fmt.Printf("  predicted imbalance before balancing: %.2f\n", st.Imbalance)
		fmt.Printf("  new partitioning accepted: %v\n", st.Accepted)
		fmt.Printf("  elements migrated: %d (in %d messages)\n", st.Mig.ElemsSent, st.Mig.MsgsSent)
		fmt.Printf("  refined mesh: %d elements (%d created)\n", st.Counts.Elems, st.Refine.ElemsCreated)
		fmt.Printf("  heaviest-rank load: %d -> %d (%.2fx solver improvement)\n",
			st.WOldMax, st.WNewMax, st.SolverImprovement())
		fmt.Printf("  simulated phase times: mark %.4fs, partition %.4fs, reassign %.4fs, remap %.4fs, refine %.4fs\n",
			st.MarkTime, st.PartitionTime, st.ReassignTime, st.RemapTime, st.RefineTime)
	})

	// Output:
	// initial mesh: 693 vertices, 2880 elements, 3948 edges, 752 boundary faces
	// dual graph: 2880 vertices, 5384 edges; initial edge cut 309, imbalance 1.046
	//
	// adaption cycle on 4 processors:
	//   marking propagation rounds: 2
	//   predicted imbalance before balancing: 2.22
	//   new partitioning accepted: true
	//   elements migrated: 596 (in 6 messages)
	//   refined mesh: 6659 elements (1682 created)
	//   heaviest-rank load: 3690 -> 1739 (2.12x solver improvement)
	//   simulated phase times: mark 0.0120s, partition 0.0410s, reassign 0.0017s, remap 0.0105s, refine 0.0037s
}
