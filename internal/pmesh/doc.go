// Package pmesh implements the distributed-memory mesh layer of the
// reproduction (paper Section 3, "parallel mesh adaption", and Section
// 4.6, data remapping): each processor owns the refinement families of a
// subset of the initial mesh's elements, shared vertices and edges carry
// shared-processor lists (SPLs), edge marking is propagated across
// partition boundaries with messaging rounds, and whole element families
// migrate between processors when the load balancer adopts a new
// partitioning ("all descendants of the root element must move with it").
//
// Entry points.  New builds a DistMesh from the replicated initial mesh
// and an initial partition; MarkGeometricFraction + PropagateParallel +
// Refine is the parallel adaption cycle; GatherPredictedWeights /
// GatherWeights supply the balancer's inputs; Migrate executes an
// adopted reassignment; Finalize reassembles the global mesh for
// output; ResolveOwnership computes exact edge/vertex ownership for the
// solvers.  Migrate stamps no trace phase itself: every caller must run
// it under event.PhaseMigrate (the adaption step does), which is how the
// profile aggregator tells migration waits apart.
//
// Invariants.  Identity across processors follows the global-id
// discipline of package adapt: initial vertices keep their global
// initial ids and bisection midpoints hash their parent edge's
// endpoints, so two processors that independently refine copies of a
// shared edge agree on every derived object, including new edges
// created across faces of the original mesh.  The replicated RootOwner
// vector is identical on every rank after each collective operation,
// and all neighbour exchanges use deterministic rank order, so the
// distributed mesh evolves bitwise identically for any GOMAXPROCS.
package pmesh
