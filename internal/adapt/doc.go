// Package adapt reimplements 3D_TAG, the edge-based tetrahedral mesh
// adaption scheme of Biswas & Strawn used by the paper (Section 3): error
// indicators target edges for refinement or coarsening; element edge
// markings are upgraded to one of the three allowed subdivision patterns
// (1:2, 1:4, 1:8) with fixpoint propagation; marked elements are
// subdivided; and coarsening removes child elements, reinstates parents,
// and re-invokes refinement to restore a valid mesh.
//
// The package maintains the complete refinement history ("parent edges and
// elements are retained at each refinement step so they do not have to be
// reconstructed"): elements, edges, and boundary faces form forests rooted
// at the objects of the initial mesh.  Per-root subtree sizes provide the
// two dual-graph weights of the PLUM load balancer: Wcomp (leaf elements,
// the flow-solver workload) and Wremap (total elements, the migration
// cost).
//
// Entry points.  FromMesh wraps a mesh.Mesh in an Adaptor;
// MarkTopFraction + Propagate + Refine is the serial adaption cycle;
// PredictRefine supplies the predicted post-refinement weights the
// remap-before ordering balances on; ShockCylinderIndicator is the
// moving-feature error indicator the experiments drive.
//
// Invariants.  Every vertex carries a stable 64-bit global id: initial
// vertices use their initial index, and a bisection midpoint's id is a
// hash of its parent edge's endpoint ids.  Edges are globally identified
// by their endpoint id pair.  This naming is what lets the distributed
// implementation (package pmesh) agree on the identity of objects created
// independently on different processors, including new edges on shared
// partition faces.  Locally, an edge is found from its endpoints through
// a vertex-local index: one intrusive chain per lower endpoint, threaded
// through an edge-indexed link array, with no hash table.  The index
// holds alive edges only; purge unlinks an edge as it kills it, so a
// purged pair is re-created under a fresh id appended in creation order.
// The gid -> vertex map likewise holds alive vertices only: a vertex dies
// only in purge, which deletes its entry as it kills it, so a purged
// midpoint is re-created as a new vertex and CheckInvariants requires
// the map to hold exactly the alive vertices.
// Marking propagation is a monotone fixpoint, so the final subdivision
// pattern is independent of traversal order.
package adapt
