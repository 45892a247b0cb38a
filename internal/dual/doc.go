// Package dual builds and manipulates the dual graph of the initial
// computational mesh, the key representation of the PLUM load balancer
// (paper Section 4.1): the tetrahedral elements of the initial mesh are
// the graph vertices, and an edge connects two graph vertices when the
// corresponding elements share a face.
//
// Each dual vertex carries two weights.  Wcomp — the number of leaf
// elements in the corresponding refinement tree — is the flow-solver
// workload and drives partitioning balance.  Wremap — the total number of
// elements in the tree — is the cost of migrating the element, since all
// descendants move with their root.  Because partitioning always operates
// on this fixed graph, "the repartitioning time depends only on the
// initial problem size and the number of partitions, but not on the size
// of the adapted mesh."
//
// Entry points.  FromMesh derives the graph from an initial mesh;
// WithWeights produces a per-rank weight view sharing the replicated
// topology; SetWeights installs freshly gathered weights before a
// repartition.  Contract is the one graph contraction — the multilevel
// partitioner's every coarsening level and Agglomerate's superelements
// both build their coarse graph with it, hash-free and optionally into
// a caller's reused buffer; ProjectPartition maps a coarse partition
// back through the same fine-to-coarse map.
//
// Invariants.  The graph topology never changes after construction —
// adaption only updates weights — and vertex order equals initial-mesh
// element order, so a partition vector indexes directly by root element
// id everywhere in the framework.
package dual
