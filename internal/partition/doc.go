// Package partition implements a multilevel k-way graph partitioner in
// the style of (parallel) MeTiS, which the paper uses for mesh
// repartitioning (Section 4.2): the graph is coarsened by heavy-edge
// matching and dual.Contract, the coarsest graph is partitioned by
// greedy graph growing, and the partition is projected back through the
// levels with boundary greedy refinement ("a combination of boundary
// greedy and Kernighan-Lin refinement").
//
// Entry points.  Partition partitions from scratch (the initial mapping
// of Fig. 1); Repartition uses the previous assignment as the initial
// guess — the parallel-MeTiS behaviour the paper highlights: "an
// additional benefit ... is the potential reduction in remapping cost
// since parallel MeTiS, unlike the serial version, uses the previous
// partition as the initial guess."  ParallelRepartition runs the
// machinery under the message-passing runtime with per-rank simulated
// cost accounting (parallel.go).  EdgeCut, CommVolume, and Imbalance
// score partition quality; PartWeights sums per-part loads.
//
// One coarsener.  heavyEdgeMatching and dual.Contract are the only
// matching and contraction: the serial levels of Partition and
// Repartition, the per-rank block levels of ParallelRepartition and its
// host's assembly of the gathered coarse graph all run through them.
// The balance tolerance (1.05), the coarsening target (max(128, 16k)
// vertices) and the refinement pass bound (8) are package constants.
//
// Invariants.  Options.TargetShares carries per-part target loads for
// heterogeneous machines (machine.SpeedShares /
// machine.SpeedSharesAssigned); nil shares reproduce the paper's equal
// targets exactly.  Partitioning is deterministic: matching, growing,
// and refinement all break ties by vertex order, so the same graph,
// weights, and options always yield the identical partition — a
// precondition for every bitwise-pinned experiment downstream.
package partition
