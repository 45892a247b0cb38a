// Package remap implements the processor-reassignment and data-movement
// cost machinery of the PLUM load balancer (paper Sections 4.3-4.6):
// the similarity matrix, the three partition-to-processor mappers
// (heuristic greedy MWBG, optimal MWBG, optimal BMCM), the TotalV / MaxV
// cost metrics, and the computational-gain vs. redistribution-cost
// acceptance test — plus the two extensions this reproduction adds on
// top: topology-aware mapping and measured-cost pricing.
//
// Entry points.  BuildSimilarityDistributed assembles the similarity
// matrix at the host; HeuristicMWBG / OptimalMWBG / OptimalBMCM are the
// paper's mappers and TopoAssign the hop-aware one (topo.go); Cost and
// HopWeightedCost score an assignment; a Pricer prices a Decision — the
// gain of the new assignment and the cost of the move — and Accept is
// the verdict.  Analytic is the paper's pricing: ComputationalGain with
// RedistributionCost (scalar constants) on a uniform topology, or with
// RedistributionCostTopo (per-pair link constants) on a non-uniform
// one.  Measured prices both sides from the previous epoch's measured
// per-iteration solve time and trace-calibrated link rates.
//
// Invariants.  Every mapper is deterministic (ties break by index), so
// a given similarity matrix always yields the same assignment.  The
// per-pair and measured costs run one transfer loop and differ only in
// where each pair's link constants come from.  Analytic on a flat
// machine — the default path — is bitwise-pinned by the golden tests
// in internal/core.  The heuristic mapper's objective is provably
// within 2x of optimal (checked by the Fig. 2 experiment).
package remap
