package partition

import "plum/internal/dual"

// Additional partition-quality metrics.  The paper's requirement for the
// repartitioner (Section 4.2) is that it "minimize the total execution
// time by balancing the computational loads and reducing the
// interprocessor communication time"; edge cut approximates the latter,
// and communication volume measures it more closely.

// CommVolume returns the total communication volume of a partition: for
// each vertex, the number of *distinct* other parts its neighbourhood
// touches (the number of ghost copies the owner must update each solver
// iteration).  A better proxy for runtime communication than raw edge
// cut when several cut edges lead to the same neighbour part — and,
// since the implicit workload landed, directly realized as per-iteration
// halo traffic rather than a proxy.
//
// Distinct neighbour parts are counted with a per-part stamp array
// versioned by vertex, so the cost is O(E + K) with O(K) memory instead
// of the O(deg * parts-per-vertex) scan of a seen-list — the difference
// matters at large part counts (P*F partitions), where the balancer
// evaluates this metric on every adaption step.
func CommVolume(g *dual.Graph, part []int32) int64 {
	k := int32(0)
	for _, p := range part {
		if p >= k {
			k = p + 1
		}
	}
	stamp := make([]int32, k)
	for i := range stamp {
		stamp[i] = -1
	}
	var vol int64
	for v := int32(0); v < int32(g.NumVerts()); v++ {
		pv := part[v]
		for _, u := range g.Neighbors(v) {
			p := part[u]
			if p != pv && stamp[p] != v {
				stamp[p] = v
				vol++
			}
		}
	}
	return vol
}
