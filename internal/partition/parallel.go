package partition

import (
	"plum/internal/dual"
	"plum/internal/msg"
)

// Distributed repartitioning driver (the parallel-MeTiS stand-in).
//
// The paper's Section 4.2 argues that "serial partitioners are inherently
// inefficient since they do not scale in either time or space with the
// number of processors" and runs an alpha version of parallel MeTiS.  The
// scheme implemented here follows the coarse-grained parallel multilevel
// pattern:
//
//  1. Every rank owns a contiguous block of dual-graph vertices and
//     coarsens it *recursively* with local heavy-edge matching (several
//     levels, no communication) — work shrinks roughly as 1/P.  Each
//     level is a CSR graph (xadj/adj/wgt); two such buffers, sized by the
//     block's level-0 adjacency, alternate as the current and the next
//     level, so the coarsening makes a fixed number of allocations
//     whatever the block size or the number of levels.
//  2. The host gathers each rank's fine-to-coarse map and the coarse
//     subgraph sizes, assembles the global coarse graph (resolving
//     cross-block edges), and partitions it with the serial multilevel
//     code, seeded by the previous assignment.
//  3. Coarse assignments return to their ranks, are projected through
//     the local coarsening hierarchy, and the fine assignment is
//     replicated with one gather + broadcast.
//  4. One distributed boundary-refinement sweep polishes the result.
//
// Under the simulated machine model this reproduces the paper's Fig. 6
// shape: with few processors the per-rank local coarsening dominates
// (compute bound, ~1/P); with many processors the host's coarse graph
// grows (cross-block edges cannot be matched locally) and the gather/
// broadcast latency terms grow, so the curve turns back up — a shallow
// minimum at intermediate P, "not unexpected" per the paper.

// ParallelRepartitionResult carries the new assignment plus accounting.
type ParallelRepartitionResult struct {
	Part        []int32 // new part per dual vertex (replicated on all ranks)
	CoarseVerts int     // size of the assembled coarse graph
}

// blockRange returns rank r's contiguous vertex block [lo,hi).
func blockRange(n, p, r int) (lo, hi int) {
	lo = r * n / p
	hi = (r + 1) * n / p
	return lo, hi
}

// ParallelRepartition runs the distributed repartitioning protocol on the
// calling rank.  Every rank must pass the same replicated graph and
// previous assignment (PLUM replicates the initial-mesh dual graph, whose
// size is fixed for the whole computation).  prev may be nil for an
// initial partition.  Per-rank compute costs are charged to the simulated
// clock through c.Compute.
func ParallelRepartition(c *msg.Comm, g *dual.Graph, k int, prev []int32, opt Options) ParallelRepartitionResult {
	opt = opt.withDefaults()
	n := g.NumVerts()
	p := c.Size()
	lo, hi := blockRange(n, p, c.Rank())

	// Phase 1: recursive local coarsening of the owned block down to a
	// small target (but never below a handful of vertices per part).
	target := 4 * k / p
	if target < 32 {
		target = 32
	}
	cmap, matchWork := localMultilevelCoarsen(g, lo, hi, target)
	c.Compute(matchWork)

	// Phase 2: host assembles the global coarse graph.  Each rank sends
	// its coarse vertex count, its fine->coarse block map, its coarse
	// vertex weights, and nothing else — the host derives coarse edges
	// (including cross-block ones) from the replicated fine graph.
	payload := make([]int64, 0, (hi-lo)+1)
	nlocal := int64(0)
	for _, cv := range cmap {
		if int64(cv)+1 > nlocal {
			nlocal = int64(cv) + 1
		}
	}
	if hi == lo {
		nlocal = 0
	}
	payload = append(payload, nlocal)
	for _, cv := range cmap {
		payload = append(payload, int64(cv))
	}
	blocks := c.Gather(0, msg.PutInts(payload))

	var part []int32
	if c.Rank() == 0 {
		// Build the global fine->coarse map with per-rank offsets.
		gcmap := make([]int32, n)
		offset := int32(0)
		for r := 0; r < p; r++ {
			vals := msg.GetInts(blocks[r])
			rlo, rhi := blockRange(n, p, r)
			for i := 0; i < rhi-rlo; i++ {
				gcmap[rlo+i] = offset + int32(vals[1+i])
			}
			offset += int32(vals[0])
		}
		nc := int(offset)
		coarse := dual.Contract(g, gcmap, nc)
		var cprev []int32
		if prev != nil {
			cprev = make([]int32, nc)
			for i := range cprev {
				cprev[i] = -1
			}
			for v, cv := range gcmap {
				if cprev[cv] < 0 {
					cprev[cv] = prev[v]
				}
			}
		}
		var cpart []int32
		if cprev != nil {
			cpart = Repartition(coarse, k, cprev, opt)
		} else {
			cpart = Partition(coarse, k, opt)
		}
		part = dual.ProjectPartition(cpart, gcmap)
		// Host compute charge: contraction over the fine adjacency plus
		// multilevel partitioning of the coarse graph.
		c.Compute(0.3*float64(len(g.Adjncy)) + 2.0*float64(len(coarse.Adjncy)))
		// Stash the coarse size for the result (broadcast below).
		part = append(part, int32(nc))
	}

	// Phase 3: replicate the fine assignment (one broadcast of n words).
	flat := make([]int64, 0, n+1)
	if c.Rank() == 0 {
		for _, x := range part {
			flat = append(flat, int64(x))
		}
	}
	flat = c.BcastInts(0, flat)
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(flat[i])
	}
	coarseVerts := int(flat[n])

	// Phase 4: one distributed boundary-refinement sweep over the owned
	// block (each rank refines its block against the replicated
	// assignment; moves are combined by allgather).  This mirrors the
	// graph-coloring-parallelized refinement of parallel MeTiS at a
	// coarse grain.
	var blockEdges int64
	for v := lo; v < hi; v++ {
		blockEdges += int64(g.Degree(int32(v)))
	}
	moves := refineBlock(g, out, k, lo, hi, opt)
	c.Compute(0.3 * float64(blockEdges))
	moveWords := make([]int64, 0, 2*len(moves))
	for _, mv := range moves {
		moveWords = append(moveWords, int64(mv[0]), int64(mv[1]))
	}
	allMoves := c.Allgather(msg.PutInts(moveWords))
	for r := 0; r < p; r++ {
		words := msg.GetInts(allMoves[r])
		for i := 0; i+1 < len(words); i += 2 {
			out[words[i]] = int32(words[i+1])
		}
	}
	return ParallelRepartitionResult{Part: out, CoarseVerts: coarseVerts}
}

// csrLevel is one level of the local coarsening hierarchy: row v's
// neighbours are adj[xadj[v]:xadj[v+1]], with edge weights at the same
// positions of wgt.
type csrLevel struct {
	xadj, adj []int32
	wgt       []int64
}

// localMultilevelCoarsen recursively applies heavy-edge matching to the
// subgraph induced on [lo,hi) until at most target coarse vertices
// remain or matching stalls.  Returns the block-relative fine-to-coarse
// map and the abstract work performed (edges visited).
//
// Levels only shrink, so the two CSR buffers sized by the block's
// level-0 adjacency serve every level.  Coarse vertex cv's row is built
// from its (at most two) fine members in ascending order, merging
// parallel edges at their first occurrence through a per-coarse-vertex
// slot array.  Matching picks the heaviest edge, then the lowest id, so
// cmap does not depend on the order within a row, and work counts
// edges, so it is exact in any order.
func localMultilevelCoarsen(g *dual.Graph, lo, hi, target int) (cmap []int32, work float64) {
	nloc := hi - lo
	cmap = make([]int32, nloc)
	for i := range cmap {
		cmap[i] = int32(i)
	}
	if nloc == 0 {
		return cmap, 0
	}
	// Level-0 adjacency restricted to the block, in block-relative ids.
	nnz := int(g.Xadj[hi] - g.Xadj[lo])
	cur := csrLevel{make([]int32, 1, nloc+1), make([]int32, 0, nnz), make([]int64, 0, nnz)}
	for v := lo; v < hi; v++ {
		wts := g.EdgeWeights(int32(v))
		for i, u := range g.Neighbors(int32(v)) {
			if int(u) >= lo && int(u) < hi {
				cur.adj = append(cur.adj, u-int32(lo))
				cur.wgt = append(cur.wgt, wts[i])
			}
		}
		cur.xadj = append(cur.xadj, int32(len(cur.adj)))
	}
	next := csrLevel{make([]int32, 0, nloc+1), make([]int32, 0, nnz), make([]int64, 0, nnz)}
	match := make([]int32, nloc)
	lmap := make([]int32, nloc)
	first := make([]int32, nloc) // first[cv]: the lower fine member of coarse vertex cv
	slot := make([]int32, nloc)  // slot[cu]: cu's position in next.adj, if in the row being built
	ncur := nloc
	for ncur > target {
		// Heavy-edge matching on the current level.
		match := match[:ncur]
		for i := range match {
			match[i] = -1
		}
		for v := 0; v < ncur; v++ {
			row := cur.xadj[v]
			nbs := cur.adj[row:cur.xadj[v+1]]
			work += float64(len(nbs))
			if match[v] >= 0 {
				continue
			}
			best := int32(-1)
			var bestW int64 = -1
			for i, u := range nbs {
				if match[u] >= 0 || u == int32(v) {
					continue
				}
				if w := cur.wgt[int(row)+i]; w > bestW || (w == bestW && u < best) {
					best, bestW = u, w
				}
			}
			if best >= 0 {
				match[v] = best
				match[best] = int32(v)
			} else {
				match[v] = int32(v)
			}
		}
		lmap := lmap[:ncur]
		for i := range lmap {
			lmap[i] = -1
		}
		var nc int32
		for v := 0; v < ncur; v++ {
			if lmap[v] >= 0 {
				continue
			}
			lmap[v] = nc
			first[nc] = int32(v)
			if match[v] != int32(v) {
				lmap[match[v]] = nc
			}
			nc++
		}
		// Stop when the reduction rate stalls (contracted slab graphs can
		// develop star structures where strict matching absorbs only one
		// leaf per level); the host absorbs the larger coarse graph, as
		// real multilevel partitioners do.
		if float64(nc) > 0.85*float64(ncur) {
			break
		}
		// Contract the level.  Slots written for earlier rows point below
		// the current row's start, so they need no clearing between rows.
		slot := slot[:nc]
		for i := range slot {
			slot[i] = -1
		}
		next.xadj = append(next.xadj[:0], 0)
		next.adj, next.wgt = next.adj[:0], next.wgt[:0]
		for cv := int32(0); cv < nc; cv++ {
			rowStart := int32(len(next.adj))
			v := first[cv]
			members := [2]int32{v, match[v]}
			nm := 2
			if match[v] == v {
				nm = 1
			}
			for _, f := range members[:nm] {
				for i := cur.xadj[f]; i < cur.xadj[f+1]; i++ {
					cu := lmap[cur.adj[i]]
					if cu == cv {
						continue
					}
					if s := slot[cu]; s >= rowStart {
						next.wgt[s] += cur.wgt[i]
					} else {
						slot[cu] = int32(len(next.adj))
						next.adj = append(next.adj, cu)
						next.wgt = append(next.wgt, cur.wgt[i])
					}
					work += 0.5
				}
			}
			next.xadj = append(next.xadj, int32(len(next.adj)))
		}
		// Compose into cmap.
		for i := range cmap {
			cmap[i] = lmap[cmap[i]]
		}
		cur, next = next, cur
		ncur = int(nc)
	}
	return cmap, work
}

// refineBlock computes greedy boundary moves for vertices in [lo,hi)
// against the full assignment, respecting the balance bound with global
// weights.  It mutates part for local decisions and returns the (vertex,
// newPart) moves made.
func refineBlock(g *dual.Graph, part []int32, k, lo, hi int, opt Options) [][2]int32 {
	w := PartWeights(g, part, k)
	caps := partCaps(g.TotalWComp(), k, opt.ImbalanceTol, opt.TargetShares)
	var moves [][2]int32
	var parts []int32
	var conn []int64
	for v := int32(lo); v < int32(hi); v++ {
		p := part[v]
		parts, conn = connectivity(g, part, v, parts[:0], conn[:0])
		var internal int64
		external := false
		for j, q := range parts {
			if q == p {
				internal = conn[j]
			} else {
				external = true
			}
		}
		if !external {
			continue
		}
		bestPart := int32(-1)
		var bestGain int64 = 0
		for j, q := range parts {
			if q == p || w[q]+g.WComp[v] > caps[q] {
				continue
			}
			gain := conn[j] - internal
			if gain > bestGain {
				bestGain = gain
				bestPart = q
			}
		}
		if bestPart >= 0 && bestGain > 0 {
			w[p] -= g.WComp[v]
			w[bestPart] += g.WComp[v]
			part[v] = bestPart
			moves = append(moves, [2]int32{v, bestPart})
		}
	}
	return moves
}
