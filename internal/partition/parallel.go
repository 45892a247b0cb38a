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
//     coarsens it *recursively* (several levels, no communication) —
//     work shrinks roughly as 1/P.  The levels use the serial
//     partitioner's coarsener, heavyEdgeMatching plus dual.Contract,
//     contracting into two alternating dual.Graph buffers sized by the
//     block's level-0 adjacency, so the coarsening makes a fixed number
//     of allocations whatever the block size or the number of levels.
//  2. The host gathers each rank's fine-to-coarse map and the coarse
//     subgraph sizes, assembles the global coarse graph with the same
//     dual.Contract (resolving cross-block edges), and partitions it
//     with the serial multilevel code, seeded by the previous
//     assignment when there is one.
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
	blocks := c.Gather(0, msg.PutInts(payload), make([][]byte, p))

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
		c.ReleaseParts(blocks)
		nc := int(offset)
		coarse, _ := dual.Contract(g, gcmap, nc, nil)
		cpart := Repartition(coarse, k, coarsePrev(prev, gcmap, nc), opt)
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
	allMoves := c.Allgather(msg.PutInts(moveWords), make([][]byte, p))
	for r := 0; r < p; r++ {
		words := msg.GetInts(allMoves[r])
		for i := 0; i+1 < len(words); i += 2 {
			out[words[i]] = int32(words[i+1])
		}
	}
	c.ReleaseAllgather(allMoves)
	return ParallelRepartitionResult{Part: out, CoarseVerts: coarseVerts}
}

// localMultilevelCoarsen recursively applies heavy-edge matching to the
// subgraph induced on [lo,hi) until at most target coarse vertices
// remain or matching stalls.  Returns the block-relative fine-to-coarse
// map and the abstract work performed: every adjacency entry the
// matching visits counts 1, every one the contraction folds counts 0.5.
//
// Levels only shrink, so two dual.Graph buffers sized by the block's
// level-0 adjacency alternate as the current level and dual.Contract's
// target, and the coarsening makes a fixed number of allocations
// whatever the block size or the number of levels.
func localMultilevelCoarsen(g *dual.Graph, lo, hi, target int) (cmap []int32, work float64) {
	nloc := hi - lo
	cmap = make([]int32, nloc)
	for i := range cmap {
		cmap[i] = int32(i)
	}
	if nloc == 0 {
		return cmap, 0
	}
	nnz := int(g.Xadj[hi] - g.Xadj[lo])
	buffer := func() *dual.Graph {
		return &dual.Graph{Xadj: make([]int32, 0, nloc+1), Adjncy: make([]int32, 0, nnz),
			AdjWgt: make([]int64, 0, nnz), WComp: make([]int64, 0, nloc), WRemap: make([]int64, 0, nloc)}
	}
	cur, next := buffer(), buffer()
	// Level 0: the subgraph induced on the block, in block-relative ids.
	cur.Xadj = append(cur.Xadj, 0)
	for v := lo; v < hi; v++ {
		wts := g.EdgeWeights(int32(v))
		for i, u := range g.Neighbors(int32(v)) {
			if int(u) >= lo && int(u) < hi {
				cur.Adjncy = append(cur.Adjncy, u-int32(lo))
				cur.AdjWgt = append(cur.AdjWgt, wts[i])
			}
		}
		cur.Xadj = append(cur.Xadj, int32(len(cur.Adjncy)))
	}
	cur.WComp = append(cur.WComp, g.WComp[lo:hi]...)
	cur.WRemap = append(cur.WRemap, g.WRemap[lo:hi]...)
	match := make([]int32, nloc)
	lmap := make([]int32, nloc)
	for ncur := nloc; ncur > target; ncur = cur.NumVerts() {
		nc := heavyEdgeMatching(cur, match[:ncur], lmap[:ncur])
		work += float64(len(cur.Adjncy))
		// Stop when the reduction rate stalls (contracted slab graphs can
		// develop star structures where strict matching absorbs only one
		// leaf per level); the host absorbs the larger coarse graph, as
		// real multilevel partitioners do.
		if float64(nc) > 0.85*float64(ncur) {
			break
		}
		_, folded := dual.Contract(cur, lmap[:ncur], nc, next)
		work += 0.5 * float64(folded)
		for i := range cmap {
			cmap[i] = lmap[cmap[i]]
		}
		cur, next = next, cur
	}
	return cmap, work
}

// refineBlock computes greedy boundary moves for vertices in [lo,hi)
// against the full assignment, respecting the balance bound with global
// weights.  It mutates part for local decisions and returns the (vertex,
// newPart) moves made.
func refineBlock(g *dual.Graph, part []int32, k, lo, hi int, opt Options) [][2]int32 {
	w := PartWeights(g, part, k)
	caps := partCaps(g.TotalWComp(), k, opt.TargetShares)
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
