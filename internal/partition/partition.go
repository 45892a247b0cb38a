package partition

import (
	"fmt"
	"math"
	"slices"

	"plum/internal/dual"
)

// Partitioner tuning, fixed for every caller.
const (
	// imbalanceTol is the allowed ratio of the heaviest part to its
	// target weight (MeTiS default 1.03; we use 1.05).
	imbalanceTol = 1.05
	// maxRefinePasses bounds boundary refinement sweeps per level.
	maxRefinePasses = 8
)

// coarsenTarget is the vertex count at which coarsening stops for k
// parts.
func coarsenTarget(k int) int { return max(128, 16*k) }

// Options carries per-call partitioner inputs; the zero value is the
// paper's uniform machine.
type Options struct {
	// TargetShares, when non-nil, holds one relative target weight per
	// part (length k): part j's target load is total*TargetShares[j]/sum.
	// Heterogeneous machines set shares proportional to processor speed
	// (machine.SpeedShares) so slow ranks receive proportionally less
	// work.  Nil means equal shares — the paper's uniform machine.
	TargetShares []float64
}

// Partition divides g into k parts balanced by WComp, minimizing edge
// cut.  The result maps each vertex to a part in [0,k).
func Partition(g *dual.Graph, k int, opt Options) []int32 {
	return Repartition(g, k, nil, opt)
}

// level is one rung of the multilevel hierarchy.
type level struct {
	g    *dual.Graph
	cmap []int32 // fine vertex -> coarse vertex of the next level
}

// Repartition divides g into k parts using prev (the current assignment)
// as the initial guess, so the new partition stays close to the old one
// and the eventual remapping cost is small; a nil prev partitions from
// scratch.  It runs coarsen / initial-partition / uncoarsen+refine.
func Repartition(g *dual.Graph, k int, prev []int32, opt Options) []int32 {
	if prev != nil && len(prev) != g.NumVerts() {
		panic(fmt.Sprintf("partition: prev length %d != vertices %d", len(prev), g.NumVerts()))
	}
	if k <= 0 {
		panic("partition: k must be positive")
	}
	if opt.TargetShares != nil && len(opt.TargetShares) != k {
		panic(fmt.Sprintf("partition: %d target shares for %d parts", len(opt.TargetShares), k))
	}
	if k == 1 {
		return make([]int32, g.NumVerts())
	}
	if k >= g.NumVerts() {
		// Degenerate: one vertex per part.
		part := make([]int32, g.NumVerts())
		for i := range part {
			part[i] = int32(i)
		}
		return part
	}

	var levels []level
	cur, curPrev := g, prev
	match := make([]int32, g.NumVerts())
	for cur.NumVerts() > coarsenTarget(k) {
		n := cur.NumVerts()
		cmap := make([]int32, n)
		nc := heavyEdgeMatching(cur, match[:n], cmap)
		if nc >= n { // matching stalled
			break
		}
		levels = append(levels, level{g: cur, cmap: cmap})
		cur, _ = dual.Contract(cur, cmap, nc, nil)
		curPrev = coarsePrev(curPrev, cmap, nc)
	}

	// Initial partition on the coarsest graph.
	var part []int32
	if curPrev != nil {
		part = slices.Clone(curPrev)
	} else {
		part = greedyGrow(cur, k, opt.TargetShares)
	}
	rebalance(cur, part, k, opt)
	refine(cur, part, k, opt)

	// Uncoarsen: project and refine each finer level.
	for li := len(levels) - 1; li >= 0; li-- {
		part = dual.ProjectPartition(part, levels[li].cmap)
		rebalance(levels[li].g, part, k, opt)
		refine(levels[li].g, part, k, opt)
	}
	return part
}

// heavyEdgeMatching matches each vertex, visited in index order, with
// the unmatched neighbour it shares the heaviest edge with (ties to the
// lower id; a vertex with none stays single) and writes the
// fine-to-coarse map into cmap, numbering coarse vertices in the order
// of their lower member.  match is scratch; both have g.NumVerts()
// entries.  Returns the coarse vertex count.  Every coarsening path —
// the serial levels and the per-rank block levels — matches here.
func heavyEdgeMatching(g *dual.Graph, match, cmap []int32) int {
	n := int32(g.NumVerts())
	for i := range match {
		match[i] = -1
	}
	for v := int32(0); v < n; v++ {
		if match[v] >= 0 {
			continue
		}
		best, bestW := int32(-1), int64(-1)
		wts := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if match[u] >= 0 || u == v {
				continue
			}
			if wts[i] > bestW || (wts[i] == bestW && u < best) {
				best, bestW = u, wts[i]
			}
		}
		if best < 0 {
			best = v
		}
		match[v], match[best] = best, v
	}
	var nc int32
	for v := int32(0); v < n; v++ {
		if m := match[v]; m < v {
			cmap[v] = cmap[m]
		} else {
			cmap[v] = nc
			nc++
		}
	}
	return int(nc)
}

// coarsePrev gives each of nc coarse vertices the previous part of its
// lowest fine member; a nil prev (no previous assignment) stays nil.
func coarsePrev(prev, cmap []int32, nc int) []int32 {
	if prev == nil {
		return nil
	}
	cp := make([]int32, nc)
	for v := len(cmap) - 1; v >= 0; v-- {
		cp[cmap[v]] = prev[v]
	}
	return cp
}

// greedyGrow produces an initial k-way partition by greedy graph growing:
// regions are grown one at a time from an unassigned seed, preferring
// frontier vertices most connected to the region, until each reaches the
// target weight — uniform, or proportional to shares when given.
func greedyGrow(g *dual.Graph, k int, shares []float64) []int32 {
	n := g.NumVerts()
	part := make([]int32, n)
	for i := range part {
		part[i] = -1
	}
	var shareSuffix []float64 // shareSuffix[p] = sum(shares[p:])
	if shares != nil {
		shareSuffix = make([]float64, k+1)
		for p := k - 1; p >= 0; p-- {
			shareSuffix[p] = shareSuffix[p+1] + shares[p]
		}
	}
	total := g.TotalWComp()
	assignedW := int64(0)
	assignedN := 0
	for p := int32(0); p < int32(k-1); p++ {
		var targetW int64
		if shares == nil {
			remainingParts := int64(k) - int64(p)
			targetW = (total - assignedW + remainingParts - 1) / remainingParts
		} else {
			targetW = int64(math.Ceil(float64(total-assignedW) * shares[p] / shareSuffix[p]))
		}
		// Seed: first unassigned vertex (deterministic).
		seed := int32(-1)
		for v := int32(0); v < int32(n); v++ {
			if part[v] < 0 {
				seed = v
				break
			}
		}
		if seed < 0 {
			break
		}
		// Grow by repeatedly taking the frontier vertex with the largest
		// connection to the region.
		conn := make(map[int32]int64) // unassigned frontier vertex -> connectivity
		take := func(v int32) {
			part[v] = p
			assignedW += g.WComp[v]
			assignedN++
			delete(conn, v)
			wts := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if part[u] < 0 {
					conn[u] += wts[i]
				}
			}
		}
		take(seed)
		regionW := g.WComp[seed]
		for regionW < targetW && len(conn) > 0 {
			best := int32(-1)
			var bestC int64 = -1
			for u, c := range conn {
				if c > bestC || (c == bestC && (best < 0 || u < best)) {
					best, bestC = u, c
				}
			}
			take(best)
			regionW += g.WComp[best]
		}
		// Region became disconnected from the unassigned remainder; the
		// next seed scan handles it.
	}
	for v := int32(0); v < int32(n); v++ {
		if part[v] < 0 {
			part[v] = int32(k - 1)
		}
	}
	return part
}
