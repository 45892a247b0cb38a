package partition

import "plum/internal/dual"

// Boundary greedy refinement and explicit rebalancing.  MeTiS applies
// "a combination of boundary greedy and Kernighan-Lin refinement" during
// uncoarsening; the greedy variant implemented here moves boundary
// vertices to the neighbouring part with the largest cut gain whenever
// the balance constraint allows it, sweeping until no improvement.

// PartWeights returns the WComp load of each part.
func PartWeights(g *dual.Graph, part []int32, k int) []int64 {
	w := make([]int64, k)
	for v, p := range part {
		w[p] += g.WComp[v]
	}
	return w
}

// MaxPartWeight returns the heaviest part load (the paper's Wmax, which
// determines solver time).
func MaxPartWeight(g *dual.Graph, part []int32, k int) int64 {
	var max int64
	for _, w := range PartWeights(g, part, k) {
		if w > max {
			max = w
		}
	}
	return max
}

// EdgeCut returns the total weight of edges crossing between parts.
func EdgeCut(g *dual.Graph, part []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(g.NumVerts()); v++ {
		wts := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if part[v] != part[u] {
				cut += wts[i]
			}
		}
	}
	return cut / 2
}

// Imbalance returns max part load divided by the ideal (average) load.
func Imbalance(g *dual.Graph, part []int32, k int) float64 {
	w := PartWeights(g, part, k)
	var max, total int64
	for _, x := range w {
		total += x
		if x > max {
			max = x
		}
	}
	if total == 0 {
		return 1
	}
	avg := float64(total) / float64(k)
	return float64(max) / avg
}

// partCaps returns each part's balance bound.  With nil shares every
// part gets the paper's uniform bound — bit-for-bit the scalar formula
// the refinement always used; with shares (hetero-aware balancing) the
// bound scales with each part's target share, so a half-speed rank's
// part fills to half the load.
func partCaps(total int64, k int, shares []float64) []int64 {
	caps := make([]int64, k)
	if shares == nil {
		m := int64(imbalanceTol * float64(total) / float64(k))
		if m < total/int64(k)+1 {
			m = total/int64(k) + 1
		}
		for i := range caps {
			caps[i] = m
		}
		return caps
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	for i := range caps {
		ideal := float64(total) * shares[i] / sum
		m := int64(imbalanceTol * ideal)
		if m < int64(ideal)+1 {
			m = int64(ideal) + 1
		}
		caps[i] = m
	}
	return caps
}

// connectivity appends to the parallel slices parts and conn each part
// present in vertex v's neighbourhood and the total edge weight from v
// to it.  Sweeps pass the previous vertex's slices resliced to zero
// length, so they allocate only while the scratch grows.
func connectivity(g *dual.Graph, part []int32, v int32, parts []int32, conn []int64) ([]int32, []int64) {
	start := len(parts)
	wts := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		p := part[u]
		found := false
		for j := start; j < len(parts); j++ {
			if parts[j] == p {
				conn[j] += wts[i]
				found = true
				break
			}
		}
		if !found {
			parts = append(parts, p)
			conn = append(conn, wts[i])
		}
	}
	return parts, conn
}

// refine performs boundary greedy sweeps: each boundary vertex moves to
// the neighbouring part with the largest positive cut gain, provided the
// destination stays under the balance bound.  Deterministic (index
// order, smallest destination part on ties).
func refine(g *dual.Graph, part []int32, k int, opt Options) {
	n := g.NumVerts()
	w := PartWeights(g, part, k)
	caps := partCaps(g.TotalWComp(), k, opt.TargetShares)
	var parts []int32
	var conn []int64
	for pass := 0; pass < maxRefinePasses; pass++ {
		moved := 0
		for v := int32(0); v < int32(n); v++ {
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
				continue // not a boundary vertex
			}
			bestPart := int32(-1)
			var bestGain int64 = 0
			for j, q := range parts {
				if q == p {
					continue
				}
				if w[q]+g.WComp[v] > caps[q] {
					continue
				}
				gain := conn[j] - internal
				if gain > bestGain || (gain == bestGain && gain > 0 && (bestPart < 0 || q < bestPart)) {
					bestGain = gain
					bestPart = q
				}
			}
			if bestPart >= 0 && bestGain > 0 {
				w[p] -= g.WComp[v]
				w[bestPart] += g.WComp[v]
				part[v] = bestPart
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// rebalance moves boundary vertices out of overweight parts into the
// part with the most headroom (preferring moves with the least cut
// damage) until every part is within its balance bound or no progress
// can be made.  Needed when the previous partition seeds repartitioning:
// the new weights may make the old assignment arbitrarily imbalanced.
func rebalance(g *dual.Graph, part []int32, k int, opt Options) {
	n := g.NumVerts()
	w := PartWeights(g, part, k)
	total := g.TotalWComp()
	caps := partCaps(total, k, opt.TargetShares)
	var parts []int32
	var conn []int64
	for iter := 0; iter < 64; iter++ {
		// Most overloaded part (largest excess over its own bound).
		hp := int32(-1)
		var hx int64
		for p, x := range w {
			if x > caps[p] && x-caps[p] > hx {
				hp, hx = int32(p), x-caps[p]
			}
		}
		if hp < 0 {
			return
		}
		// Move boundary vertices of hp to their best underweight
		// neighbouring part, best cut gain first (single sweep).
		progress := false
		for v := int32(0); v < int32(n); v++ {
			if part[v] != hp || w[hp] <= caps[hp] {
				continue
			}
			parts, conn = connectivity(g, part, v, parts[:0], conn[:0])
			var internal int64
			for j, q := range parts {
				if q == hp {
					internal = conn[j]
				}
			}
			bestPart := int32(-1)
			var bestScore int64 = -1 << 62
			for j, q := range parts {
				if q == hp || w[q]+g.WComp[v] > caps[q] {
					continue
				}
				score := conn[j] - internal - (w[q]*int64(k))/(total+1) // prefer gain, then lighter parts
				if score > bestScore {
					bestScore = score
					bestPart = q
				}
			}
			if bestPart >= 0 {
				w[hp] -= g.WComp[v]
				w[bestPart] += g.WComp[v]
				part[v] = bestPart
				progress = true
			}
		}
		if !progress {
			// Boundary moves exhausted: move any vertex of hp (graph may
			// be locally trapped); pick the part with the most headroom.
			lp := int32(0)
			for p := 1; p < k; p++ {
				if caps[p]-w[p] > caps[lp]-w[lp] {
					lp = int32(p)
				}
			}
			movedAny := false
			for v := int32(0); v < int32(n) && w[hp] > caps[hp]; v++ {
				if part[v] != hp {
					continue
				}
				if w[lp]+g.WComp[v] > caps[lp] {
					continue
				}
				w[hp] -= g.WComp[v]
				w[lp] += g.WComp[v]
				part[v] = lp
				movedAny = true
			}
			if !movedAny {
				return
			}
		}
	}
}
