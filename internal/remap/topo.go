package remap

// Topology-aware processor reassignment.  The paper's mappers maximize
// retained weight under the implicit assumption that every move costs
// the same; on an SMP cluster or a fat tree that is false — moving an
// element one hop (same node) is nearly free while moving it across the
// machine is not.  This file prices movement by network distance
// (hop-weighted TotalV/MaxV), derives a hop-discounted similarity matrix
// so the exact MWBG machinery can optimize against it, and prices the
// Section 4.5 redistribution estimate with per-pair link constants.

import "plum/internal/machine"

// HopCost is the hop-weighted analogue of MoveCost: each moved weight
// unit counts once per network hop it crosses.
type HopCost struct {
	TotalHV int64 // sum over transfers of weight * hops (hop-weighted TotalV)
	MaxHV   int64 // bottleneck rank's max(sent, received) hop-weighted volume
}

// HopWeightedCost evaluates assignment partToProc against similarity
// matrix s on machine m: the movement metrics of Section 4.4 with every
// transfer scaled by the hop distance it travels.
func HopWeightedCost(s *Similarity, partToProc []int32, m machine.Model) HopCost {
	var hc HopCost
	sent := make([]int64, s.P)
	recv := make([]int64, s.P)
	for i := 0; i < s.P; i++ {
		for j := 0; j < s.NParts(); j++ {
			w := s.S[i][j]
			if w == 0 {
				continue
			}
			dst := int(partToProc[j])
			if dst == i {
				continue
			}
			hv := w * int64(m.Hops(i, dst))
			hc.TotalHV += hv
			sent[i] += hv
			recv[dst] += hv
		}
	}
	for i := 0; i < s.P; i++ {
		v := sent[i]
		if recv[i] > v {
			v = recv[i]
		}
		if v > hc.MaxHV {
			hc.MaxHV = v
		}
	}
	return hc
}

// maxHops returns the largest pairwise hop distance on m.
func maxHops(m machine.Model, p int) int {
	h := 0
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if d := m.Hops(i, j); d > h {
				h = d
			}
		}
	}
	return h
}

// HopDiscounted builds the derived similarity matrix of the topology-
// aware mapper: entry (i, j) is the hop-discounted profit of assigning
// partition j to processor i,
//
//	D[i][j] = sum_k S[k][j] * (Hmax - Hops(k, i)),
//
// so retained weight (0 hops) earns the full Hmax and weight dragged
// across the machine earns nothing.  Maximizing total profit over a
// valid assignment minimizes the hop-weighted total movement, which
// reduces to the paper's objective F when every pair is equidistant.
func HopDiscounted(s *Similarity, m machine.Model) *Similarity {
	hmax := int64(maxHops(m, s.P))
	d := NewSimilarity(s.P, s.F)
	for j := 0; j < s.NParts(); j++ {
		for k := 0; k < s.P; k++ {
			w := s.S[k][j]
			if w == 0 {
				continue
			}
			for i := 0; i < s.P; i++ {
				d.S[i][j] += w * (hmax - int64(m.Hops(k, i)))
			}
		}
	}
	return d
}

// TopoMWBG solves the hop-discounted assignment exactly (Hungarian on
// the HopDiscounted matrix): the optimal-TotalV mapper generalized to a
// non-flat machine.
func TopoMWBG(s *Similarity, m machine.Model) []int32 {
	return OptimalMWBG(HopDiscounted(s, m))
}

// TopoAssign is the MapTopo mapper: it evaluates the hop-discounted
// optimum alongside the flat-machine candidates and returns the
// assignment with the lowest hop-weighted MaxV (ties broken by
// hop-weighted TotalV).  Because the hop-oblivious heuristic is itself a
// candidate, MapTopo is never worse than HeuMWBG under the hop-weighted
// metrics.
func TopoAssign(s *Similarity, m machine.Model) []int32 {
	candidates := [][]int32{TopoMWBG(s, m), HeuristicMWBG(s), OptimalMWBG(s)}
	var best []int32
	var bestHC HopCost
	for _, cand := range candidates {
		hc := HopWeightedCost(s, cand, m)
		if best == nil || hc.MaxHV < bestHC.MaxHV ||
			(hc.MaxHV == bestHC.MaxHV && hc.TotalHV < bestHC.TotalHV) {
			best, bestHC = cand, hc
		}
	}
	return best
}

// wordBytes converts the machine model's per-byte link costs to the
// per-word element storage of Section 4.5's M constant.
const wordBytes = 8

// RedistributionCostTopo is the Section 4.5 redistribution estimate
// priced with per-pair link constants instead of the flat Tlat/Tsetup
// scalars: each transfer (processor i -> q = assign[j], weight w) costs
//
//	Setup(i,q) + M * w * wordBytes * PerByte(i,q) + Latency(i,q).
//
// TotalV sums every transfer (network-wide traffic); MaxV takes the
// bottleneck processor's serialized send+receive time.
func RedistributionCostTopo(metric Metric, s *Similarity, assign []int32, mach Machine, m machine.Model) float64 {
	return pairCost(metric, s, assign, mach, m.Pair)
}
