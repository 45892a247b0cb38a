package remap

// The Section 4.5/4.6 gain/cost decision behind one interface: a Pricer
// prices both sides of a candidate remapping, and Accept is the verdict.

import "plum/internal/machine"

// Decision is what every pricing of a candidate remapping reads.
type Decision struct {
	Metric           Metric
	NAdapt           int   // solver iterations until the next adaption
	WOldMax, WNewMax int64 // heaviest-rank loads, old and new owners
	S                *Similarity
	Assign           []int32  // partition -> processor
	Moved            MoveCost // Cost(S, Assign)
}

// Pricer returns the solver time a remapping is predicted to save (gain)
// and the time moving its data costs.  Name labels the pricing in run
// ledgers.
type Pricer interface {
	Name() string
	Price(Decision) (gain, cost float64)
}

// Analytic is the paper's pricing from machine constants:
// ComputationalGain, with RedistributionCost on a uniform Topo and
// RedistributionCostTopo on a non-uniform one.
type Analytic struct {
	Machine Machine
	Topo    machine.Model
}

func (Analytic) Name() string { return "analytic" }

func (a Analytic) Price(d Decision) (gain, cost float64) {
	gain = ComputationalGain(a.Machine, d.NAdapt, d.WOldMax, d.WNewMax, 0)
	if machine.Uniform(a.Topo) {
		// Uniform topologies (flat, a single SMP node) keep the paper's
		// scalar pricing: the two formulas are calibrated differently,
		// and switching on a network with no pair structure would
		// silently change the paper's accept/reject decisions, which the
		// golden tests in internal/core pin.
		return gain, RedistributionCost(d.Metric, d.Moved, a.Machine)
	}
	return gain, RedistributionCostTopo(d.Metric, d.S, d.Assign, a.Machine, a.Topo)
}

// Measured prices both sides from the previous epoch's measurements.
// The gain scales the measured solve-phase time per iteration — waits
// and contention included — by the heaviest-rank load reduction:
//
//	gain = PerIter * NAdapt * (WOldMax - WNewMax) / WOldMax.
//
// The cost is RedistributionCostTopo's, with each pair's link constants
// taken from Rates, calibrated per hop class from the epoch's sends
// (machine.CalibrateRates).  An unobserved class borrows the nearest
// observed one, and an empty table falls back to Topo's Pair constants,
// so a quiet epoch cannot zero-price a remapping.
type Measured struct {
	Machine Machine
	Topo    machine.Model
	PerIter float64 // measured solve-phase seconds per iteration
	Rates   machine.RateTable
}

func (Measured) Name() string { return "measured" }

func (m Measured) Price(d Decision) (gain, cost float64) {
	if d.WOldMax > 0 {
		gain = m.PerIter * float64(d.NAdapt) * float64(d.WOldMax-d.WNewMax) / float64(d.WOldMax)
	}
	cost = pairCost(d.Metric, d.S, d.Assign, m.Machine, func(i, q int) machine.LinkParams {
		return m.Rates.For(m.Topo.Hops(i, q), m.Topo.Pair(i, q))
	})
	return gain, cost
}

// pairCost is RedistributionCostTopo with pair (i, q)'s link constants
// given by link.
func pairCost(metric Metric, s *Similarity, assign []int32, mach Machine, link func(i, q int) machine.LinkParams) float64 {
	perRank := make([]float64, s.P)
	var total float64
	for i := 0; i < s.P; i++ {
		for j := 0; j < s.NParts(); j++ {
			w := s.S[i][j]
			if w == 0 {
				continue
			}
			q := int(assign[j])
			if q == i {
				continue
			}
			lp := link(i, q)
			t := lp.Setup + float64(mach.M)*float64(w)*wordBytes*lp.PerByte + lp.Latency
			total += t
			perRank[i] += t
			perRank[q] += t
		}
	}
	if metric == TotalV {
		return total
	}
	var max float64
	for _, t := range perRank {
		if t > max {
			max = t
		}
	}
	return max
}
