package remap

// Measured-cost pricing: the Section 4.5/4.6 gain/cost decision with
// both sides replaced by quantities the event engine measured during
// the previous epoch, instead of the hand-calibrated machine constants
// the paper had to assume.  The analytic forms remain the fallback —
// and the first epoch of every run, which has no profile yet, prices
// exactly as the paper does.

import "plum/internal/machine"

// MeasuredGain returns the solver time the new assignment is predicted
// to save over the next nadapt iterations, priced from measurement: the
// solve phase under the current mapping took perIter simulated seconds
// per iteration — halo waits, collectives, and contention included —
// and solver time tracks the heaviest-rank load, so rebalancing from
// woldMax to wnewMax scales it by wnewMax/woldMax:
//
//	gain = perIter * nadapt * (woldMax - wnewMax) / woldMax.
//
// This replaces the analytic Titer (seconds per iteration per element,
// a constant the paper calibrated once) with the per-iteration cost the
// simulator actually charged, which on a congested or heterogeneous
// machine can differ from the constant by a large factor.
func MeasuredGain(perIter float64, nadapt int, woldMax, wnewMax int64) float64 {
	if woldMax <= 0 {
		return 0
	}
	return perIter * float64(nadapt) * float64(woldMax-wnewMax) / float64(woldMax)
}

// RedistributionCostMeasured is the Section 4.5 redistribution estimate
// priced with link rates calibrated from the previous epoch's observed
// sends (machine.CalibrateRates): each transfer (processor i ->
// assign[j], weight w) crossing h network hops costs
//
//	Setup_h + M * w * wordBytes * PerByte_h + Latency_h
//
// with (Setup_h, PerByte_h, Latency_h) the measured rates of hop class
// h — contention queueing included, because the calibration reads
// arrival delays from the trace.  Hop classes never observed fall back
// to the machine model's own Pair constants, so a quiet epoch cannot
// zero-price a remapping.  TotalV
// sums every transfer; MaxV takes the bottleneck processor's
// serialized send+receive time — the same aggregation as the analytic
// RedistributionCostTopo.
func RedistributionCostMeasured(metric Metric, s *Similarity, assign []int32,
	mach Machine, topo machine.Model, rates machine.RateTable) float64 {

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
			lp := rates.For(topo.Hops(i, q), topo.Pair(i, q))
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
