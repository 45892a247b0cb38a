package remap

import (
	"testing"

	"plum/internal/machine"
)

// swapDecision moves partition 0's block on p1 and partition 1's block
// on p0 (weights 3 and 5) and retains the rest, on a 4-rank machine.
func swapDecision(metric Metric, assign []int32) Decision {
	s := NewSimilarity(4, 1)
	s.S[0] = []int64{10, 5, 0, 0}
	s.S[1] = []int64{3, 10, 0, 0}
	s.S[2] = []int64{0, 0, 10, 0}
	s.S[3] = []int64{0, 0, 0, 10}
	return Decision{Metric: metric, NAdapt: 4, WOldMax: 100, WNewMax: 75,
		S: s, Assign: assign, Moved: Cost(s, assign)}
}

// TestAnalyticFlatIsScalar: on a uniform machine Analytic is the
// paper's scalar pricing, bitwise.
func TestAnalyticFlatIsScalar(t *testing.T) {
	mach := SP2Machine()
	a := Analytic{Machine: mach, Topo: machine.NewFlat(4, machine.SP2Link())}
	for _, metric := range []Metric{TotalV, MaxV} {
		d := swapDecision(metric, []int32{0, 1, 2, 3})
		gain, cost := a.Price(d)
		if want := ComputationalGain(mach, d.NAdapt, d.WOldMax, d.WNewMax, 0); gain != want {
			t.Errorf("%v: gain %v, want %v", metric, gain, want)
		}
		if want := RedistributionCost(metric, d.Moved, mach); cost != want {
			t.Errorf("%v: cost %v, want %v", metric, cost, want)
		}
	}
}

// TestAnalyticSMPIsPerPair: on a non-uniform machine Analytic prices
// the move with the per-pair link constants.
func TestAnalyticSMPIsPerPair(t *testing.T) {
	mach := SP2Machine()
	smp := smp4x2()
	a := Analytic{Machine: mach, Topo: smp}
	for _, metric := range []Metric{TotalV, MaxV} {
		d := swapDecision(metric, []int32{2, 3, 0, 1})
		gain, cost := a.Price(d)
		if want := ComputationalGain(mach, d.NAdapt, d.WOldMax, d.WNewMax, 0); gain != want {
			t.Errorf("%v: gain %v, want %v", metric, gain, want)
		}
		if want := RedistributionCostTopo(metric, d.S, d.Assign, mach, smp); cost != want {
			t.Errorf("%v: cost %v, want %v", metric, cost, want)
		}
		if scalar := RedistributionCost(metric, d.Moved, mach); cost == scalar {
			t.Errorf("%v: per-pair cost equals the scalar one (%v)", metric, cost)
		}
	}
}

// TestMeasuredByHand prices the identity assignment, whose two
// transfers (p0 -> p1 weight 5, p1 -> p0 weight 3) stay inside node 0
// (hop class 1), from hand-chosen rates:
//
//	t(w) = Setup + M*w*8*PerByte + Latency = 1 + 2*w*8*0.25 + 2 = 3 + 4w,
//
// so the transfers cost 23 and 15: TotalV 38, and MaxV 38 too, because
// p0 and p1 each send one and receive the other.
func TestMeasuredByHand(t *testing.T) {
	class1 := machine.LinkParams{Setup: 1, PerByte: 0.25, Latency: 2}
	m := Measured{Machine: Machine{M: 2}, Topo: smp4x2(), PerIter: 0.5,
		Rates: machine.RateTable{ByHops: map[int]machine.RateObs{1: {LinkParams: class1}}}}
	for _, metric := range []Metric{TotalV, MaxV} {
		gain, cost := m.Price(swapDecision(metric, []int32{0, 1, 2, 3}))
		// 0.5 s/iter * 4 iters * (100-75)/100.
		if gain != 0.5 {
			t.Errorf("%v: gain %v, want 0.5", metric, gain)
		}
		if cost != 38 {
			t.Errorf("%v: cost %v, want 38", metric, cost)
		}
	}
}

// TestMeasuredBorrowsNearestClass: the cross-node assignment moves
// every block over 3 hops, a class the table never observed, so each
// transfer borrows the nearest observed class — the larger one on a
// distance tie.
func TestMeasuredBorrowsNearestClass(t *testing.T) {
	near := machine.LinkParams{Setup: 1, PerByte: 0.25, Latency: 2}
	far := machine.LinkParams{Setup: 3, PerByte: 0.5, Latency: 1}
	cross := []int32{2, 3, 0, 1}
	cases := []struct {
		name  string
		rates map[int]machine.RateObs
		want  float64 // TotalV over weights 10, 5, 3, 10, 10, 10 = 48
	}{
		// 6 transfers * (1+2) + 2*48*8*0.25.
		{"only class 1", map[int]machine.RateObs{1: {LinkParams: near}}, 6*3 + 2*48*8*0.25},
		// Classes 1 and 5 are both 2 hops away: 5 wins.
		{"tie 1 vs 5", map[int]machine.RateObs{1: {LinkParams: near}, 5: {LinkParams: far}}, 6*4 + 2*48*8*0.5},
	}
	for _, tc := range cases {
		m := Measured{Machine: Machine{M: 2}, Topo: smp4x2(), Rates: machine.RateTable{ByHops: tc.rates}}
		if _, cost := m.Price(swapDecision(TotalV, cross)); cost != tc.want {
			t.Errorf("%s: cost %v, want %v", tc.name, cost, tc.want)
		}
	}
}

// TestMeasuredEmptyTableIsPerPair: with no calibrated class every
// transfer falls back to the machine's own Pair constants, which is
// RedistributionCostTopo bitwise.
func TestMeasuredEmptyTableIsPerPair(t *testing.T) {
	mach := SP2Machine()
	smp := smp4x2()
	m := Measured{Machine: mach, Topo: smp}
	for _, metric := range []Metric{TotalV, MaxV} {
		for _, assign := range [][]int32{{0, 1, 2, 3}, {2, 3, 0, 1}} {
			d := swapDecision(metric, assign)
			_, cost := m.Price(d)
			if want := RedistributionCostTopo(metric, d.S, d.Assign, mach, smp); cost != want {
				t.Errorf("%v %v: cost %v, want %v", metric, assign, cost, want)
			}
		}
	}
}

// TestMeasuredZeroOldLoad: with no old load there is nothing to scale,
// so the gain is zero, not a division by zero.
func TestMeasuredZeroOldLoad(t *testing.T) {
	m := Measured{Machine: SP2Machine(), Topo: smp4x2(), PerIter: 0.5}
	d := swapDecision(TotalV, []int32{0, 1, 2, 3})
	d.WOldMax, d.WNewMax = 0, 0
	if gain, _ := m.Price(d); gain != 0 {
		t.Errorf("gain %v, want 0", gain)
	}
}
