package core

import (
	"testing"

	"plum/internal/machine"
	"plum/internal/partition"
)

// Hetero-aware balancing (the ROADMAP item): with the hetero machine
// selected, the partitioner's per-part targets scale with rank speed,
// so the effective per-rank time — load divided by speed — balances
// better than the paper's equal-weight targets, which overload the
// slow half of the machine.

func heteroTimeImbalance(t *testing.T, e *Experiments, p int) float64 {
	t.Helper()
	topo, err := machine.ByName("hetero", p)
	if err != nil {
		t.Fatal(err)
	}
	part := e.partitionFor(p, mustMachine(e.ModelName, p))
	w := partition.PartWeights(e.Dual, part, p)
	var maxT, sumT float64
	for r := 0; r < p; r++ {
		tr := float64(w[r]) / topo.Speed(r)
		sumT += tr
		if tr > maxT {
			maxT = tr
		}
	}
	return maxT * float64(p) / sumT
}

func TestHeteroBalancingScalesTargets(t *testing.T) {
	const p = 8
	uniform := NewExperiments(false)
	hetero := NewExperiments(false)
	if err := hetero.UseMachine("hetero"); err != nil {
		t.Fatal(err)
	}
	imbUniform := heteroTimeImbalance(t, uniform, p)
	imbHetero := heteroTimeImbalance(t, hetero, p)
	if imbHetero >= imbUniform {
		t.Errorf("speed-scaled targets did not improve time balance: %.3f vs uniform %.3f",
			imbHetero, imbUniform)
	}
	// Equal targets on a half-speed second generation leave the slow
	// ranks ~33%% over their fair time share; the scaled targets must
	// land materially closer to balanced.
	if imbHetero > 1.15 {
		t.Errorf("hetero-aware partition still %.3fx imbalanced in time", imbHetero)
	}

	// The slow ranks' subdomains must be genuinely smaller.
	part := hetero.partitionFor(p, mustMachine(hetero.ModelName, p))
	w := partition.PartWeights(hetero.Dual, part, p)
	for fast := 0; fast < p/2; fast++ {
		for slow := p / 2; slow < p; slow++ {
			if w[slow] >= w[fast] {
				t.Fatalf("slow rank %d load %d not below fast rank %d load %d: %v",
					slow, w[slow], fast, w[fast], w)
			}
		}
	}
}
