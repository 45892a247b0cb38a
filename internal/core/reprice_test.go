package core

import (
	"testing"

	"plum/internal/machine"
	"plum/internal/msg"
	"plum/internal/pmesh"
	"plum/internal/remap"
)

// Regression for the heterogeneous-shares gap the ROADMAP recorded:
// TargetShares used to be keyed part j -> rank j%P, which breaks as
// soon as the mapper trades a part across ranks (routine at F > 1 —
// the machine sweep's own granularity).  The adaption step now
// re-prices the shares through the mapper's realized assignment with
// one extra partition+reassignment iteration.

// heteroStep runs one Real_2 adaption step at F=2 on the 16-rank
// hetero machine and returns the step statistics plus the realized
// speed-normalized time imbalance max_r(load_r/speed_r) / avg.  With
// legacyShares the j%P keying is passed explicitly, which opts out of
// the automatic re-price — the pre-fix behaviour.
func heteroStep(t *testing.T, legacyShares bool) (StepStats, float64) {
	t.Helper()
	const p, f = 16, 2
	e := NewExperiments(false)
	if err := e.UseMachine("hetero"); err != nil {
		t.Fatal(err)
	}
	topo, err := machine.ByName("hetero", p)
	if err != nil {
		t.Fatal(err)
	}
	mod, initPart := e.onMachine(p, topo)
	ind := e.Indicator()
	var st StepStats
	var imb float64
	msg.RunModel(p, mod, func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, initPart, 0)
		g := e.Dual.WithWeights(e.Dual.WComp, e.Dual.WRemap)
		cfg := e.Cfg
		cfg.F = f
		cfg.Mapper = MapTopo
		cfg.Metric = remap.MaxV
		cfg.Topo = topo
		cfg.ForceAccept = true
		if legacyShares {
			cfg.PartOpts.TargetShares = machine.SpeedShares(topo, p*f)
		}
		s := AdaptionStep(c, d, g, ind, 0.33, cfg)
		// Realized post-refinement loads under the adopted ownership.
		wc, _ := d.GatherWeights()
		loads := rankLoads(wc, d.RootOwner, p)
		var maxT, sumT float64
		for r := 0; r < p; r++ {
			tr := float64(loads[r]) / topo.Speed(r)
			sumT += tr
			if tr > maxT {
				maxT = tr
			}
		}
		if c.Rank() == 0 {
			st = s
			imb = maxT * float64(p) / sumT
		}
	})
	return st, imb
}

// TestHeteroRepriceKeysSharesByAssignment: the automatic path must
// detect the assignment/keying mismatch and re-price; the explicit
// legacy shares must be honoured untouched; and the re-priced step's
// speed-normalized bottleneck must not be worse than the legacy
// keying's.
func TestHeteroRepriceKeysSharesByAssignment(t *testing.T) {
	auto, imbAuto := heteroStep(t, false)
	legacy, imbLegacy := heteroStep(t, true)
	if !auto.Repriced {
		t.Error("automatic shares did not re-price through the mapper's assignment" +
			" (expected the F=2 mapping to disagree with the j%P keying)")
	}
	if legacy.Repriced {
		t.Error("explicitly passed TargetShares must opt out of the re-price")
	}
	if imbAuto > imbLegacy {
		t.Errorf("re-priced time imbalance %.4f worse than legacy keying %.4f",
			imbAuto, imbLegacy)
	}
	if auto.WNewMax <= 0 || legacy.WNewMax <= 0 {
		t.Fatalf("degenerate loads: %d / %d", auto.WNewMax, legacy.WNewMax)
	}
}

// TestSpeedSharesAssigned: homogeneous machines yield nil; on a hetero
// machine the shares follow the assignment, not the part index.
func TestSpeedSharesAssigned(t *testing.T) {
	flat := machine.NewFlat(4, machine.SP2Link())
	if s := machine.SpeedSharesAssigned(flat, []int32{1, 0, 3, 2}); s != nil {
		t.Errorf("homogeneous machine produced shares %v", s)
	}
	h := machine.NewHetero(flat, []float64{1, 1, 0.5, 0.5})
	// Parts 0..3 assigned to ranks 3,2,1,0: shares must mirror the
	// assigned ranks' speeds, where the j%P keying would give 1,1,.5,.5.
	got := machine.SpeedSharesAssigned(h, []int32{3, 2, 1, 0})
	want := []float64{0.5, 0.5, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("share[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}
