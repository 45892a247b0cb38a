package core

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

// TestFullFrameworkMultiCycle drives the complete Fig. 1 loop — solve,
// mark, coarsen, balance, remap, refine — for several cycles with a
// moving shock, checking mesh validity, conservation, and balance after
// every cycle.  This is the closest analogue of the paper's unsteady
// target application that runs in test time.
func TestFullFrameworkMultiCycle(t *testing.T) {
	const (
		p      = 4
		cycles = 3
		lx, ly = 3.0, 1.5
	)
	global := mesh.Box(9, 6, 4, lx, ly, 1.0)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	cfg := DefaultConfig()
	cfg.ForceAccept = false

	msg.RunModel(p, msg.SP2Model(), func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, solver.NComp)
		ps := solver.NewParallel(d)
		ps.InitParallel(solver.GaussianPulse(mesh.Vec3{lx / 2, ly / 2, 0.5}, 0.4))

		prevShockX := -1.0
		for cycle := 0; cycle < cycles; cycle++ {
			x := lx * (0.25 + 0.5*float64(cycle)/float64(cycles-1))
			ind := adapt.ShockCylinderIndicator(
				mesh.Vec3{x, ly / 2, 0}, mesh.Vec3{0, 0, 1}, 0.3, 0.15)

			// Coarsen the previously refined (now uninteresting) region
			// before refining the new one, as the Fig. 1 loop does.
			if prevShockX >= 0 {
				d.ParallelCoarsen(ind, 0.05)
				if err := d.M.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d rank %d post-coarsen: %v", cycle, c.Rank(), err)
				}
			}
			prevShockX = x

			gv := g.WithWeights(g.WComp, g.WRemap)
			st := AdaptionStep(c, d, gv, ind, 0.12, cfg)
			if err := d.M.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d rank %d post-adapt: %v", cycle, c.Rank(), err)
			}
			if st.Counts.Elems < global.NumElems() {
				t.Fatalf("cycle %d: mesh shrank below initial (%d)", cycle, st.Counts.Elems)
			}

			ps.Rebuild()
			for it := 0; it < 3; it++ {
				ps.Step(0.002)
			}
			for _, u := range d.M.Sol {
				if math.IsNaN(u) || math.IsInf(u, 0) {
					t.Fatalf("cycle %d: solver diverged", cycle)
				}
			}

			// Balance: after an accepted remap the per-rank active
			// element counts must be within the partitioner tolerance
			// plus family granularity slack.
			if st.Accepted {
				local := 0
				for e := range d.M.ElemVerts {
					if d.M.ElemActive(int32(e)) {
						local++
					}
				}
				maxL := c.AllreduceInt64(int64(local), msg.MaxInt64)
				sumL := c.AllreduceInt64(int64(local), msg.SumInt64)
				imb := float64(maxL) * float64(p) / float64(sumL)
				if imb > 1.6 {
					t.Errorf("cycle %d: post-remap imbalance %.2f", cycle, imb)
				}
			}
		}

		// Finalization: the gathered global mesh must be valid and
		// volume-conserving.
		gm := d.Finalize()
		if c.Rank() == 0 {
			if err := gm.CheckInvariants(); err != nil {
				t.Fatalf("finalized mesh: %v", err)
			}
			if math.Abs(gm.TotalActiveVolume()-lx*ly*1.0) > 1e-9 {
				t.Errorf("volume %v, want %v", gm.TotalActiveVolume(), lx*ly*1.0)
			}
		}
	})
}

// TestCostDecisionRejectsPointlessRemap verifies the gain/cost model:
// when the solver runs only one iteration between adaptions, the gain
// cannot amortize any real redistribution, so the balancer must reject.
func TestCostDecisionRejectsPointlessRemap(t *testing.T) {
	e := NewExperiments(false)
	e.Cfg.ForceAccept = false
	e.Cfg.NAdapt = 0 // no solver iterations -> zero gain
	st := e.RunStep(4, 0.33, true, MapHeuristic)
	if st.Balanced {
		t.Skip("mesh happened to be balanced; decision not exercised")
	}
	if st.Accepted {
		t.Error("zero-gain remap was accepted")
	}
	if st.Mig.ElemsSent != 0 {
		t.Error("rejected remap still moved data")
	}
}

// TestCostDecisionAcceptsWorthwhileRemap: with many solver iterations
// between adaptions the gain dominates and the remap must be accepted.
func TestCostDecisionAcceptsWorthwhileRemap(t *testing.T) {
	e := NewExperiments(false)
	e.Cfg.ForceAccept = false
	e.Cfg.NAdapt = 10000
	st := e.RunStep(4, 0.33, true, MapHeuristic)
	if st.Balanced {
		t.Skip("mesh happened to be balanced; decision not exercised")
	}
	if !st.Accepted {
		t.Error("high-gain remap was rejected")
	}
}

// TestDeterministicAcrossRuns: the whole pipeline must be reproducible.
func TestDeterministicAcrossRuns(t *testing.T) {
	e1 := NewExperiments(false)
	e2 := NewExperiments(false)
	a := e1.RunStep(4, 0.33, true, MapHeuristic)
	b := e2.RunStep(4, 0.33, true, MapHeuristic)
	if a.Counts != b.Counts || a.WNewMax != b.WNewMax || a.Mig.ElemsSent != b.Mig.ElemsSent {
		t.Errorf("pipeline not deterministic:\n%+v\n%+v", a, b)
	}
	if a.MarkTime != b.MarkTime || a.RemapTime != b.RemapTime {
		t.Errorf("simulated times not deterministic")
	}
}
