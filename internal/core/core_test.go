package core

import (
	"math"
	"testing"

	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/msg"
	"plum/internal/pmesh"
	"plum/internal/remap"
)

func TestMaxImprovementModel(t *testing.T) {
	// The paper's quoted values: G=1.353 -> 5.91 for P>=20; G=3.310 ->
	// 2.42 for P>=4; G=5.279 -> 1.52 for P>=2.
	cases := []struct {
		g    float64
		pMin int
		want float64
	}{
		{1.353, 20, 5.91},
		{3.310, 4, 2.42},
		{5.279, 2, 1.52},
	}
	for _, c := range cases {
		got := MaxImprovement(c.pMin, c.g)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("MaxImprovement(%d, %v) = %.3f, want %.2f", c.pMin, c.g, got, c.want)
		}
		// Saturation: larger P gives the same value.
		if MaxImprovement(c.pMin+40, c.g) != got {
			t.Errorf("G=%v: bound not saturated at P=%d", c.g, c.pMin)
		}
	}
	// No improvement possible at G=1 or G=8.
	if MaxImprovement(64, 1) != 1 {
		t.Errorf("G=1 improvement = %v, want 1", MaxImprovement(64, 1))
	}
	if math.Abs(MaxImprovement(64, 8)-1) > 1e-12 {
		t.Errorf("G=8 improvement = %v, want 1", MaxImprovement(64, 8))
	}
	// Monotone in P until saturation.
	if MaxImprovement(2, 1.353) >= MaxImprovement(8, 1.353) {
		t.Error("bound should grow with P before saturating")
	}
}

func TestApplyMapperKinds(t *testing.T) {
	s := remap.NewSimilarity(3, 1)
	s.S[0] = []int64{10, 0, 5}
	s.S[1] = []int64{0, 20, 0}
	s.S[2] = []int64{5, 0, 30}
	flat := machine.NewFlat(s.P, machine.SP2Link())
	for _, kind := range []Mapper{MapHeuristic, MapOptMWBG, MapOptBMCM, MapTopo} {
		assign, wall := ApplyMapper(kind, s, flat)
		if err := s.CheckAssignment(assign); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
		if wall < 0 {
			t.Errorf("%v: negative wall time", kind)
		}
	}
	// This diagonal-dominant matrix has the identity as its optimum.
	assign, _ := ApplyMapper(MapOptMWBG, s, flat)
	for j, i := range assign {
		if int(i) != j {
			t.Errorf("optimal assignment %v not identity", assign)
		}
	}
}

func TestMapperString(t *testing.T) {
	if MapHeuristic.String() != "HeuMWBG" || MapOptMWBG.String() != "OptMWBG" ||
		MapOptBMCM.String() != "OptBMCM" || MapTopo.String() != "MapTopo" {
		t.Error("mapper names wrong")
	}
}

func TestRankLoadHelpers(t *testing.T) {
	w := []int64{5, 3, 2, 7}
	owner := []int32{0, 1, 0, 1}
	loads := rankLoads(w, owner, 2)
	if loads[0] != 7 || loads[1] != 10 {
		t.Errorf("loads = %v", loads)
	}
	if maxLoad(loads) != 10 {
		t.Errorf("maxLoad = %d", maxLoad(loads))
	}
	if got := imbalanceOf([]int64{10, 10}); got != 1 {
		t.Errorf("balanced imbalance = %v", got)
	}
	if got := imbalanceOf([]int64{30, 10}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("imbalance = %v, want 1.5", got)
	}
}

func TestFig2Relationships(t *testing.T) {
	r := Fig2()
	if !r.HeuristicBoundHolds {
		t.Error("heuristic bound violated on the worked example")
	}
	opt, heu, bmcm := r.Costs[0], r.Costs[1], r.Costs[2]
	if opt.CTotal > heu.CTotal {
		t.Errorf("optimal MWBG total %d > heuristic %d", opt.CTotal, heu.CTotal)
	}
	if bmcm.CMax > opt.CMax {
		t.Errorf("BMCM Cmax %d > MWBG %d", bmcm.CMax, opt.CMax)
	}
	if r.ObjectiveOpt < r.ObjectiveHeu {
		t.Error("optimal objective below heuristic")
	}
}

func TestAdaptionStepSmall(t *testing.T) {
	e := NewExperiments(false)
	e.Ps = []int{1, 2, 4}
	for _, p := range e.Ps {
		st := e.RunStep(p, 0.33, true, MapHeuristic)
		if st.Counts.Elems <= e.Global.NumElems() {
			t.Errorf("p=%d: no refinement happened (%d elems)", p, st.Counts.Elems)
		}
		if st.RefineTime <= 0 || st.MarkTime <= 0 {
			t.Errorf("p=%d: missing phase times %+v", p, st)
		}
		if p > 1 && !st.Accepted {
			t.Errorf("p=%d: forced accept did not remap", p)
		}
	}
}

// TestMigrationRecordsCarryMigratePhase: pmesh.Migrate stamps no phase
// of its own; the adaption step runs it under PhaseMigrate, which is
// how the profile tells migration waits apart.  Every payload send and
// receive of an accepted step must carry that phase (the step's other
// messages under it are collectives, which stamp their own), or the
// remap's waits drift into wait_other.
func TestMigrationRecordsCarryMigratePhase(t *testing.T) {
	e := NewExperiments(false)
	w := e.stepWorld(4, 0.33, true, MapHeuristic)
	topo := mustMachine(w.model, w.p)
	mod, part := e.onMachine(w.p, topo)
	w.cfg.Topo = topo
	var st StepStats
	_, tr := msg.RunTraced(w.p, mod, func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, part, 0)
		g := e.Dual.WithWeights(e.Dual.WComp, e.Dual.WRemap)
		s := AdaptionStep(c, d, g, e.Indicator(), w.frac, w.cfg)
		if c.Rank() == 0 {
			st = s
		}
	})
	if !st.Accepted || st.Mig.MsgsSent == 0 {
		t.Fatalf("step moved no data (accepted %v, %d msgs)", st.Accepted, st.Mig.MsgsSent)
	}
	var sends, recvs int
	for _, r := range tr.Records {
		if r.Phase != event.PhaseMigrate {
			continue
		}
		switch r.Kind {
		case event.KindSend:
			sends++
		case event.KindRecv:
			recvs++
		}
	}
	if sends != st.Mig.MsgsSent || recvs != st.Mig.MsgsSent {
		t.Errorf("PhaseMigrate records: %d sends, %d receives; Migrate sent %d messages",
			sends, recvs, st.Mig.MsgsSent)
	}
}

func TestAdaptionStepBeforeVsAfterSameMesh(t *testing.T) {
	// Both orderings must produce the same refined mesh (the ordering
	// changes cost, not the result).
	e := NewExperiments(false)
	before := e.RunStep(4, 0.33, true, MapHeuristic)
	after := e.RunStep(4, 0.33, false, MapHeuristic)
	if before.Counts != after.Counts {
		t.Errorf("orderings disagree: before %+v, after %+v", before.Counts, after.Counts)
	}
	// Remap-after moves the refined mesh: strictly more data.
	if before.Mig.ElemsSent >= after.Mig.ElemsSent && after.Mig.ElemsSent > 0 {
		t.Errorf("remap-before moved %d elems, remap-after %d — expected before < after",
			before.Mig.ElemsSent, after.Mig.ElemsSent)
	}
}

func TestAdaptionStepEvaluationSkipsBalanced(t *testing.T) {
	// With a huge threshold and no forced accept, the evaluation step
	// must skip repartitioning entirely.
	e := NewExperiments(false)
	e.Cfg.ForceAccept = false
	e.Cfg.ImbalanceThreshold = 1e9
	st := e.RunStep(4, 0.33, true, MapHeuristic)
	if !st.Balanced {
		t.Error("evaluation did not declare the mesh balanced")
	}
	if st.Accepted || st.Mig.ElemsSent > 0 {
		t.Error("balanced step still migrated data")
	}
	if st.Counts.Elems <= e.Global.NumElems() {
		t.Error("balanced step skipped refinement")
	}
}

func TestSolverImprovementComputation(t *testing.T) {
	st := StepStats{WOldMax: 300, WNewMax: 100}
	if got := st.SolverImprovement(); got != 3 {
		t.Errorf("improvement = %v", got)
	}
	if (StepStats{}).SolverImprovement() != 1 {
		t.Error("zero stats should report no improvement")
	}
}

func TestTable1SmallScale(t *testing.T) {
	e := NewExperiments(false)
	rows := e.Table1()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Case != "Initial" {
		t.Error("first row must be the initial grid")
	}
	// Growth factors must be ordered Real_1 < Real_2 < Real_3, all > 1.
	if !(rows[1].Growth > 1 && rows[1].Growth < rows[2].Growth && rows[2].Growth < rows[3].Growth) {
		t.Errorf("growth ordering wrong: %v %v %v", rows[1].Growth, rows[2].Growth, rows[3].Growth)
	}
	for _, r := range rows[1:] {
		if r.Elems <= rows[0].Elems {
			t.Errorf("%s did not grow the mesh", r.Case)
		}
	}
}

func TestTable2SmallScale(t *testing.T) {
	e := NewExperiments(false)
	e.Ps = []int{2, 4, 8}
	rows := e.Table2(0.33)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Optimal MWBG moves no more than the heuristic.
		if r.Opt.TotalElems > r.Heu.TotalElems {
			t.Errorf("P=%d: optimal total %d > heuristic %d", r.P, r.Opt.TotalElems, r.Heu.TotalElems)
		}
		// Heuristic within 2x of optimal (the corollary).
		if r.Heu.TotalElems > 2*r.Opt.TotalElems {
			t.Errorf("P=%d: heuristic total %d > 2x optimal %d", r.P, r.Heu.TotalElems, r.Opt.TotalElems)
		}
		// BMCM minimizes the bottleneck: its max-sent cannot exceed the
		// MWBG mappers'.
		if r.Bmcm.MaxSent > r.Opt.MaxSent {
			t.Errorf("P=%d: BMCM max sent %d > MWBG %d", r.P, r.Bmcm.MaxSent, r.Opt.MaxSent)
		}
	}
}
