package core

import (
	"sync"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/obs"
	"plum/internal/remap"
)

// Experiments bundles the fixed inputs of the paper's evaluation
// (Section 5) so that cmd/plumbench, the benchmarks, and the tests all
// regenerate the same tables and figures from one place.
type Experiments struct {
	Global *mesh.Mesh
	Dual   *dual.Graph
	Model  *msg.CostModel
	Cfg    Config
	LX, LY float64 // box extents (indicator geometry)
	Cases  []CaseSpec
	Ps     []int

	// ModelName selects a machine topology (machine.ByName) for every
	// simulated run; empty is "flat", the paper's uniform SP2.
	ModelName string

	// Measured turns on the measured-cost feedback loop for the
	// experiments that drive full adaption epochs (ImplicitScaling):
	// runs execute traced, each epoch's gain/cost decision is priced by
	// the previous epoch's profile, and the quick evaluation really
	// gates rebalancing (ForceAccept off).  Off, every experiment keeps
	// the analytic pricing bitwise.
	Measured bool

	// Obs, when non-nil, is the run ledger the epoch-driving experiments
	// append to: each cycle becomes one obs.EpochRecord on rank 0, with
	// the measured cost decomposition attached (epoch runs execute traced
	// whenever Obs is set).  Recording is observation-only — all
	// simulated outputs stay bitwise identical to an unobserved run
	// unless Measured also changes the decisions.
	Obs *obs.Ledger

	// Spans, when non-nil, streams every epoch-driving world's phase
	// spans and per-epoch wait-blame summaries into one span file
	// (epoch runs execute traced whenever Spans is set, exactly as with
	// Obs).  Like the ledger, span recording is observation-only and
	// the file's bytes are deterministic: worlds stream into private
	// buffers that flush after the barrier, in loop order.
	Spans *SpanSink

	partMu sync.Mutex
	parts  map[string]*partEntry // initial partitions (partitionFor)
}

// UseMachine selects the named machine topology for all subsequent
// experiment runs.  The empty name restores the default, the uniform
// SP2 ("flat").
func (e *Experiments) UseMachine(name string) error {
	if _, err := machine.ByName(machineName(name), 2); err != nil {
		return err
	}
	e.ModelName = name
	return nil
}

// machineName maps a harness or request model name to its
// machine.ByName name: the empty name is the default flat SP2.  Only
// the machine is shared; callers keep the name as given for labels
// ("uniform SP2" in reports) and identities (ledger keys, digests).
func machineName(name string) string {
	if name == "" {
		return "flat"
	}
	return name
}

// CaseSpec names a refinement strategy: the fraction of the initial
// mesh's edges targeted for subdivision (paper: Real_1 = 5%, Real_2 =
// 33%, Real_3 = 60%).
type CaseSpec struct {
	Name string
	Frac float64
}

// PaperCases returns the three strategies of the paper.
func PaperCases() []CaseSpec {
	return []CaseSpec{{"Real_1", 0.05}, {"Real_2", 0.33}, {"Real_3", 0.60}}
}

// NewExperiments builds the experiment harness.  paperScale selects the
// 60,912-element mesh and processor counts up to 64 (several minutes of
// compute); otherwise a ~4k-element mesh with processor counts up to 16
// reproduces the same shapes quickly.
func NewExperiments(paperScale bool) *Experiments {
	e := &Experiments{
		Model: msg.SP2Model(),
		Cfg:   DefaultConfig(),
		Cases: PaperCases(),
		parts: make(map[string]*partEntry),
	}
	if paperScale {
		e.Global = mesh.PaperScaleBox()
		e.LX, e.LY = 4.7, 1.8
		e.Ps = []int{1, 2, 4, 8, 16, 32, 64}
	} else {
		e.Global = mesh.Box(12, 9, 6, 4.7, 1.8, 1.2)
		e.LX, e.LY = 4.7, 1.8
		e.Ps = []int{1, 2, 4, 8, 16}
	}
	e.Dual = dual.FromMesh(e.Global)
	return e
}

// Indicator returns the shock-surface error indicator used by all
// experiments: a cylinder through the domain mimicking the rotor-blade
// shock system of the paper's acoustics test case.
func (e *Experiments) Indicator() func(mesh.Vec3) float64 {
	return adapt.ShockCylinderIndicator(
		mesh.Vec3{e.LX / 2, e.LY / 2, 0}, mesh.Vec3{0, 0, 1},
		0.39*e.LY, 0.19*e.LY)
}

// RunStep runs one full adaption cycle on p simulated processors of
// the harness's machine — one step world — and returns the rank-0
// statistics.
func (e *Experiments) RunStep(p int, frac float64, before bool, mapper Mapper) StepStats {
	return mustRunWorlds([]stepWorld{e.stepWorld(p, frac, before, mapper)}, e.runStep)[0]
}

// ---------------------------------------------------------------------
// Table 1: grid sizes after one refinement for the three strategies.

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Case                        string
	Verts, Elems, Edges, BFaces int
	Growth                      float64 // mesh growth factor G
}

// Table1 runs the three strategies serially and reports the resulting
// grid sizes (plus the initial row).
func (e *Experiments) Table1() []Table1Row {
	rows := []Table1Row{{
		Case:   "Initial",
		Verts:  e.Global.NumVerts(),
		Elems:  e.Global.NumElems(),
		Edges:  e.Global.NumEdges(),
		BFaces: e.Global.NumBFaces(),
		Growth: 1,
	}}
	ind := e.Indicator()
	for _, cs := range e.Cases {
		a := adapt.FromMesh(e.Global, 0)
		errv := a.EdgeErrorGeometric(ind)
		a.MarkTopFraction(errv, cs.Frac)
		a.Propagate()
		pred := a.PredictRefine()
		a.Refine()
		c := a.ActiveCounts()
		rows = append(rows, Table1Row{
			Case: cs.Name, Verts: c.Verts, Elems: c.Elems,
			Edges: c.Edges, BFaces: c.BFaces, Growth: pred.GrowthFactor,
		})
	}
	return rows
}

// ---------------------------------------------------------------------
// Table 2: the three mappers compared on identical similarity matrices.

// Table2Row compares the mappers for one processor count (paper's
// Table 2, Real_2 strategy).
type Table2Row struct {
	P       int
	MaxSent int64 // max elements sent by any processor (MWBG mappers)
	Opt     MapperOutcome
	Heu     MapperOutcome
	Bmcm    MapperOutcome
}

// MapperOutcome is one mapper's data movement and reassignment time.
type MapperOutcome struct {
	TotalElems int64   // total remapping weight moved
	MaxSent    int64   // bottleneck outgoing weight
	Wall       float64 // reassignment wall-clock seconds
}

// Table2 runs one remap-before step world per processor count on the
// Real_2 strategy and applies all three mappers to the similarity
// matrix its step built, exactly as the paper's comparison does.  The
// reassignment times are host wall-clock, measured after the fan-out.
func (e *Experiments) Table2(frac float64) []Table2Row {
	var worlds []stepWorld
	for _, p := range e.Ps {
		if p >= 2 {
			w := e.stepWorld(p, frac, true, MapHeuristic)
			w.cfg.ForceAccept = true
			worlds = append(worlds, w)
		}
	}
	rows := make([]Table2Row, len(worlds))
	for i, st := range mustRunWorlds(worlds, e.runStep) {
		evalMapper := func(kind Mapper) MapperOutcome {
			assign, wall := ApplyMapper(kind, st.S, nil)
			mc := remap.Cost(st.S, assign)
			return MapperOutcome{TotalElems: mc.CTotal, MaxSent: mc.MaxSent, Wall: wall}
		}
		row := Table2Row{P: worlds[i].p, Opt: evalMapper(MapOptMWBG),
			Heu: evalMapper(MapHeuristic), Bmcm: evalMapper(MapOptBMCM)}
		row.MaxSent = row.Opt.MaxSent
		rows[i] = row
	}
	return rows
}

// ---------------------------------------------------------------------
// Figure 2: the worked similarity-matrix example.

// Fig2Result reports the three mappers on a 4x4 example matrix (the
// scanned figure's exact entries are illegible; this reproduces the
// structure and all qualitative relationships).
type Fig2Result struct {
	S                   *remap.Similarity
	Assign              [3][]int32 // Opt MWBG, Heu MWBG, Opt BMCM
	Costs               [3]remap.MoveCost
	ObjectiveOpt        int64
	ObjectiveHeu        int64
	HeuristicBoundHolds bool
}

// Fig2 evaluates the worked example.
func Fig2() Fig2Result {
	s := remap.NewSimilarity(4, 1)
	s.S[0] = []int64{100, 90, 0, 0}
	s.S[1] = []int64{95, 0, 0, 0}
	s.S[2] = []int64{0, 85, 120, 30}
	s.S[3] = []int64{0, 0, 110, 25}
	var r Fig2Result
	r.S = s
	for i, kind := range []Mapper{MapOptMWBG, MapHeuristic, MapOptBMCM} {
		assign, _ := ApplyMapper(kind, s, nil)
		r.Assign[i] = assign
		r.Costs[i] = remap.Cost(s, assign)
	}
	r.ObjectiveOpt = s.Objective(r.Assign[0])
	r.ObjectiveHeu = s.Objective(r.Assign[1])
	r.HeuristicBoundHolds = 2*r.ObjectiveHeu >= r.ObjectiveOpt
	return r
}

// ---------------------------------------------------------------------
// Figures 4, 5, 6, 8: the scaling studies.

// ScalingRow holds one (case, P, ordering) measurement.
type ScalingRow struct {
	Case        string
	P           int
	RemapBefore bool
	AdaptTime   float64 // mark + refine (Fig 4 numerator/denominator, Fig 6 "Adaption")
	PartTime    float64 // Fig 6 "Partitioning"
	RemapTime   float64 // Fig 5 / Fig 6 "Remapping"
	Speedup     float64 // T_adapt(1) / T_adapt(P), same ordering
	Improvement float64 // Fig 8: Wold_max / Wnew_max after refinement
	Growth      float64 // realized growth factor
}

// Scaling runs the full sweep: every case, every processor count, both
// remap orderings.  This single sweep supplies Figs. 4, 5, 6 and 8.
// Every (case, ordering, P) combination is an independent step world;
// the speedup column needs the P=1 baseline of each (case, ordering)
// series, so it is derived after the fan-out, preserving the serial
// sweep's numbers exactly.
func (e *Experiments) Scaling() []ScalingRow {
	var worlds []stepWorld
	for _, cs := range e.Cases {
		for _, before := range []bool{false, true} {
			for _, p := range e.Ps {
				worlds = append(worlds, e.stepWorld(p, cs.Frac, before, MapHeuristic))
			}
		}
	}
	rows := make([]ScalingRow, len(worlds))
	var t1 float64
	for i, st := range mustRunWorlds(worlds, e.runStep) {
		w := worlds[i]
		growth := 1.0
		if n := e.Global.NumElems(); n > 0 {
			growth = float64(st.Counts.Elems) / float64(n)
		}
		rows[i] = ScalingRow{
			Case: e.Cases[i/(2*len(e.Ps))].Name, P: w.p, RemapBefore: w.cfg.RemapBefore,
			AdaptTime: st.MarkTime + st.RefineTime, PartTime: st.PartitionTime,
			RemapTime: st.RemapTime, Speedup: 1,
			Improvement: st.SolverImprovement(), Growth: growth,
		}
		// Speedup: T_adapt(1) / T_adapt(P) within each (case, ordering).
		if i%len(e.Ps) == 0 {
			t1 = 0 // new (case, ordering) series
		}
		if w.p == 1 {
			t1 = rows[i].AdaptTime
		}
		if rows[i].AdaptTime > 0 && t1 > 0 {
			rows[i].Speedup = t1 / rows[i].AdaptTime
		}
	}
	return rows
}
