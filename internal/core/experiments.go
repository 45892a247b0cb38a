package core

import (
	"errors"
	"fmt"
	"os"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/obs"
	"plum/internal/partition"
	"plum/internal/pmesh"
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
	// simulated run; empty keeps the pre-machine-layer uniform SP2.
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

	initParts map[int][]int32 // cached initial partition per P
}

// UseMachine selects the named machine topology for all subsequent
// experiment runs.  The empty name restores the uniform (flat-scalar)
// machine — the exact pre-machine-layer cost path.  Cached initial
// partitions are discarded: a heterogeneous machine partitions with
// speed-scaled target loads, so partitions are machine-specific.
func (e *Experiments) UseMachine(name string) error {
	if name != "" {
		if _, err := machine.ByName(name, 2); err != nil {
			return err
		}
	}
	e.ModelName = name
	e.initParts = make(map[int][]int32)
	return nil
}

// modelFor returns the cost model for a p-rank run: the scalar model
// when no topology is selected, otherwise a copy carrying a fresh
// instance of the named topology sized for p ranks (fresh contention
// state per run).
func (e *Experiments) modelFor(p int) *msg.CostModel {
	if e.ModelName == "" {
		return e.Model
	}
	topo, err := machine.ByName(e.ModelName, p)
	if err != nil {
		panic(err) // unreachable: UseMachine validated the name
	}
	return e.Model.WithTopo(topo)
}

// mustRunWorlds is the CLI sweeps' fault contract over runWorlds: a
// world panic is a broken invariant, so the failing world's goroutine
// stack goes to stderr and the original panic value is re-raised.
func mustRunWorlds(n int, job func(i int)) {
	var wp *WorldPanic
	if errors.As(runWorlds(n, func(i int) error { job(i); return nil }), &wp) {
		fmt.Fprintf(os.Stderr, "core: world %d of %d panicked: %v\n%s", wp.World, n, wp.Value, wp.Stack)
		panic(wp.Value)
	}
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
		Model:     msg.SP2Model(),
		Cfg:       DefaultConfig(),
		Cases:     PaperCases(),
		initParts: make(map[int][]int32),
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

// initialPartition returns (and caches) the initial P-way partition of
// the dual graph — the "Partitioning + Mapping" initialization of
// Fig. 1.  On a heterogeneous machine the per-part targets scale with
// rank speed (part j is rank j's initial subdomain), so slow processors
// start with proportionally smaller subdomains.
func (e *Experiments) initialPartition(p int) []int32 {
	if part, ok := e.initParts[p]; ok {
		obs.Default.Counter("plum_partition_cache_total", "result", "hit").Inc()
		return part
	}
	obs.Default.Counter("plum_partition_cache_total", "result", "miss").Inc()
	opt := e.Cfg.PartOpts
	if e.ModelName != "" {
		topo, err := machine.ByName(e.ModelName, p)
		if err != nil {
			panic(err) // unreachable: UseMachine validated the name
		}
		opt.TargetShares = machine.SpeedShares(topo, p)
	}
	part := partition.Partition(e.Dual, p, opt)
	e.initParts[p] = part
	return part
}

// RunStep runs one full adaption cycle on p simulated processors and
// returns the rank-0 statistics.
func (e *Experiments) RunStep(p int, frac float64, before bool, mapper Mapper) StepStats {
	initPart := e.initialPartition(p)
	ind := e.Indicator()
	mod := e.modelFor(p)
	var out StepStats
	msg.RunModel(p, mod, func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, initPart, 0)
		g := e.Dual.WithWeights(e.Dual.WComp, e.Dual.WRemap)
		cfg := e.Cfg
		cfg.RemapBefore = before
		cfg.Mapper = mapper
		cfg.Topo = mod.Topo
		if mapper == MapOptBMCM {
			cfg.Metric = remap.MaxV
		}
		st := AdaptionStep(c, d, g, ind, frac, cfg)
		if c.Rank() == 0 {
			out = st
		}
	})
	return out
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
		a.BuildEdgeElems()
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

// Table2 runs the remap-before pipeline once per processor count on the
// Real_2 strategy and applies all three mappers to the same similarity
// matrix, exactly as the paper's comparison does.  One world per
// processor count, run concurrently.
func (e *Experiments) Table2(frac float64) []Table2Row {
	ind := e.Indicator()
	var ps []int
	for _, p := range e.Ps {
		if p >= 2 {
			ps = append(ps, p)
		}
	}
	e.prewarmPartitions(ps)
	rows := make([]Table2Row, len(ps))
	mustRunWorlds(len(ps), func(i int) {
		p := ps[i]
		initPart := e.initialPartition(p)
		var row Table2Row
		msg.RunModel(p, e.modelFor(p), func(c *msg.Comm) {
			d := pmesh.New(c, e.Global, initPart, 0)
			_, _ = d.MarkGeometricFraction(ind, frac)
			d.PropagateParallel()
			wc, wr := d.GatherPredictedWeights()
			g := e.Dual.WithWeights(wc, wr)
			pr := partition.ParallelRepartition(c, g, p, d.RootOwner, e.Cfg.PartOpts)
			s := remap.BuildSimilarityDistributed(c, d.LocalRootIDs(), wr, pr.Part, 1)
			if c.Rank() != 0 {
				return
			}
			row.P = p
			evalMapper := func(kind Mapper) MapperOutcome {
				assign, wall := ApplyMapper(kind, s, nil)
				mc := remap.Cost(s, assign)
				return MapperOutcome{TotalElems: mc.CTotal, MaxSent: mc.MaxSent, Wall: wall}
			}
			row.Opt = evalMapper(MapOptMWBG)
			row.Heu = evalMapper(MapHeuristic)
			row.Bmcm = evalMapper(MapOptBMCM)
			row.MaxSent = row.Opt.MaxSent
		})
		rows[i] = row
	})
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
// Every (case, ordering, P) combination is an independent world, so the
// sweep fans out over runWorlds; the speedup column needs the P=1
// baseline of each (case, ordering) series, so it is derived after the
// barrier, preserving the serial sweep's numbers exactly.
func (e *Experiments) Scaling() []ScalingRow {
	e.prewarmPartitions(e.Ps)
	type job struct {
		cs     CaseSpec
		before bool
		p      int
	}
	var jobs []job
	for _, cs := range e.Cases {
		for _, before := range []bool{false, true} {
			for _, p := range e.Ps {
				jobs = append(jobs, job{cs, before, p})
			}
		}
	}
	rows := make([]ScalingRow, len(jobs))
	mustRunWorlds(len(jobs), func(i int) {
		j := jobs[i]
		st := e.RunStep(j.p, j.cs.Frac, j.before, MapHeuristic)
		growth := 1.0
		if n := e.Global.NumElems(); n > 0 {
			growth = float64(st.Counts.Elems) / float64(n)
		}
		rows[i] = ScalingRow{
			Case: j.cs.Name, P: j.p, RemapBefore: j.before,
			AdaptTime: st.MarkTime + st.RefineTime, PartTime: st.PartitionTime,
			RemapTime: st.RemapTime, Speedup: 1,
			Improvement: st.SolverImprovement(), Growth: growth,
		}
	})
	// Speedup: T_adapt(1) / T_adapt(P) within each (case, ordering).
	var t1 float64
	for i, j := range jobs {
		if i%len(e.Ps) == 0 {
			t1 = 0 // new (case, ordering) series
		}
		if j.p == 1 {
			t1 = rows[i].AdaptTime
		}
		if rows[i].AdaptTime > 0 && t1 > 0 {
			rows[i].Speedup = t1 / rows[i].AdaptTime
		}
	}
	return rows
}

// Fig7Row is one curve point of the analytic load-balancing bound.
type Fig7Row struct {
	P           int
	G           float64
	Improvement float64
}

// Fig7 evaluates the analytic model for the paper's three growth
// factors at the harness's processor counts.
func (e *Experiments) Fig7() []Fig7Row {
	var rows []Fig7Row
	for _, g := range []float64{1.353, 3.310, 5.279} {
		for _, p := range e.Ps {
			rows = append(rows, Fig7Row{P: p, G: g, Improvement: MaxImprovement(p, g)})
		}
	}
	return rows
}
