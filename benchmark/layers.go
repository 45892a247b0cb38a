package main

// layers.go is the benchmark's one seam into the program: every import
// of plum/internal/... lives in this file.  The rest of the benchmark
// (timing loops, HTTP clients, spans, statistics, comparison) sees only
// the plain-data types and the handful of calls declared here, so when
// the program's entry points are collapsed (ROADMAP item 2: msg.Run*,
// the three epoch runners) the benchmark follows with an edit to this
// file alone.
//
// Layers are measured from outside, through exported functions only;
// nothing here adds a switch, flag or environment variable to the
// program.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/linalg"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/obs"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/profile"
	"plum/internal/remap"
	"plum/internal/scenario"
	"plum/internal/serve"
	"plum/internal/solver"
)

// harness is the shared, read-only experiment state every workload
// runs against: the global mesh and its dual graph.
type harness struct {
	e *core.Experiments
}

func newHarness() *harness { return &harness{e: core.NewExperiments(false)} }

// scenarioSpec is a loaded, validated scenario.
type scenarioSpec = scenario.Spec

// loadScenarios sends generated spec documents through the program's
// strict loader.
func loadScenarios(docs [][]byte) ([]*scenarioSpec, error) {
	specs := make([]*scenarioSpec, len(docs))
	for i, doc := range docs {
		sp, err := scenario.Load(bytes.NewReader(doc))
		if err != nil {
			return nil, fmt.Errorf("generated spec %d: %w", i, err)
		}
		specs[i] = sp
	}
	return specs, nil
}

// ---------------------------------------------------------------------
// Worlds.

// worldPlan is one fully resolved world: what both the program's own
// driver (runWorld, through core.NewUnsteady) and the layer tour
// (tourWorld, through the exported layer calls) execute.  A plan holds
// a machine instance with contention state, so it is built fresh for
// every run.
type worldPlan struct {
	p, epochs    int
	implicit     bool
	cfg          core.Config
	model        *msg.CostModel
	initPart     []int32
	indicator    func(i int) func(mesh.Vec3) float64
	frac         func(i int) float64
	coarsenBelow float64
	pulse        mesh.Vec3
	// dyn and epochBarrier reproduce core.RunScenario's epoch boundary:
	// a barrier, then the straggler wrapper switches cycles.
	dyn          *scenario.CycleSpeed
	epochBarrier bool
}

// planCycle resolves the adapt-cycle / implicit-solve inputs: uniform
// SP2, heuristic mapper, remap-before, ForceAccept off, a cylinder
// advancing a tenth of the box per epoch.
func (h *harness) planCycle(in cycleInputs) *worldPlan {
	e := h.e
	cfg := e.Cfg
	cfg.ForceAccept = false
	cfg.NAdapt = in.NAdapt
	if in.Implicit {
		cfg.Workload = core.WorkloadImplicit
	}
	model := *e.Model
	model.TLatency *= in.LatencyScale
	return &worldPlan{
		p: in.P, epochs: in.Epochs, implicit: in.Implicit, cfg: cfg, model: &model,
		initPart: partition.Partition(e.Dual, in.P, cfg.PartOpts),
		indicator: func(i int) func(mesh.Vec3) float64 {
			x := (0.2 + 0.1*float64(i)) * e.LX
			return adapt.ShockCylinderIndicator(
				mesh.Vec3{x, e.LY / 2, 0}, mesh.Vec3{0, 0, 1}, 0.35*e.LY, 0.17*e.LY)
		},
		frac:         func(int) float64 { return in.Frac },
		coarsenBelow: in.CoarsenBelow,
		pulse:        mesh.Vec3{in.PulseX * e.LX, in.PulseY * e.LY, 0.6},
	}
}

// planScenario resolves one scenario spec exactly as core.RunScenario
// does under analytic pricing, so a world driven from the plan can be
// checked against the sweep's own result for the spec.
func (h *harness) planScenario(sp *scenarioSpec) (*worldPlan, error) {
	e := h.e
	topo, dyn, err := sp.BuildMachine()
	if err != nil {
		return nil, err
	}
	popt := e.Cfg.PartOpts
	popt.TargetShares = machine.SpeedShares(topo, sp.P)
	cfg := e.Cfg
	cfg.Workload = core.WorkloadImplicit
	cfg.NAdapt = 1
	cfg.Machine.M *= 3
	cfg.Topo = topo
	cfg.ForceAccept = false
	switch sp.Mapper {
	case "opt":
		cfg.Mapper = core.MapOptMWBG
	case "bmcm":
		cfg.Mapper = core.MapOptBMCM
	case "topo":
		cfg.Mapper = core.MapTopo
	}
	if cfg.Mapper == core.MapOptBMCM || cfg.Mapper == core.MapTopo {
		cfg.Metric = remap.MaxV
	}
	return &worldPlan{
		p: sp.P, epochs: sp.Cycles, implicit: true, cfg: cfg, model: e.Model.WithTopo(topo),
		initPart:     partition.Partition(e.Dual, sp.P, popt),
		indicator:    sp.Indicator(scenario.Domain{LX: e.LX, LY: e.LY}),
		frac:         sp.FracAt,
		coarsenBelow: sp.CoarsenBelow,
		pulse:        mesh.Vec3{e.LX / 2, e.LY / 2, 0.6},
		dyn:          dyn,
		epochBarrier: true,
	}, nil
}

// epochStat is what one epoch reports, flattened to plain data.  Sim*
// are simulated seconds, already the maximum over ranks.
type epochStat struct {
	Elems, Rounds, PCGIters      int
	Balanced, Accepted           bool
	Converged                    bool
	Imbalance, WorkBalance, Mass float64
	TotalV, MaxV                 int64
	ElemsMoved, MsgsMoved        int
	BytesMoved                   int64
	SimMark, SimPartition        float64
	SimReassign, SimRemap        float64
	SimRefine, SimSolve          float64
}

// worldResult is one world's outcome.
type worldResult struct {
	Epochs  []epochStat
	SimTime float64
	EdgeCut int64
	Wall    time.Duration
}

// digestInto folds the result's simulated content into a hash: every
// decision, count and float bit, nothing host-dependent.
func (r *worldResult) digestInto(w *bytes.Buffer) {
	for i, ep := range r.Epochs {
		fmt.Fprintf(w, "%d %d %d %d %v %v %v %x %x %x %d %d %d %d %d\n", i,
			ep.Elems, ep.Rounds, ep.PCGIters, ep.Balanced, ep.Accepted, ep.Converged,
			math.Float64bits(ep.Imbalance), math.Float64bits(ep.WorkBalance), math.Float64bits(ep.Mass),
			ep.TotalV, ep.MaxV, ep.ElemsMoved, ep.MsgsMoved, ep.BytesMoved)
	}
	fmt.Fprintf(w, "sim %x cut %d\n", math.Float64bits(r.SimTime), r.EdgeCut)
}

func digestOf(write func(*bytes.Buffer)) string {
	var b bytes.Buffer
	write(&b)
	s := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(s[:])
}

func statOf(cs core.CycleStats) epochStat {
	st := cs.Step
	return epochStat{
		Elems: st.Counts.Elems, Rounds: st.Rounds, PCGIters: cs.PCGIters,
		Balanced: st.Balanced, Accepted: st.Accepted, Converged: cs.PCGConverged,
		Imbalance: st.Imbalance, WorkBalance: cs.WorkBalance, Mass: cs.Mass,
		TotalV: st.Moved.CTotal, MaxV: st.Moved.CMax,
		ElemsMoved: st.Mig.ElemsSent, MsgsMoved: st.Mig.MsgsSent, BytesMoved: st.Mig.BytesSent,
		SimMark: st.MarkTime, SimPartition: st.PartitionTime, SimReassign: st.ReassignTime,
		SimRemap: st.RemapTime, SimRefine: st.RefineTime, SimSolve: cs.SolverTime,
	}
}

// runWorld drives the plan through the program's own driver,
// core.NewUnsteady over msg.RunModel — the path the end-to-end numbers
// time.  With traced set the world runs under msg.RunTraced and the
// event trace is returned.
func (h *harness) runWorld(pl *worldPlan, traced bool) (worldResult, *event.Trace) {
	e := h.e
	res := worldResult{Epochs: make([]epochStat, 0, pl.epochs)}
	body := func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, pl.initPart, solver.NComp)
		u := core.NewUnsteady(d, e.Dual, pl.cfg)
		u.CoarsenBelow = pl.coarsenBelow
		u.Indicator = pl.indicator
		u.PS.InitParallel(solver.GaussianPulse(pl.pulse, 0.5))
		for i := 0; i < pl.epochs; i++ {
			if pl.epochBarrier {
				c.Barrier()
				if pl.dyn != nil {
					pl.dyn.SetCycle(i)
				}
			}
			u.Frac = pl.frac(i)
			cs := u.Cycle()
			if c.Rank() == 0 {
				res.Epochs = append(res.Epochs, statOf(cs))
			}
		}
		if c.Rank() == 0 {
			res.EdgeCut = partition.EdgeCut(e.Dual, d.RootOwner)
		}
	}
	t0 := time.Now()
	var times []float64
	var tr *event.Trace
	if traced {
		times, tr = msg.RunTraced(pl.p, pl.model, body)
	} else {
		times = msg.RunModel(pl.p, pl.model, body)
	}
	res.Wall = time.Since(t0)
	res.SimTime = msg.MaxTime(times)
	return res, tr
}

// sweepResult is one Experiments.Scenarios sweep.
type sweepResult struct {
	SimTimes     []float64 // per world: spec order, analytic then measured
	Epochs       int
	MeasuredWins int
	Accepts      int
	TotalV, MaxV int64
	ElemsFinal   int
	Digest       string
	Wall         time.Duration
}

// runSweep fans the specs' 2*len(specs) worlds over the host cores
// through core.Experiments.Scenarios.
func (h *harness) runSweep(specs []*scenarioSpec) sweepResult {
	t0 := time.Now()
	pairs := h.e.Scenarios(specs)
	res := sweepResult{Wall: time.Since(t0)}
	res.Digest = digestOf(func(w *bytes.Buffer) {
		for _, pair := range pairs {
			for _, run := range []core.FeedbackRun{pair.Analytic, pair.Measured} {
				res.SimTimes = append(res.SimTimes, run.SimTime)
				res.Epochs += len(run.Epochs)
				for _, ep := range run.Epochs {
					fmt.Fprintf(w, "%s %v %d %v %v %v %x %x %d %d %d %x\n", pair.Spec.Name, run.Measured,
						ep.Cycle, ep.Balanced, ep.Accepted, ep.Measured,
						math.Float64bits(ep.Gain), math.Float64bits(ep.Cost),
						ep.TotalV, ep.MaxV, ep.Elems, math.Float64bits(ep.SolveTime))
					if ep.Accepted {
						res.Accepts++
					}
					res.TotalV += ep.TotalV
					res.MaxV += ep.MaxV
				}
				if n := len(run.Epochs); n > 0 {
					res.ElemsFinal += run.Epochs[n-1].Elems
				}
				fmt.Fprintf(w, "sim %x\n", math.Float64bits(run.SimTime))
			}
			if pair.Measured.SimTime < pair.Analytic.SimTime {
				res.MeasuredWins++
			}
		}
	})
	return res
}

// ---------------------------------------------------------------------
// The layer tour: the benchmark's own rank program, making the exported
// layer calls of the paper's Fig. 1 in core.AdaptionStep's and
// core.Unsteady.Cycle's order, one barrier-closed span per call.
//
// Barrier is rank-0-rooted: rank 0 leaves it only after every rank has
// entered, so a host-clock stamp on rank 0 after each barrier closes
// the phase for ALL ranks; and because the engine runs exactly one rank
// at a time, consecutive stamps give the phase's self time summed over
// ranks.  The spans tile the tour's wall-clock exactly.
//
// Only what the benchmark's workloads use is reproduced: the
// remap-before ordering and analytic pricing.

// tourWorld runs the plan through the tour program.  The returned
// result carries the same per-epoch counters as runWorld's (simulated
// phase seconds excepted — the extra barriers move clocks), so the two
// can be compared: a tour that drifts from core shows as a counter
// mismatch, not as a silently different profile.  barrierMs is the
// measured cost of the tour's own barriers.
func (h *harness) tourWorld(pl *worldPlan, rec *spanRecorder) (res worldResult, barrierMs float64, err error) {
	e := h.e
	cfg := pl.cfg
	if !cfg.RemapBefore || cfg.Measured || cfg.F != 1 {
		return res, 0, fmt.Errorf("tour: only remap-before, analytic, F=1 worlds are reproduced")
	}
	threshold := cfg.ImbalanceThreshold
	if threshold == 0 {
		threshold = 1.10
	}
	implicit := pl.implicit
	marks := 0
	var verr error
	body := func(c *msg.Comm) {
		p := c.Size()
		epoch := -1
		mark := func(name string) {
			c.Barrier()
			if c.Rank() == 0 {
				rec.mark(name, epoch)
				marks++
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			rec.begin()
		}

		// core.NewUnsteady: the distributed mesh, the explicit solver
		// (always built: it owns the initial condition), the implicit
		// one when selected.
		d := pmesh.New(c, e.Global, pl.initPart, solver.NComp)
		mark("pmesh.new")
		ps := solver.NewParallel(d)
		mark("solver.rebuild")
		var im *solver.Implicit
		rebuildImplicit := func() {
			im.Sys = linalg.NewDistSystem(d, 1, im.Opt.DT)
			im.Sys.Overlap = im.Opt.Overlap
			mark("linalg.assemble")
			im.Pre = im.Sys.NewPrecond(im.Opt.Precond)
			mark("linalg.spai_setup")
		}
		if implicit {
			im = &solver.Implicit{D: d, Opt: cfg.Implicit}
			rebuildImplicit()
		}
		ps.InitParallel(solver.GaussianPulse(pl.pulse, 0.5))
		mark("solver.init")

		for epoch = 0; epoch < pl.epochs; epoch++ {
			if pl.epochBarrier {
				c.Barrier()
				if pl.dyn != nil {
					pl.dyn.SetCycle(epoch)
				}
			}
			ind := pl.indicator(epoch)
			var st epochStat

			// --- Unsteady.Cycle: coarsen what the feature left behind.
			if pl.coarsenBelow > 0 && epoch > 0 {
				c.PushPhase(event.PhaseCoarsen)
				d.ParallelCoarsen(ind, pl.coarsenBelow)
				c.PopPhase()
				mark("pmesh.coarsen")
			}
			g := e.Dual.WithWeights(e.Dual.WComp, e.Dual.WRemap)

			// --- AdaptionStep: mark and propagate.
			c.PushPhase(event.PhaseMark)
			d.MarkGeometricFraction(ind, pl.frac(epoch))
			st.Rounds = d.PropagateParallel()
			c.PopPhase()
			mark("pmesh.mark")

			wc, wr := d.GatherPredictedWeights()
			mark("pmesh.weights")
			oldLoads := rankLoads(wc, d.RootOwner, p)
			wOldMax := slices.Max(oldLoads)
			st.Imbalance = imbalanceOf(oldLoads)

			if st.Imbalance <= threshold && !cfg.ForceAccept {
				st.Balanced = true
			} else {
				// Parallel repartitioning, speed-scaled on a
				// heterogeneous machine.
				g.SetWeights(wc, wr)
				popt := cfg.PartOpts
				if cfg.Topo != nil && popt.TargetShares == nil {
					popt.TargetShares = machine.SpeedShares(cfg.Topo, p)
				}
				repartition := func() []int32 {
					c.PushPhase(event.PhaseRepartition)
					pr := partition.ParallelRepartition(c, g, p, d.RootOwner, popt)
					c.PopPhase()
					mark("partition.repartition")
					return pr.Part
				}
				newPart := repartition()

				// Processor reassignment: similarity rows gathered at the
				// host, mapped there, broadcast back.
				var s *remap.Similarity
				var assign []int32
				var moved remap.MoveCost
				reassign := func() {
					c.PushPhase(event.PhaseReassign)
					s = remap.BuildSimilarityDistributed(c, d.LocalRootIDs(), wr, newPart, 1)
					mark("remap.similarity")
					var a []int32
					if c.Rank() == 0 {
						a, _ = core.ApplyMapper(cfg.Mapper, s, cfg.Topo)
						n := float64(p) // core's mapperWork: O(E) heuristic, cubic optimal
						if cfg.Mapper == core.MapHeuristic {
							c.Compute(n * n)
						} else {
							c.Compute(n * n * n)
						}
						moved = remap.Cost(s, a)
					}
					assign = remap.BroadcastAssignment(c, a)
					c.PopPhase()
					mark("remap.mapper")
				}
				reassign()
				// Heterogeneous re-price: shares keyed by the realized
				// assignment, one more partition <-> mapping iteration.
				if cfg.Topo != nil && cfg.PartOpts.TargetShares == nil {
					if re := machine.SpeedSharesAssigned(cfg.Topo, assign); re != nil && !slices.Equal(re, popt.TargetShares) {
						popt.TargetShares = re
						newPart = repartition()
						reassign()
					}
				}
				newOwner := make([]int32, len(newPart))
				for r, np := range newPart {
					newOwner[r] = assign[np]
				}
				wNewMax := slices.Max(rankLoads(wc, newOwner, p))

				// Gain vs. redistribution cost, decided on the host and
				// broadcast.  Its host cost is a few flops; the span it
				// falls into is the migration's.
				var acceptFlag int64
				if c.Rank() == 0 {
					gain := remap.ComputationalGain(cfg.Machine, cfg.NAdapt, wOldMax, wNewMax, 0)
					cost := remap.RedistributionCost(cfg.Metric, moved, cfg.Machine)
					if cfg.Topo != nil && !machine.Uniform(cfg.Topo) {
						cost = remap.RedistributionCostTopo(cfg.Metric, s, assign, cfg.Machine, cfg.Topo)
					}
					if cfg.ForceAccept || remap.Accept(gain, cost) {
						acceptFlag = 1
					}
					st.TotalV, st.MaxV = moved.CTotal, moved.CMax
				}
				st.Accepted = c.BcastInts(0, []int64{acceptFlag})[0] == 1
				if st.Accepted {
					c.PushPhase(event.PhaseMigrate)
					mig := d.Migrate(newOwner)
					c.AllreduceInt64(int64(mig.FamiliesSent), msg.SumInt64)
					st.ElemsMoved = int(c.AllreduceInt64(int64(mig.ElemsSent), msg.SumInt64))
					st.BytesMoved = c.AllreduceInt64(mig.BytesSent, msg.SumInt64)
					st.MsgsMoved = int(c.AllreduceInt64(int64(mig.MsgsSent), msg.SumInt64))
					c.PopPhase()
				}
				mark("pmesh.migrate")
			}

			c.PushPhase(event.PhaseRefine)
			d.Refine()
			c.PopPhase()
			mark("pmesh.refine")
			st.Elems = d.GlobalCounts().Elems
			mark("pmesh.counts")

			// --- Unsteady.Cycle: rebuild the active solver, then solve.
			work := 0
			if implicit {
				rebuildImplicit()
				st.Converged = true
				for it := 0; it < max(cfg.NAdapt, 1); it++ {
					c.PushPhase(event.PhaseSolve)
					r := im.Step()
					c.PopPhase()
					work += r.Work
					st.PCGIters += r.Iterations
					st.Converged = st.Converged && r.Converged
				}
				mark("linalg.pcg")
			} else {
				ps.Rebuild()
				mark("solver.rebuild")
				for it := 0; it < max(cfg.NAdapt, 1); it++ {
					c.PushPhase(event.PhaseSolve)
					work += ps.Step(0.002)
					c.PopPhase()
				}
				mark("solver.step")
			}
			maxW := c.AllreduceInt64(int64(work), msg.MaxInt64)
			sumW := c.AllreduceInt64(int64(work), msg.SumInt64)
			if maxW > 0 {
				st.WorkBalance = float64(sumW) / (float64(p) * float64(maxW))
			}
			if implicit {
				st.Mass = im.GlobalMass()
			} else {
				st.Mass = ps.GlobalMass()
			}
			mark("core.tail")
			if c.Rank() == 0 {
				res.Epochs = append(res.Epochs, st)
			}
		}
		epoch = -1

		// The tour's wall-clock ends at the last mark.  What follows is
		// checking: the reassembled global mesh passes the invariant
		// checker, and the global element count equals the sum of the
		// family weights.
		fin := d.Finalize()
		wcomp, _ := d.GatherWeights()
		t0 := time.Now()
		const probes = 64
		for i := 0; i < probes; i++ {
			c.Barrier()
		}
		if c.Rank() == 0 {
			barrierMs = time.Since(t0).Seconds() * 1e3 / probes * float64(marks)
			res.EdgeCut = partition.EdgeCut(e.Dual, d.RootOwner)
			if err := fin.CheckInvariants(); err != nil {
				verr = fmt.Errorf("tour: finalized mesh: %w", err)
			}
			var total int64
			for _, w := range wcomp {
				total += w
			}
			if n := len(res.Epochs); n > 0 && total != int64(res.Epochs[n-1].Elems) {
				verr = fmt.Errorf("tour: %d global elements but family weights sum to %d",
					res.Epochs[n-1].Elems, total)
			}
		}
	}
	t0 := time.Now()
	times := msg.RunModel(pl.p, pl.model, body)
	res.Wall = time.Since(t0)
	res.SimTime = msg.MaxTime(times)
	return res, barrierMs, verr
}

func rankLoads(w []int64, owner []int32, p int) []int64 {
	loads := make([]int64, p)
	for r, o := range owner {
		loads[o] += w[r]
	}
	return loads
}

// imbalanceOf is Wmax/Wavg.
func imbalanceOf(loads []int64) float64 {
	var total int64
	for _, l := range loads {
		total += l
	}
	if total == 0 {
		return 1
	}
	return float64(slices.Max(loads)) * float64(len(loads)) / float64(total)
}

// ---------------------------------------------------------------------
// Counters.

// counterSnapshot is the slice of obs.Default the per-layer counters
// are deltas of.
type counterSnapshot struct {
	MsgsUser, MsgsColl, BytesUser, BytesColl float64
	PoolHits, PoolMisses                     float64
	FastYields, Handoffs, CalendarHighWater  float64
	Blocks                                   float64
	ReqOK, ReqCached, ReqSingleflight        float64
	ReqShed                                  float64
}

func snapshotCounters() counterSnapshot {
	r := obs.Default
	s := counterSnapshot{
		MsgsUser:          r.Value("plum_msg_messages_total", "class", "user"),
		MsgsColl:          r.Value("plum_msg_messages_total", "class", "collective"),
		BytesUser:         r.Value("plum_msg_bytes_total", "class", "user"),
		BytesColl:         r.Value("plum_msg_bytes_total", "class", "collective"),
		FastYields:        r.Value("plum_engine_yields_total", "path", "fast"),
		Handoffs:          r.Value("plum_engine_yields_total", "path", "handoff"),
		CalendarHighWater: r.Value("plum_engine_calendar_highwater"),
		Blocks:            r.Value("plum_engine_blocks_total"),
		ReqOK:             r.Value("plumserve_requests_total", "result", "ok"),
		ReqCached:         r.Value("plumserve_requests_total", "result", "cached"),
		ReqSingleflight:   r.Value("plumserve_requests_total", "result", "singleflight"),
		ReqShed:           r.Value("plumserve_requests_total", "result", "shed"),
	}
	for k, v := range r.Snapshot() {
		if !strings.HasPrefix(k, "plum_msg_pool_") {
			continue
		}
		if strings.Contains(k, `result="hit"`) {
			s.PoolHits += v
		} else {
			s.PoolMisses += v
		}
	}
	return s
}

// ---------------------------------------------------------------------
// Serving.

// newServer builds an in-process daemon over the harness with a result
// cache in cacheDir.
func (h *harness) newServer(cacheDir string) (http.Handler, error) {
	return serve.NewServer(h.e, serve.Config{CacheDir: cacheDir})
}

// directRun answers a request without the daemon, through the exported
// serve calls a leading request passes through — the same decode, the
// same world runner, the same body rendering (plumserve -oneshot's
// path): the byte-identity oracle for served bodies.  With a cache it
// also files the body and reads it back; span, when non-nil, receives
// one interval per call (the serve tour's stages).
func (h *harness) directRun(reqJSON []byte, cache *serve.Cache, span func(name string, start time.Time)) ([]byte, error) {
	if span == nil {
		span = func(string, time.Time) {}
	}
	t := time.Now()
	req, err := serve.ParseRequest(bytes.NewReader(reqJSON))
	if err != nil {
		return nil, err
	}
	ws, err := req.Spec(nil)
	if err != nil {
		return nil, err
	}
	digest := req.Digest()
	span("serve.parse", t)

	if cache != nil {
		t = time.Now()
		if _, ok := cache.Get(req); ok {
			return nil, fmt.Errorf("direct run: request %s already cached", digest[:12])
		}
		span("serve.cache_miss", t)
	}

	t = time.Now()
	var rows []serve.Row
	run, err := h.e.RunWorldCtx(context.Background(), ws, func(ep core.FeedbackEpoch) {
		rows = append(rows, serve.RowFromEpoch(ep))
	})
	if err != nil {
		return nil, err
	}
	span("serve.direct", t)

	t = time.Now()
	body := serve.RenderBody(rows, run.SimTime, digest)
	span("serve.render", t)

	if cache != nil {
		t = time.Now()
		if err := cache.Put(req, body, len(rows), run.SimTime); err != nil {
			return nil, err
		}
		span("serve.cache_put", t)

		t = time.Now()
		got, ok := cache.Get(req)
		span("serve.cache_get", t)
		if !ok || !bytes.Equal(got, body) {
			return nil, fmt.Errorf("direct run: cache did not return the stored body for %s", digest[:12])
		}
	}
	return body, nil
}

// requestDigest is the content address the daemon files a request
// under.
func requestDigest(reqJSON []byte) (string, error) {
	req, err := serve.ParseRequest(bytes.NewReader(reqJSON))
	if err != nil {
		return "", err
	}
	return req.Digest(), nil
}

func openCache(dir string) (*serve.Cache, error) { return serve.OpenCache(dir) }

// ---------------------------------------------------------------------
// Isolated kernels (source K): one exported call each, no world around
// it unless the kernel is a message pattern.

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

var kernelSink float64

// runKernels measures every K-sourced per-layer metric.  scenarioDocs
// are the generated spec documents (scenario.load_ms); cacheDir is a
// scratch directory for the cache kernels.
func (h *harness) runKernels(scenarioDocs [][]byte, cacheDir string) (map[string]float64, error) {
	e := h.e
	m := make(map[string]float64)

	m["mesh.box_ms"] = ms(timeMedian(5, func() { mesh.Box(12, 9, 6, 4.7, 1.8, 1.2) }))
	m["dual.from_mesh_ms"] = ms(timeMedian(5, func() { dual.FromMesh(e.Global) }))
	m["partition.serial_ms"] = ms(timeMedian(3, func() { partition.Partition(e.Dual, 8, e.Cfg.PartOpts) }))

	// adapt: one Real_2 refinement of the serial mesh, one coarsening
	// after the feature moved on, then family removal on what is left.
	ind := e.Indicator()
	var a *adapt.Mesh
	m["adapt.mark_refine_ms"] = ms(timeMedian(3, func() {
		a = adapt.FromMesh(e.Global, 0)
		a.BuildEdgeElems()
		a.MarkTopFraction(a.EdgeErrorGeometric(ind), 0.33)
		a.Propagate()
		a.Refine()
	}))
	A := linalg.Assemble(a, 1, 0.5) // the refined mesh's operator, before it is coarsened
	moved := adapt.ShockCylinderIndicator(
		mesh.Vec3{0.8 * e.LX, e.LY / 2, 0}, mesh.Vec3{0, 0, 1}, 0.39*e.LY, 0.19*e.LY)
	t0 := time.Now()
	a.Coarsen(a.TargetCoarsenEdges(a.EdgeErrorGeometric(moved), 0.05))
	m["adapt.coarsen_ms"] = ms(time.Since(t0))
	const families = 32
	t0 = time.Now()
	for r := int32(0); r < families; r++ {
		a.RemoveFamily(r * int32(a.NRootElems/families))
	}
	m["adapt.remove_family_us"] = us(time.Since(t0)) / families

	// remap: the three mappers on one P=64 similarity matrix (Table 2).
	s := remap.NewSimilarity(64, 1)
	x := uint64(12345)
	for i := range s.S {
		for j := range s.S[i] {
			x = x*6364136223846793005 + 1442695040888963407
			if x%10 < 4 {
				s.S[i][j] = int64(x % 1000)
			}
		}
	}
	m["remap.mapper_heu_us"] = us(timeMedian(9, func() { remap.HeuristicMWBG(s) }))
	m["remap.mapper_opt_us"] = us(timeMedian(5, func() { remap.OptimalMWBG(s) }))
	m["remap.mapper_bmcm_us"] = us(timeMedian(3, func() { remap.OptimalBMCM(s, 1, 1) }))

	// linalg: exact dot, serial SpMV on the refined operator, and one
	// accumulator's trip over the wire.
	const n = 65536
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * 1e3
		ys[i] = math.Cos(float64(i)) * 1e-3
	}
	m["linalg.exact_dot_us"] = us(timeMedian(15, func() { kernelSink = linalg.ExactDot(xs, ys) }))
	vx, vy := make([]float64, A.NCols), make([]float64, A.NRows)
	for i := range vx {
		vx[i] = float64(i%17) - 8
	}
	m["linalg.spmv_us"] = us(timeMedian(15, func() { A.MulVec(vy, vx) }))
	acc := linalg.NewAcc()
	acc.AddProducts(xs[:64], ys[:64])
	const trips = 2000
	t0 = time.Now()
	for i := 0; i < trips; i++ {
		total := linalg.NewAcc()
		total.Merge(linalg.AccFromBytes(acc.Bytes()))
		kernelSink = total.Float64()
	}
	m["linalg.acc_wire_ns"] = float64(time.Since(t0)) / trips

	// msg: ping-pong between two ranks, allreduce across sixteen — the
	// latter also traced, for the tracing overhead of a pure message
	// pattern.
	const pings = 2000
	pingpong := timeMedian(3, func() {
		msg.RunModel(2, msg.SP2Model(), func(c *msg.Comm) {
			payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			peer := 1 - c.Rank()
			for k := 0; k < pings; k++ {
				if c.Rank() == 0 {
					c.Send(peer, 7, payload)
					c.Release(c.Recv(peer, 7))
				} else {
					c.Release(c.Recv(peer, 7))
					c.Send(peer, 7, payload)
				}
			}
		})
	})
	m["msg.pingpong_ns"] = float64(pingpong) / (2 * pings)
	const reduces = 300
	allreduce := func(c *msg.Comm) {
		for i := 0; i < reduces; i++ {
			c.Compute(100)
			c.AllreduceFloat64(float64(c.Rank()), msg.SumFloat64)
		}
	}
	untraced := timeMedian(5, func() { msg.RunModel(16, msg.SP2Model(), allreduce) })
	traced := timeMedian(5, func() { msg.RunTraced(16, msg.SP2Model(), allreduce) })
	m["msg.allreduce_us"] = us(untraced) / reduces
	m["event.trace_overhead"] = float64(traced) / float64(untraced)

	// event, profile: one implicit-solve epoch untraced and traced, then
	// the three analyses every epoch cut runs over the captured window.
	in := genCycleInputs(wlImplicitSolve, 1, sizes{Epochs: 1})
	plain, _ := h.runWorld(h.planCycle(in), false)
	withTrace, tr := h.runWorld(h.planCycle(in), true)
	m["event.trace_overhead_epoch"] = float64(withTrace.Wall) / float64(plain.Wall)
	m["event.records"] = float64(len(tr.Records))
	m["event.analysis_ms"] = ms(timeMedian(3, func() {
		cp := event.CriticalPath(tr)
		event.WaitBlame(tr, &cp)
	}))
	m["profile.from_trace_ms"] = ms(timeMedian(3, func() { profile.FromTrace(tr, 0, len(tr.Records), nil) }))

	var lerr error
	m["scenario.load_ms"] = ms(timeMedian(5, func() {
		if _, err := loadScenarios(scenarioDocs); err != nil {
			lerr = err
		}
	}))
	if lerr != nil {
		return nil, lerr
	}

	// serve: the stages of a cached request, with no HTTP around them.
	reqJSON := []byte(`{"p":8,"cycles":2,"workload":"implicit","seed":7}`)
	const parses = 2000
	var req *serve.Request
	t0 = time.Now()
	for i := 0; i < parses; i++ {
		var err error
		if req, err = serve.ParseRequest(bytes.NewReader(reqJSON)); err != nil {
			return nil, err
		}
		if _, err = req.Spec(nil); err != nil {
			return nil, err
		}
		req.Digest()
	}
	m["serve.parse_us"] = us(time.Since(t0)) / parses
	cache, err := serve.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	body := serve.RenderBody([]serve.Row{{Kind: "epoch", Elems: 8586}, {Kind: "epoch", Cycle: 1, Elems: 16983}},
		1.0764, req.Digest())
	var perr error
	m["serve.cache_put_us"] = us(timeMedian(15, func() {
		if err := cache.Put(req, body, 2, 1.0764); err != nil {
			perr = err
		}
	}))
	if perr != nil {
		return nil, perr
	}
	const gets = 500
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := cache.Get(req); !ok {
			return nil, fmt.Errorf("cache kernel: stored entry missed")
		}
	}
	m["serve.cache_get_us"] = us(time.Since(t0)) / gets
	return m, nil
}

// paperShapes runs one Experiments.Scaling sweep on the Real_2 strategy
// and returns the two simulated-plane shapes the paper reports:
// Fig. 4's adaption speed-up (P=1 / P=16 adaption seconds, near-linear
// in the paper) and Fig. 6's partitioning flatness (P=16 / P=2
// partition seconds, nearly flat in the paper).  Exact: the sweep is a
// pure function of the program.
func paperShapes() (fig4Speedup, fig6Flatness float64) {
	e := core.NewExperiments(false)
	e.Cases = []core.CaseSpec{{Name: "Real_2", Frac: 0.33}}
	var part2, part16 float64
	for _, row := range e.Scaling() {
		if !row.RemapBefore {
			continue
		}
		switch row.P {
		case 2:
			part2 = row.PartTime
		case 16:
			part16 = row.PartTime
			fig4Speedup = row.Speedup
		}
	}
	if part2 > 0 {
		fig6Flatness = part16 / part2
	}
	return fig4Speedup, fig6Flatness
}
