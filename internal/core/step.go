package core

import (
	"slices"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/remap"
)

// StepStats reports one adaption cycle.  Times are simulated seconds,
// already reduced to the maximum over ranks (identical on every rank).
type StepStats struct {
	MarkTime      float64 // edge targeting + parallel propagation
	PartitionTime float64 // parallel repartitioning
	ReassignTime  float64 // similarity matrix + mapper + broadcast (simulated)
	RemapTime     float64 // data migration
	RefineTime    float64 // subdivision (plus re-marking when remapping first)
	ReassignWall  float64 // wall-clock seconds of the mapper on the host

	Rounds    int  // marking propagation rounds
	Balanced  bool // evaluation step found the mesh balanced (no repartition)
	Accepted  bool // new partitioning adopted
	Imbalance float64

	// Gain and Cost are the two sides of the acceptance test as the
	// decision actually priced them, and Pricing is the Name of the
	// pricer that did.  Rank 0 only (the deciding rank); other ranks,
	// and a step that found the mesh balanced, report zero values.
	Gain, Cost float64
	Pricing    string
	// Repriced reports that the heterogeneous-shares re-price ran: the
	// mapper's assignment disagreed with the provisional part j -> rank
	// j mod P share keying, so the repartition and reassignment were
	// re-run once with shares keyed by the realized assignment.
	Repriced bool

	WOldMax, WNewMax int64 // heaviest-rank post-refinement loads, old/new owners

	Moved remap.MoveCost
	// S is the similarity matrix the mapper ran on (the re-priced one
	// when Repriced); rank 0 only, nil when the evaluation step found
	// the mesh balanced.
	S *remap.Similarity
	// Hop holds the hop-weighted movement metrics of the chosen
	// assignment on cfg.Topo.
	Hop    remap.HopCost
	Mig    pmesh.MigrateStats
	Refine adapt.RefineStats

	Counts adapt.Counts // global mesh after the step
}

// AdaptionStep executes one full cycle of the paper's Fig. 1 on the
// calling rank: edge marking, the load-balancer evaluation, parallel
// repartitioning, processor reassignment, the gain/cost decision, data
// remapping, and mesh refinement.  With cfg.RemapBefore the data moves
// between the marking and subdivision phases (Section 4.6); otherwise
// the mesh is refined first and the larger refined mesh is moved.
// Collective: every rank calls with identical arguments; g must be a
// per-rank weight view (dual.Graph.WithWeights) of the replicated dual
// graph.
func AdaptionStep(c *msg.Comm, d *pmesh.DistMesh, g *dual.Graph,
	ind func(mesh.Vec3) float64, frac float64, cfg Config) StepStats {

	if cfg.ImbalanceThreshold == 0 {
		cfg.ImbalanceThreshold = 1.10
	}
	if cfg.Topo == nil {
		cfg.Topo = machine.NewFlat(c.Size(), machine.SP2Link())
	}
	var st StepStats
	timer := newPhaseTimer(c)

	// --- Mark: target edges and propagate to a global fixpoint.
	c.PushPhase(event.PhaseMark)
	d.MarkGeometricFraction(ind, frac)
	st.Rounds = d.PropagateParallel()
	c.PopPhase()
	st.MarkTime = timer.Lap()

	if !cfg.RemapBefore {
		// Remap-after ordering: subdivide on the old partitions first.
		c.PushPhase(event.PhaseRefine)
		st.Refine = d.Refine()
		c.PopPhase()
		st.RefineTime = timer.Lap()
	}

	// --- Weights for the balancer.  Remap-before uses the predicted
	// post-refinement Wcomp with the pre-refinement Wremap; remap-after
	// uses the actual weights of the already-refined mesh.
	var wc, wr []int64
	if cfg.RemapBefore {
		wc, wr = d.GatherPredictedWeights()
	} else {
		wc, wr = d.GatherWeights()
	}
	oldLoads := rankLoads(wc, d.RootOwner, c.Size())
	st.WOldMax = maxLoad(oldLoads)
	st.Imbalance = imbalanceOf(oldLoads)

	// --- Evaluation step ("determines if the new mesh will be so
	// unbalanced as to warrant a repartitioning").
	if st.Imbalance <= cfg.ImbalanceThreshold && !cfg.ForceAccept {
		st.Balanced = true
		st.WNewMax = st.WOldMax
		if cfg.RemapBefore {
			c.PushPhase(event.PhaseRefine)
			st.Refine = d.Refine()
			c.PopPhase()
			st.RefineTime = timer.Lap()
		}
		st.Counts = d.GlobalCounts()
		return st
	}

	// --- Parallel repartitioning on the dual graph.  On a heterogeneous
	// machine the per-part target loads scale with processor speed (the
	// hetero-aware balancing); SpeedShares is nil on homogeneous
	// machines, keeping the paper's equal targets.  The provisional
	// part j -> rank j%P share keying relies on the repartitioner
	// seeding part ids from the current owners; whether the mapper
	// honours that correspondence is checked — and re-priced — after
	// the reassignment below.
	g.SetWeights(wc, wr)
	popt := cfg.PartOpts
	if popt.TargetShares == nil {
		popt.TargetShares = machine.SpeedShares(cfg.Topo, c.Size()*cfg.F)
	}
	c.PushPhase(event.PhaseRepartition)
	pr := partition.ParallelRepartition(c, g, c.Size()*cfg.F, d.RootOwner, popt)
	c.PopPhase()
	newPart := pr.Part
	st.PartitionTime = timer.Lap()

	// --- Processor reassignment: similarity matrix rows computed in
	// parallel, gathered at the host, mapped, scattered back.  Runs a
	// second time when the heterogeneous re-price repartitions.
	var s *remap.Similarity
	var assign []int32
	reassign := func() {
		c.PushPhase(event.PhaseReassign)
		defer c.PopPhase()
		s = remap.BuildSimilarityDistributed(c, d.LocalRootIDs(), wr, newPart, cfg.F)
		var a []int32
		if c.Rank() == 0 {
			var wall float64
			a, wall = ApplyMapper(cfg.Mapper, s, cfg.Topo)
			st.ReassignWall += wall
			c.Compute(mapperWork(cfg.Mapper, c.Size(), cfg.F))
			st.Moved = remap.Cost(s, a)
			st.S = s
			st.Hop = remap.HopWeightedCost(s, a, cfg.Topo)
		}
		assign = remap.BroadcastAssignment(c, a)
	}
	reassign()

	// --- Heterogeneous re-price: the shares above assumed part j runs
	// on rank j%P, but the broadcast assignment is the ground truth.
	// When they disagree on a machine with non-uniform speeds, rebuild
	// the partition with shares keyed by the realized assignment and map
	// once more — one iteration of the partition <-> mapping fixpoint,
	// enough to stop a slow-sized part landing on a fast processor.
	// Every rank evaluates the same broadcast assignment, so all take
	// the same branch.  The extra repartition is charged to the
	// reassignment phase (PartitionTime's lap is already taken).
	// Callers that pass explicit TargetShares have opted out of the
	// automatic keying, so their shares are honoured as given.
	if cfg.PartOpts.TargetShares == nil {
		if re := machine.SpeedSharesAssigned(cfg.Topo, assign); re != nil && !slices.Equal(re, popt.TargetShares) {
			st.Repriced = true
			popt.TargetShares = re
			c.PushPhase(event.PhaseRepartition)
			pr = partition.ParallelRepartition(c, g, c.Size()*cfg.F, d.RootOwner, popt)
			c.PopPhase()
			newPart = pr.Part
			reassign()
		}
	}
	newOwner := make([]int32, len(newPart))
	for r, np := range newPart {
		newOwner[r] = assign[np]
	}
	newLoads := rankLoads(wc, newOwner, c.Size())
	st.WNewMax = maxLoad(newLoads)
	st.ReassignTime = timer.Lap()

	// --- Gain vs. redistribution cost (Section 4.5/4.6).  The decision
	// is made on the host (which holds the similarity matrix) and
	// broadcast, so every rank takes the same branch.
	var acceptFlag int64
	if c.Rank() == 0 {
		pr := cfg.Pricer
		if pr == nil {
			pr = remap.Analytic{Machine: cfg.Machine, Topo: cfg.Topo}
		}
		st.Gain, st.Cost = pr.Price(remap.Decision{
			Metric: cfg.Metric, NAdapt: cfg.NAdapt,
			WOldMax: st.WOldMax, WNewMax: st.WNewMax,
			S: s, Assign: assign, Moved: st.Moved,
		})
		st.Pricing = pr.Name()
		if cfg.ForceAccept || remap.Accept(st.Gain, st.Cost) {
			acceptFlag = 1
		}
	}
	st.Accepted = c.BcastInt64(0, acceptFlag) == 1

	// --- Remapping: physically move the element families.  In the
	// remap-before ordering the edge marks travel with the families, so
	// the migrated mesh arrives ready for subdivision.
	if st.Accepted {
		c.PushPhase(event.PhaseMigrate)
		mig := d.Migrate(newOwner)
		// Aggregate the per-rank statistics so every rank reports the
		// global movement.
		st.Mig.FamiliesSent = int(c.AllreduceInt64(int64(mig.FamiliesSent), msg.SumInt64))
		st.Mig.ElemsSent = int(c.AllreduceInt64(int64(mig.ElemsSent), msg.SumInt64))
		st.Mig.BytesSent = c.AllreduceInt64(mig.BytesSent, msg.SumInt64)
		st.Mig.MsgsSent = int(c.AllreduceInt64(int64(mig.MsgsSent), msg.SumInt64))
		st.Mig.FamiliesRecv = st.Mig.FamiliesSent
		st.Mig.ElemsRecv = st.Mig.ElemsSent
		c.PopPhase()
	}
	st.RemapTime = timer.Lap()

	// --- Subdivision (remap-before ordering): the marks moved with the
	// data, so the subdivision runs immediately — and load balanced,
	// since the new partitions equalize the predicted post-refinement
	// loads.
	if cfg.RemapBefore {
		c.PushPhase(event.PhaseRefine)
		st.Refine = d.Refine()
		c.PopPhase()
		st.RefineTime = timer.Lap()
	}

	st.Counts = d.GlobalCounts()
	return st
}

// SolverImprovement returns the factor by which load balancing reduces
// the flow-solver time for the refined mesh: the heaviest-rank load
// without rebalancing divided by the heaviest-rank load with it (the
// quantity plotted in the paper's Fig. 8).
func (st StepStats) SolverImprovement() float64 {
	if st.WNewMax == 0 {
		return 1
	}
	return float64(st.WOldMax) / float64(st.WNewMax)
}

// MaxImprovement is the analytic bound of the paper's Fig. 7: for mesh
// growth factor G on P processors, a single refinement step can at most
// improve solver time by min(8, P(G-1)+1)/G (8 is the maximum
// subdivision arity; see Section 5).
func MaxImprovement(p int, g float64) float64 {
	worst := float64(p)*(g-1) + 1
	if worst > 8 {
		worst = 8
	}
	return worst / g
}
