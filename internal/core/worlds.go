package core

import (
	"fmt"
	"slices"
	"sync"

	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/obs"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

// The world runners: every experiment row comes from a step world
// (runStep), an implicit-step world (runImplicit) or an epoch world
// (runEpochs, epochs.go), each placed on its machine by onMachine.

// stepWorld is one step world: p ranks of the named machine run one
// AdaptionStep from the machine's initial partition, marking frac of
// the edges around the harness's indicator.
type stepWorld struct {
	model string // machine.ByName name; "" is the flat SP2
	p     int
	frac  float64
	// cfg is the step's configuration, complete except for Topo, which
	// runStep sets to the world's machine.
	cfg Config
}

// stepWorld returns the step world of p ranks on the harness's machine
// (-model): e.Cfg with the given ordering, and the mapper selected with
// the metric it optimizes (useMapper).
func (e *Experiments) stepWorld(p int, frac float64, before bool, mapper Mapper) stepWorld {
	cfg := e.Cfg
	cfg.RemapBefore = before
	cfg.useMapper(mapper)
	return stepWorld{model: e.ModelName, p: p, frac: frac, cfg: cfg}
}

// runStep runs a step world and returns rank 0's statistics, which
// carry the similarity matrix the mapper ran on (StepStats.S).
func (e *Experiments) runStep(w stepWorld) StepStats {
	topo := mustMachine(w.model, w.p)
	mod, part := e.onMachine(w.p, topo)
	cfg := w.cfg
	cfg.Topo = topo
	ind := e.Indicator()
	var out StepStats
	msg.RunModel(w.p, mod, func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, part, 0)
		g := e.Dual.WithWeights(e.Dual.WComp, e.Dual.WRemap)
		st := AdaptionStep(c, d, g, ind, w.frac, cfg)
		if c.Rank() == 0 {
			out = st
		}
	})
	return out
}

// implicitWorld is one implicit-step world: p ranks of the named
// machine refine the initial partition's mesh once around the
// harness's indicator (20% of the edges), start a Gaussian pulse and
// take one backward-Euler PCG step with opt.
type implicitWorld struct {
	model  string // machine.ByName name; "" is the flat SP2
	p      int
	opt    solver.ImplicitOptions
	traced bool // keep the world's event trace
}

// implicitStep is an implicit-step world's outcome.
type implicitStep struct {
	res   solver.ImplicitResult // rank 0's
	solve float64               // simulated seconds of the step, max over ranks
	trace *event.Trace          // traced worlds only
}

// runImplicit runs an implicit-step world.
func (e *Experiments) runImplicit(w implicitWorld) implicitStep {
	mod, part := e.onMachine(w.p, mustMachine(w.model, w.p))
	ind := e.Indicator()
	var out implicitStep
	body := func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, part, solver.NComp)
		d.MarkGeometricFraction(ind, 0.2)
		d.PropagateParallel()
		d.Refine()
		solver.InitField(d.M, solver.GaussianPulse(
			mesh.Vec3{e.LX / 2, e.LY / 2, 0.6}, 0.5))
		im := solver.NewImplicit(d, w.opt)
		before := c.Elapsed()
		r := im.Step()
		elapsed := c.AllreduceFloat64(c.Elapsed()-before, msg.MaxFloat64)
		if c.Rank() == 0 {
			out.res, out.solve = r, elapsed
		}
	}
	if w.traced {
		_, out.trace = msg.RunTraced(w.p, mod, body)
	} else {
		msg.RunModel(w.p, mod, body)
	}
	return out
}

// mustMachine returns a fresh p-rank instance of the named machine
// ("" is flat).  Names reach it validated (UseMachine, the experiment
// lists), so an unknown one is a broken invariant.
func mustMachine(name string, p int) machine.Model {
	topo, err := machine.ByName(machineName(name), p)
	if err != nil {
		panic(err)
	}
	return topo
}

// onMachine places a p-rank world on topo: the cost model it runs
// under — a copy of the harness's model carrying topo — and its
// initial partition.
func (e *Experiments) onMachine(p int, topo machine.Model) (*msg.CostModel, []int32) {
	return e.Model.WithTopo(topo), e.partitionFor(p, topo)
}

// partitionFor returns the initial P-way partition of the dual graph for
// a world running on topo — the "Partitioning + Mapping" initialization
// of Fig. 1.  On a heterogeneous machine the per-part targets scale with
// rank speed (part j is rank j's initial subdomain), so slow processors
// start with proportionally smaller subdomains; on a uniform one the
// targets are equal.
//
// The partition is a pure function of P and the machine's speed shares
// (machine.SpeedShares: nil on flat, smp and fattree, which therefore
// share one entry per P), so it is memoized under that key.  The memo
// is safe for concurrent worlds: each key is partitioned once, and its
// callers share the one read-only slice (plum_partition_cache_total
// counts hits and misses).  Only the P values in e.Ps are
// kept; any other P is partitioned per call, so a daemon's memory
// cannot grow with the P values its requests name.
func (e *Experiments) partitionFor(p int, topo machine.Model) []int32 {
	popt := e.Cfg.PartOpts
	popt.TargetShares = machine.SpeedShares(topo, p)
	key := fmt.Sprint(p, popt.TargetShares) // %v prints each share exactly
	e.partMu.Lock()
	ent, hit := e.parts[key]
	if !hit {
		ent = new(partEntry)
		if slices.Contains(e.Ps, p) {
			e.parts[key] = ent
		}
	}
	e.partMu.Unlock()
	result := "miss"
	if hit {
		result = "hit"
	}
	obs.Default.Counter("plum_partition_cache_total", "result", result).Inc()
	ent.once.Do(func() { ent.part = partition.Partition(e.Dual, p, popt) })
	return ent.part
}

// partEntry is one memoized initial partition (partitionFor).
type partEntry struct {
	once sync.Once
	part []int32
}
