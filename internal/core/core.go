package core

import (
	"fmt"
	"time"

	"plum/internal/machine"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/profile"
	"plum/internal/remap"
	"plum/internal/solver"
)

// Mapper selects the processor-reassignment algorithm (paper Section
// 4.4 / Table 2, plus the topology-aware extension).
type Mapper int

// The three mappers the paper compares, plus MapTopo: the hop-aware
// mapper that minimizes hop-weighted MaxV on non-flat machines.
const (
	MapHeuristic Mapper = iota // greedy MWBG, O(E), TotalV metric
	MapOptMWBG                 // optimal MWBG, TotalV metric
	MapOptBMCM                 // optimal BMCM, MaxV metric
	MapTopo                    // hop-discounted optimal, hop-weighted MaxV metric
)

func (m Mapper) String() string {
	switch m {
	case MapHeuristic:
		return "HeuMWBG"
	case MapOptMWBG:
		return "OptMWBG"
	case MapTopo:
		return "MapTopo"
	default:
		return "OptBMCM"
	}
}

// mapperNames are the mappers' request/spec names, indexed by Mapper.
var mapperNames = [...]string{MapHeuristic: "heu", MapOptMWBG: "opt", MapOptBMCM: "bmcm", MapTopo: "topo"}

// ParseMapper resolves a mapper's request/spec name ("heu", "opt",
// "bmcm", "topo"; empty selects the default heuristic).
func ParseMapper(name string) (Mapper, error) {
	if name == "" {
		name = mapperNames[MapHeuristic]
	}
	for m, n := range mapperNames {
		if n == name {
			return Mapper(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mapper %q (heu, opt, bmcm, topo)", name)
}

// ApplyMapper runs the chosen mapper on a similarity matrix and reports
// the wall-clock time it took (the paper's Table 2 reassignment times).
// topo is the machine the assignment will run on; it only affects
// MapTopo.
func ApplyMapper(kind Mapper, s *remap.Similarity, topo machine.Model) (assign []int32, wall float64) {
	start := time.Now()
	switch kind {
	case MapHeuristic:
		assign = remap.HeuristicMWBG(s)
	case MapOptMWBG:
		assign = remap.OptimalMWBG(s)
	case MapTopo:
		assign = remap.TopoAssign(s, topo)
	default:
		assign = remap.OptimalBMCM(s, 1, 1)
	}
	return assign, time.Since(start).Seconds()
}

// mapperWork returns the simulated host compute charge of a mapper in
// abstract work units (entries touched): the heuristic is O(E), the
// optimal algorithms are roughly cubic in P*F.
func mapperWork(kind Mapper, p, f int) float64 {
	n := float64(p * f)
	switch kind {
	case MapHeuristic:
		return n * n
	default:
		return n * n * n
	}
}

// Workload selects the solver class driven between adaptions.  The
// paper's framework couples to an explicit edge-based flow solver
// (communication once per time step); the implicit workload solves a
// backward-Euler system by preconditioned CG (communication every solver
// iteration), so the balancer's communication metrics become directly
// observable as simulated time.
type Workload int

// The two workload classes.
const (
	WorkloadExplicit Workload = iota
	WorkloadImplicit
)

func (w Workload) String() string {
	if w == WorkloadImplicit {
		return "implicit"
	}
	return "explicit"
}

// Config tunes one PLUM adaption step.
type Config struct {
	F           int           // partitions per processor (paper uses 1)
	NAdapt      int           // solver iterations between adaptions (gain model)
	Metric      remap.Metric  // TotalV or MaxV redistribution model
	Mapper      Mapper        // processor reassignment algorithm
	Machine     remap.Machine // cost-model constants
	RemapBefore bool          // remap before subdivision (the paper's optimization)
	// ImbalanceThreshold triggers repartitioning when the predicted
	// imbalance (Wmax/Wavg) exceeds it (the "quick evaluation" of
	// Fig. 1).  Zero means 1.10.
	ImbalanceThreshold float64
	// ForceAccept skips the gain-vs-cost decision (experiments that
	// always remap, as in the paper's single-step studies).
	ForceAccept bool
	PartOpts    partition.Options

	// Topo is the machine topology the step runs on: the mapper sees it
	// (MapTopo), the partitioner scales targets by its rank speeds, and
	// on a non-uniform network the gain/cost decision prices
	// redistribution with its per-pair link constants instead of the
	// flat Machine scalars.  AdaptionStep and NewUnsteady resolve nil to
	// the paper's uniform SP2 (machine.ByName("flat")).
	Topo machine.Model

	// Workload selects the solver driven between adaptions; Implicit
	// tunes the PCG-backed workload when WorkloadImplicit is chosen.
	Workload Workload
	Implicit solver.ImplicitOptions

	// Measured turns on the measured-cost feedback loop: the Unsteady
	// driver extracts a cost profile (internal/profile) from the event
	// trace of each epoch and hands it to the next epoch's gain/cost
	// decision.  Requires a traced run (msg.RunTraced); on an untraced
	// world the flag is inert and every decision stays analytic.
	Measured bool
	// Observe makes the Unsteady driver cut the same per-epoch profile
	// windows Measured does — so a run ledger (internal/obs) can record
	// the measured cost decomposition — WITHOUT feeding the profile into
	// any gain/cost decision: an Observe-only run prices every decision
	// analytically and its simulated outputs stay bitwise identical to an
	// unobserved run.  Like Measured it needs a traced world; on an
	// untraced one it is inert.
	Observe bool
	// Profile is the previous epoch's measured cost profile, set by the
	// Unsteady driver on rank 0 (the rank that makes the gain/cost
	// decision); every other rank leaves it nil and learns the decision
	// from the broadcast.  Nil prices the decision analytically — the
	// exact paper path, bitwise.
	Profile *profile.Profile
}

// DefaultConfig returns the configuration used by the experiment
// harness, matching the paper's setup: F=1, TotalV metric, heuristic
// mapper, remapping before subdivision.
func DefaultConfig() Config {
	return Config{
		F:                  1,
		NAdapt:             50,
		Metric:             remap.TotalV,
		Mapper:             MapHeuristic,
		Machine:            remap.SP2Machine(),
		RemapBefore:        true,
		ImbalanceThreshold: 1.10,
		ForceAccept:        true,
		PartOpts:           partition.Default(),
		Workload:           WorkloadExplicit,
		Implicit:           solver.DefaultImplicitOptions(),
	}
}

// rankLoads accumulates per-rank computational loads from per-root
// weights and an ownership vector.
func rankLoads(w []int64, owner []int32, p int) []int64 {
	loads := make([]int64, p)
	for r, o := range owner {
		loads[o] += w[r]
	}
	return loads
}

func maxLoad(loads []int64) int64 {
	var m int64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}

// imbalanceOf returns Wmax/Wavg of the given loads.
func imbalanceOf(loads []int64) float64 {
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(loads)) / float64(total)
}

// phaseTimer measures per-phase simulated time: Lap returns the
// max-over-ranks simulated seconds spent since the previous lap.
type phaseTimer struct {
	c    *msg.Comm
	last float64
}

func newPhaseTimer(c *msg.Comm) *phaseTimer { return &phaseTimer{c: c, last: c.Elapsed()} }

// Lap returns the global maximum of the per-rank elapsed simulated time
// since the last lap, and synchronizes the ranks.
func (t *phaseTimer) Lap() float64 {
	local := t.c.Elapsed() - t.last
	max := t.c.AllreduceFloat64(local, msg.MaxFloat64)
	t.c.Barrier()
	t.last = t.c.Elapsed()
	return max
}
