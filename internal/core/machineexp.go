package core

import (
	"plum/internal/machine"
	"plum/internal/msg"
	"plum/internal/pmesh"
	"plum/internal/remap"
)

// The machine experiment: the paper's Fig. 7/8 story — how much does
// intelligent balancing buy — re-asked per machine topology.  On a flat
// SP2 every mapper sees the same network; on an SMP cluster or a fat
// tree the hop-oblivious heuristic drags data across expensive links
// that the topology-aware mapper keeps local.

// MachineRow is one (topology, P, mapper) measurement of the sweep.
type MachineRow struct {
	Model       string
	P           int
	Mapper      Mapper
	HopMaxV     int64   // bottleneck hop-weighted volume (MapTopo's objective)
	HopTotalV   int64   // network-wide hop-weighted volume
	Moved       int64   // plain moved weight (hop-oblivious CTotal)
	RemapTime   float64 // simulated migration seconds under the topology
	Improvement float64 // Fig. 8-style Wold_max / Wnew_max
}

// MachineMappers returns the mapper pair the sweep compares: the
// paper's default greedy mapper against the topology-aware one.
func MachineMappers() []Mapper { return []Mapper{MapHeuristic, MapTopo} }

// machineSweepF is the partition granularity of the sweep.  At F=1 the
// repartitioner aligns new partitions with current owners so tightly
// that every mapper finds the same (hop-optimal) assignment; two
// partitions per processor restores the assignment freedom where
// topology awareness pays (cf. the paper's Section 4.3 remark that
// F > 1 partitions give the mapper room to trade movement for balance).
const machineSweepF = 2

// MachineSweep runs one Real_2-style adaption cycle (the full
// AdaptionStep pipeline) per (topology, P, mapper) and reports
// hop-weighted movement, simulated remap time, and the load-balancing
// improvement.  Every topology in models is instantiated fresh per
// world (contention state is world-private) and starts from its own
// machine's partition (partitionFor), built once per (topology, P)
// before the fan-out, so the harness's -model never reaches a row;
// processor counts below 4 are skipped (a one-node "cluster" has no
// topology to see).  The worlds are independent and run concurrently
// (runWorlds); row order — and every simulated number — is identical to
// the serial sweep.
func (e *Experiments) MachineSweep(frac float64, models []string, mappers []Mapper) []MachineRow {
	ind := e.Indicator()
	type job struct {
		name   string
		p      int
		mapper Mapper
		part   []int32
	}
	var jobs []job
	for _, name := range models {
		for _, p := range e.Ps {
			if p < 4 {
				continue
			}
			topo, err := machine.ByName(name, p)
			if err != nil {
				panic(err)
			}
			part := e.partitionFor(p, topo)
			for _, mapper := range mappers {
				jobs = append(jobs, job{name, p, mapper, part})
			}
		}
	}
	rows := make([]MachineRow, len(jobs))
	mustRunWorlds(len(jobs), func(i int) {
		j := jobs[i]
		topo, err := machine.ByName(j.name, j.p)
		if err != nil {
			panic(err)
		}
		mod := e.Model.WithTopo(topo)
		row := MachineRow{Model: j.name, P: j.p, Mapper: j.mapper}
		msg.RunModel(j.p, mod, func(c *msg.Comm) {
			d := pmesh.New(c, e.Global, j.part, 0)
			g := e.Dual.WithWeights(e.Dual.WComp, e.Dual.WRemap)
			cfg := e.Cfg
			cfg.F = machineSweepF
			cfg.Mapper = j.mapper
			cfg.Topo = topo
			cfg.ForceAccept = true
			if j.mapper == MapTopo {
				cfg.Metric = remap.MaxV
			}
			st := AdaptionStep(c, d, g, ind, frac, cfg)
			if c.Rank() == 0 {
				row.HopMaxV, row.HopTotalV = st.Hop.MaxHV, st.Hop.TotalHV
				row.Moved = st.Moved.CTotal
				row.RemapTime = st.RemapTime
				row.Improvement = st.SolverImprovement()
			}
		})
		rows[i] = row
	})
	return rows
}
