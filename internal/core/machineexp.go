package core

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

// MachineSweep runs one Real_2-style step world (the full AdaptionStep
// pipeline) per (topology, P, mapper) and reports hop-weighted
// movement, simulated remap time, and the load-balancing improvement.
// Every world runs on a fresh instance of its topology and starts from
// that machine's partition (partitionFor), so the harness's -model
// never reaches a row; processor counts below 4 are skipped (a
// one-node "cluster" has no topology to see).
func (e *Experiments) MachineSweep(frac float64, models []string, mappers []Mapper) []MachineRow {
	var worlds []stepWorld
	for _, name := range models {
		for _, p := range e.Ps {
			if p < 4 {
				continue
			}
			for _, mapper := range mappers {
				w := e.stepWorld(p, frac, e.Cfg.RemapBefore, mapper)
				w.model = name
				w.cfg.F = machineSweepF
				w.cfg.ForceAccept = true
				worlds = append(worlds, w)
			}
		}
	}
	rows := make([]MachineRow, len(worlds))
	for i, st := range mustRunWorlds(worlds, e.runStep) {
		w := worlds[i]
		rows[i] = MachineRow{
			Model: w.model, P: w.p, Mapper: w.cfg.Mapper,
			HopMaxV: st.Hop.MaxHV, HopTotalV: st.Hop.TotalHV,
			Moved:       st.Moved.CTotal,
			RemapTime:   st.RemapTime,
			Improvement: st.SolverImprovement(),
		}
	}
	return rows
}
