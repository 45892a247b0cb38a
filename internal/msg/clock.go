package msg

import "plum/internal/machine"

// CostModel parameterizes the simulated machine.  The values are abstract
// seconds; the defaults below are loosely calibrated to the IBM SP2 era
// hardware of the paper (Section 4.5 introduces Tlat, the per-word
// memory-to-memory copy time, and Tsetup, the per-message startup time).
//
// The simulated clock exists because the reproduction runs P logical ranks
// as goroutines on a host with far fewer physical cores: wall-clock scaling
// curves would reflect the host, not the algorithm.  Under the model each
// rank's clock advances by its own compute work and by communication
// costs, and the curves recover the *shape* of the paper's figures.
//
// Every world runs on a machine.Model: it supplies the per-pair message
// constants, the per-rank compute speeds, and the contention queues.
// A nil Topo is the flat machine of the three message scalars below
// (machine.NewFlat; every pair equidistant, every rank equally fast),
// resolved per world and never written back into the model.
type CostModel struct {
	TSetup   float64 // flat machine's per-message startup cost, paid by the sender
	TByte    float64 // flat machine's per-byte injection/copy cost
	TLatency float64 // flat machine's wire latency between send completion and arrival
	TWork    float64 // seconds per abstract compute work unit

	// Topo is the machine the world runs on; nil selects the flat
	// machine of TSetup, TByte and TLatency.
	Topo machine.Model
}

// SP2Model returns cost parameters loosely calibrated to the paper's IBM
// SP2: ~40 microsecond message startup, ~35 MB/s sustained bandwidth
// (the machine.SP2Link constants), and a per-element compute unit chosen
// so that the ~61k-element mesh refinement matches the order of
// magnitude of the paper's Fig. 6 times.
func SP2Model() *CostModel {
	l := machine.SP2Link()
	return &CostModel{
		TSetup:   l.Setup,
		TByte:    l.PerByte,
		TLatency: l.Latency,
		TWork:    1.8e-6,
	}
}

// WithTopo returns a copy of the model with the given topology
// installed; the receiver is not modified.
func (m *CostModel) WithTopo(t machine.Model) *CostModel {
	out := *m
	out.Topo = t
	return &out
}

// Clock is one rank's simulated time.
type Clock struct {
	Now float64 // simulated seconds since Run started
}

// MaxTime returns the largest value in times (the parallel makespan), or 0
// for an empty slice.
func MaxTime(times []float64) float64 {
	var max float64
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	return max
}
