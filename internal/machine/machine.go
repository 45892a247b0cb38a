package machine

import "fmt"

// LinkParams are the point-to-point message cost constants of one link
// class; a Model returns them per rank pair.
type LinkParams struct {
	Setup   float64 // per-message startup cost, seconds
	PerByte float64 // per-byte injection/copy cost, seconds
	Latency float64 // wire latency between injection and arrival, seconds
}

// Model is a simulated parallel machine.  Implementations must be safe
// for concurrent use by all ranks (the ranks run as goroutines); all
// methods except Acquire must be pure so that contention-free paths stay
// deterministic.
type Model interface {
	// Name identifies the topology ("flat", "smp", ...).
	Name() string
	// Ranks returns the machine size the model was built for.
	Ranks() int
	// Pair returns the message cost constants from src to dst.
	Pair(src, dst int) LinkParams
	// Speed returns rank r's relative compute speed: 1 is the baseline,
	// 0.5 means the same work takes twice as long.
	Speed(r int) float64
	// Hops returns the network distance between two ranks: 0 for
	// src == dst, growing with topological distance.  MapTopo minimizes
	// hop-weighted data movement against this metric.
	Hops(src, dst int) int
	// Acquire reserves the shared network resources needed by a transfer
	// of nbytes from src to dst that is ready to inject at simulated
	// time depart, and returns the actual injection time — depart itself
	// on contention-free links.  On machines that report Contended, the
	// msg runtime's event engine serializes Acquire calls in
	// (time, rank, seq) order — the deterministic reservation pass — so
	// contended timings are bitwise reproducible; implementations keep
	// their own guards only as a safety net for direct callers.
	Acquire(src, dst, nbytes int, depart float64) float64
	// Contended reports whether a transfer from src to dst consults
	// shared mutable link state in Acquire (a reservation queue).  The
	// runtime runs its engine reservation pass only for contended pairs;
	// contention-free pairs — every pair on a flat or SMP machine, and
	// intra-group pairs on the fat tree — skip it, so their delivery
	// order follows the ranks' program order alone.
	Contended(src, dst int) bool
	// Reset clears contention state so a model can be reused across
	// simulation runs.
	Reset()
}

// SP2Link returns the link constants of the paper's IBM SP2 — the same
// values as msg.SP2Model's scalars (~40 us startup, ~35 MB/s sustained
// bandwidth), kept here as the single source of truth.
func SP2Link() LinkParams {
	return LinkParams{
		Setup:   40e-6,
		PerByte: 1.0 / 35e6,
		Latency: 40e-6,
	}
}

// Uniform reports whether every distinct pair of ranks on m shares
// identical link constants — i.e. the network is flat, whatever the
// concrete type (a Flat, a single-node SMPCluster, ...).  The gain/cost
// decision uses this to keep the paper's scalar redistribution pricing
// on uniform machines: per-pair pricing is calibrated differently, and
// switching formulas on a network with no pair structure would change
// accept/reject decisions for no informational gain.
func Uniform(m Model) bool {
	p := m.Ranks()
	if p < 2 {
		return true
	}
	ref := m.Pair(0, 1)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j && m.Pair(i, j) != ref {
				return false
			}
		}
	}
	return true
}

// SpeedShares returns per-part target-load shares proportional to the
// speed of the rank each part cycles onto (part j -> rank j mod P), or
// nil when every rank runs at the same speed.  The repartitioner seeds
// part j from rank j's current ownership (F=1), so share j scaled by
// Speed(j) steers proportionally less work onto slow ranks — the
// hetero-aware balancing that closes the loop between the machine model
// and the partitioner's target loads.  A nil result keeps the uniform
// targets, so homogeneous machines stay on the exact paper path.
func SpeedShares(m Model, k int) []float64 {
	if speedsUniform(m) {
		return nil
	}
	p := m.Ranks()
	shares := make([]float64, k)
	for j := 0; j < k; j++ {
		shares[j] = m.Speed(j % p)
	}
	return shares
}

// speedsUniform reports whether every rank of m computes at the same
// speed — the condition under which both share derivations return nil
// and the framework stays on the paper's equal-target path.
func speedsUniform(m Model) bool {
	s0 := m.Speed(0)
	for r := 1; r < m.Ranks(); r++ {
		if m.Speed(r) != s0 {
			return false
		}
	}
	return true
}

// SpeedSharesAssigned returns per-part target-load shares keyed by the
// mapper's actual part-to-rank assignment: share j is the speed of the
// rank partition j will really run on, Speed(assign[j]).  This closes
// the gap SpeedShares documents: the j mod P keying assumes the mapper
// keeps the owner-seeded correspondence, but a mapper that trades a
// part across ranks (routine at F > 1) can land a slow-sized part on a
// fast processor.  The adaption step uses this for its one-iteration
// re-price: partition with the provisional keying, map, and when the
// realized assignment disagrees, repartition with the shares the
// mapping actually implies.  Nil on homogeneous machines, so uniform
// paths never re-price.
func SpeedSharesAssigned(m Model, assign []int32) []float64 {
	if speedsUniform(m) {
		return nil
	}
	shares := make([]float64, len(assign))
	for j, r := range assign {
		shares[j] = m.Speed(int(r))
	}
	return shares
}

// Names lists the topologies ByName accepts, in presentation order.
func Names() []string { return []string{"flat", "smp", "fattree", "hetero"} }

// ByName builds the named topology for a p-rank machine with the default
// calibration: SP2 links for flat, 4-rank SMP nodes with shared-memory
// intra-node links, a radix-4 fat tree with SP2 leaf links and 4:1
// oversubscribed up-links (the classical taper: one up-link carries a
// full leaf group, so its effective per-byte time is radix x the leaf
// link's), and a hetero machine whose second half runs at 0.5x speed.
// Each call returns a fresh model (fresh contention state).
func ByName(name string, p int) (Model, error) {
	switch name {
	case "flat":
		return NewFlat(p, SP2Link()), nil
	case "smp":
		return NewSMPCluster(p, 4, SMPIntraLink(), SP2Link()), nil
	case "fattree":
		return NewFatTree(p, 4, SP2Link(), 10e-6, 4*SP2Link().PerByte), nil
	case "hetero":
		return NewHetero(NewFlat(p, SP2Link()), TwoGenerationSpeeds(p, 0.5)), nil
	default:
		return nil, fmt.Errorf("machine: unknown model %q (valid: %v)", name, Names())
	}
}
