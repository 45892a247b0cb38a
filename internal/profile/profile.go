package profile

import (
	"plum/internal/event"
	"plum/internal/linalg"
	"plum/internal/machine"
	"plum/internal/msg"
	"plum/internal/pmesh"
)

// Class buckets a traced communication record by the protocol that
// produced it, so comm-wait seconds can be attributed to the phase the
// balancer can actually do something about: halo waits respond to a
// better partition, migration waits to a cheaper remapping, collective
// waits to neither.
type Class int

// The wait classes, in presentation order.
const (
	ClassHalo       Class = iota // linalg's per-iteration ghost refresh
	ClassCollective              // barrier/broadcast/reduction/all-to-all internals
	ClassMigration               // pmesh data remapping payloads
	ClassOther                   // setup protocols (marking, ownership, assembly, ...)
	NumClasses
)

// DefaultClass classifies a message tag using the repository's tag
// allocation, each range owned (and exported as a predicate) by the
// package that speaks the protocol.
func DefaultClass(tag int) Class {
	switch {
	case msg.IsCollectiveTag(tag):
		return ClassCollective
	case linalg.IsHaloTag(tag):
		return ClassHalo
	case pmesh.IsMigrationTag(tag):
		return ClassMigration
	default:
		return ClassOther
	}
}

// RankProfile is one rank's cost decomposition over a trace window.
type RankProfile struct {
	Compute   float64             // local work (Compute charges, raw advances)
	Overhead  float64             // send injection + receive matching/copy-out
	Wait      [NumClasses]float64 // idle time before arrivals, by protocol class
	SendMsgs  int                 // messages injected
	SendBytes int64               // payload bytes injected
	// PhaseCompute splits Compute by the phase span the work ran under
	// (event.Phase as stamped on the records; index PhaseNone collects
	// unphased work).  This is the per-rank face of the blame pass's
	// league table: a rank whose solve-phase compute dominates here is
	// the rank WaitBlame will name when its neighbours stall.
	PhaseCompute [event.NumPhases]float64
	// PathSeconds is the time this rank's operations occupy on the
	// window's critical path: full spans for compute and sends, only the
	// post-arrival copy-out for receives that idled (the pre-arrival
	// span overlaps the producing send and the wire, which belong to the
	// sender and the network).  Summed over ranks it therefore falls
	// short of the path duration by exactly the wire/idle seconds no
	// rank is responsible for.
	PathSeconds float64
}

// TotalWait sums the rank's wait buckets.
func (r RankProfile) TotalWait() float64 {
	var t float64
	for _, w := range r.Wait {
		t += w
	}
	return t
}

// Profile is the measured per-rank, per-phase cost profile of one
// adaption epoch, extracted from the event trace the epoch executed
// under.  It is the quantity the paper's Section 4.5 machine constants
// estimate — produced by measurement instead, and fed back into the
// next epoch's gain/cost decision.
type Profile struct {
	P     int
	Ranks []RankProfile

	// The critical path of the window: what actually bounded the epoch.
	// Path is the walk itself (kept so the epoch's blame pass reuses it
	// instead of walking the window again); the scalars below are its
	// decomposition.
	Path         event.Path
	Makespan     float64 // completion time of the window's last operation
	PathCompute  float64 // compute seconds on the path
	PathOverhead float64 // messaging software overhead on the path
	PathWait     float64 // wire/contention/idle seconds on the path

	// Solve-phase accounting, set by the driver from its phase timer:
	// the gain term's measured per-iteration solver time under the
	// current mapping.
	SolveSeconds float64 // simulated solve-phase seconds, max over ranks
	SolveSteps   int     // solver iterations the phase ran (NAdapt)

	// Rates are the link constants calibrated from the window's observed
	// sends (machine.CalibrateRates): the cost term's measured
	// per-message/per-byte/latency pricing, keyed by hop class.
	Rates machine.RateTable
}

// PerIteration returns the measured solver seconds per iteration under
// the profiled mapping, or 0 when no solve phase was recorded.
func (p *Profile) PerIteration() float64 {
	if p.SolveSteps <= 0 {
		return 0
	}
	return p.SolveSeconds / float64(p.SolveSteps)
}

// TopPhase returns the phase holding the largest share of the rank's
// compute, with that share of the total (0 when the rank did no work).
func (r RankProfile) TopPhase() (event.Phase, float64) {
	best := event.PhaseNone
	for ph := event.Phase(0); ph < event.NumPhases; ph++ {
		if r.PhaseCompute[ph] > r.PhaseCompute[best] {
			best = ph
		}
	}
	if r.Compute <= 0 {
		return best, 0
	}
	return best, r.PhaseCompute[best] / r.Compute
}

// PathShare returns rank r's share of the critical path in [0, 1].
func (p *Profile) PathShare(r int) float64 {
	span := p.PathCompute + p.PathOverhead + p.PathWait
	if span <= 0 || r < 0 || r >= len(p.Ranks) {
		return 0
	}
	return p.Ranks[r].PathSeconds / span
}

// FromTrace aggregates the half-open record window [start, end) of tr
// into a profile: per-rank compute/overhead/wait decomposition with
// waits classified by classify (nil means DefaultClass), plus the
// window's critical path.  Records are visited in trace order — the
// engine's deterministic total order — so identical runs produce
// bitwise-identical profiles regardless of GOMAXPROCS.
func FromTrace(tr *event.Trace, start, end int, classify func(tag int) Class) *Profile {
	if classify == nil {
		classify = DefaultClass
	}
	if start < 0 {
		start = 0
	}
	if start > len(tr.Records) {
		start = len(tr.Records)
	}
	if end > len(tr.Records) {
		end = len(tr.Records)
	}
	if end < start {
		end = start
	}
	p := &Profile{P: tr.P, Ranks: make([]RankProfile, tr.P)}
	window := tr.Records[start:end]
	for _, r := range window {
		rp := &p.Ranks[r.Rank]
		switch r.Kind {
		case event.KindCompute:
			rp.Compute += r.T1 - r.T0
			rp.PhaseCompute[r.Phase] += r.T1 - r.T0
		case event.KindSend:
			rp.Overhead += r.T1 - r.T0
			rp.SendMsgs++
			rp.SendBytes += int64(r.Bytes)
		case event.KindRecv:
			if r.Arrival > r.T0 {
				// The rank idled until the wire delivered; the span after
				// the arrival is matching/copy-out overhead.
				rp.Wait[classify(r.Tag)] += r.Arrival - r.T0
				rp.Overhead += r.T1 - r.Arrival
			} else {
				rp.Overhead += r.T1 - r.T0
			}
		}
	}

	// Critical path of the window.  The walk only follows message edges
	// whose producing send lies inside the window (CriticalPath charges
	// an out-of-window producer locally), so a window is self-contained.
	p.Path = event.CriticalPath(&event.Trace{P: tr.P, Records: window})
	cp := &p.Path
	p.Makespan = cp.Makespan
	p.PathCompute, p.PathOverhead, p.PathWait = cp.Compute, cp.Overhead, cp.CommWait
	for _, s := range cp.Steps {
		span := s.T1 - s.T0
		if s.Kind == event.KindRecv && s.Arrival > s.T0 {
			span = s.T1 - s.Arrival
		}
		p.Ranks[s.Rank].PathSeconds += span
	}
	return p
}
