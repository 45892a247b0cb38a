// Package profile turns event traces into measured cost profiles — the
// feedback half of the measured-cost rebalancing loop.
//
// Paper concept.  PLUM's gain/cost decision (Oliker & Biswas, SPAA
// 1997, Sections 4.5-4.6) prices a candidate remapping against machine
// constants calibrated once, by hand: Titer seconds of solver time per
// element-iteration on the gain side, Tlat/Tsetup per word and message
// on the cost side.  The discrete-event engine (internal/event) makes
// those quantities observable instead: every epoch's trace records what
// each rank actually computed, sent, and waited for.  This package
// aggregates one epoch's trace window into a Profile — per-rank compute
// / overhead / comm-wait decomposition with waits attributed to the
// protocol that caused them (halo exchange, collectives, migration),
// the window's critical path and each rank's share of it, the solve
// phase's per-iteration time, and link rates calibrated from the
// observed sends (machine.CalibrateRates) — from which the core driver
// builds the next epoch's pricer (remap.Measured).
//
// Entry points.  FromTrace aggregates a half-open record window of an
// event.Trace, and calibrates Profile.Rates when given the window's
// machine model; Profile.PerIteration and Profile.Rates are the two
// quantities the decision consumes; Profile.Path is the window's
// critical-path walk, kept with its record index for the epoch's blame
// pass (event.WaitBlame); Profile.PathShare supports the per-rank
// profile table plumviz renders.
//
// Wait classification.  A receive wait is bucketed by the phase its
// record carries, which the owning package stamps with msg.Comm.PushPhase:
// msg's collectives run under event.PhaseCollective, linalg's halo
// exchange under event.PhaseHalo, and the adaption step runs pmesh's
// Migrate under event.PhaseMigrate.  Waits under any other phase are
// "other".  The package therefore depends only on event and machine,
// never on the protocols it classifies.  It stays a package of its own
// for now: the benchmark module imports profile.FromTrace, so folding
// it into internal/event waits until that caller can move too.
//
// Invariants.  Records are aggregated in trace order — the engine's
// deterministic (time, rank, seq) total order — so identical runs
// produce bitwise-identical profiles regardless of GOMAXPROCS or
// repetition (pinned by the golden test here and the measured-decision
// determinism tests in internal/core).  Without a profile the decision
// prices analytically (remap.Analytic), bitwise the paper's formulas,
// so untraced and unmeasured runs are unchanged.
package profile
