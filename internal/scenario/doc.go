// Package scenario is the declarative layer that turns a config file
// into a family of unsteady adaption workloads.  The paper evaluates
// load balancing on exactly three refinement strategies (Real_1/2/3)
// over one rotor mesh; a scenario generalizes that to time-varying
// dynamics composed from the adapt package's indicator primitives and
// the machine package's topology models:
//
//   - front: a moving refinement front (the rotor-wake tracking of the
//     paper's target application) — a cylinder or plane indicator whose
//     position advances monotonically with the cycle number.
//   - burst: bursty adaption (shock arrival) — the marked-edge fraction
//     idles at a floor, spikes to a peak at the arrival cycle, and
//     decays geometrically back toward the floor.
//   - straggler: rank stragglers and transient slowdowns — per-rank
//     speed factors applied through a machine.Hetero-style wrapper for
//     a declared window of cycles, invisible to the analytic gain/cost
//     pricing (the partitioner's targets are derived before the run).
//   - multijob: two unsteady cycles sharing a fat tree — the co-
//     scheduled job's up-link traffic is modeled as a deterministic
//     periodic background load that inflates inter-group injection
//     times during its busy windows.
//
// A Spec is loaded from strict JSON (Load/LoadFile/LoadDir): unknown
// fields, type mismatches, and constraint violations all return a
// *FieldError naming the offending field — never a panic — so a hostile
// or truncated config file fails loudly and precisely.
//
// Every world built from a Spec is a pure function of it: the indicator
// sequence, the per-cycle marked fraction, and the machine wrappers are
// all deterministic, so a scenario's ledger is byte-reproducible and a
// committed corpus of (spec, golden ledger) pairs doubles as the
// balancer's regression suite (ci/scenarios, gated by plumdiff -gate).
//
// Entry points.  Load parses and validates one spec; LoadDir loads a
// corpus in name order and Find picks one by name; Spec.Digest is a
// scenario's only content address.  Spec.Indicator composes the
// per-cycle error indicator for a Domain; Spec.FracAt/FracBounds give
// the marked-edge fraction schedule and its declared envelope;
// Spec.BuildMachine instantiates the topology with the straggler and
// multijob wrappers applied; Spec.SpeedsAt exposes the per-cycle speed
// vector (the factors round-trip through machine.Hetero unchanged).
package scenario
