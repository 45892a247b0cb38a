// Package machine models the simulated parallel machine as a first-class
// object.  The paper's cost analysis (Oliker & Biswas, SPAA 1997,
// Sections 4.4-4.6) prices every rebalancing decision against a machine:
// the original is a flat IBM SP2 where every processor pair is
// equidistant and every processor equally fast.  This package generalizes
// that to a Model interface — per-pair message costs, per-rank compute
// speed, network hop distance, and shared-link contention — with four
// concrete machines:
//
//   - Flat: the uniform SP2 of the paper, and the machine every world
//     without an explicit topology runs on.
//   - SMPCluster: nodes of nodeSize ranks; cheap intra-node links
//     (shared-memory copy) and expensive inter-node links.
//   - FatTree: ranks at the leaves of a radix-R tree; latency grows with
//     hop count and ranks in a leaf group serialize on a shared up-link
//     (a contention queue).
//   - Hetero: wraps any model with per-rank speed multipliers (two
//     processor generations in one machine).
//
// The msg runtime consults the installed Model on every send, receive,
// and compute charge; remap prices redistribution with per-pair costs;
// and the MapTopo processor mapper minimizes hop-weighted data movement.
//
// Entry points.  ByName builds the four standard machines; SpeedShares
// and SpeedSharesAssigned derive the heterogeneous partitioner targets
// (provisional j mod P keying, and the realized-assignment keying the
// adaption step re-prices with); CalibrateRates fits per-hop-class
// LinkParams to an executed event trace — the measured-cost loop's
// pricing source; Uniform detects networks with no pair structure so
// the gain/cost decision can keep the paper's scalar pricing on them.
//
// Invariants.  All methods except Acquire are pure; Acquire is the only
// mutable contention state and the msg runtime serializes it in
// (time, rank, seq) order via the engine's reservation pass, so even
// contended timings are bitwise reproducible.  Reset clears contention
// state between runs; ByName returns a fresh model per call.  The Flat
// of SP2Link is the default machine, and its costs are the ones the
// golden tests pin bitwise.
package machine
