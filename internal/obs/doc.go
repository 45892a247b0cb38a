// Package obs is the two-plane observability layer over the
// solve->adapt->balance cycle: a simulated-plane run ledger and a
// host-plane metric registry.
//
// Paper concept.  PLUM's argument is quantitative — the paper's Tables
// 1-2 and Figs. 4-6 are per-epoch observations of imbalance, TotalV /
// MaxV, and remapping cost.  The ledger makes every run produce those
// observations as data rather than prose: one JSONL record per epoch of
// the unsteady cycle (predicted imbalance, the gain/cost decision as it
// was actually priced, moved weight, edge cut, solve time, the epoch's
// critical path, and per-rank compute/overhead/wait shares from
// internal/profile), framed by a manifest (config digest, seed, VCS
// revision, output checksum) and an end record.  Epoch records are a
// pure function of the simulated program, so two ledgers of the same
// configuration byte-compare equal across machines — a ledger is
// simultaneously an experiment artifact and a determinism check.
//
// The two planes.  The simulated plane (Ledger) records simulated
// quantities in deterministic order and may be diffed.  The host plane
// (Registry) counts what the simulator's own machinery did — engine
// fast-path vs handoff yields, calendar and mailbox high-waters, pool
// hit rates, worlds scheduled and their wall-clock — and is exported as
// Prometheus text (plumserve /metrics) and embedded in the ledger as a
// clearly host-only metrics record.
//
// Entry points.  Create / Ledger.Add / Ledger.Close write a ledger;
// ReadLedgerFile validates and loads one (plumviz -ledger renders it).
// Default is the process-wide registry the msg runtime and the
// experiment harness feed; Registry.WritePrometheus serves it,
// Registry.Snapshot embeds it.
//
// Invariants.  Nothing in this package reads or writes a simulated
// clock: instrumentation must never perturb a simulated time, and the
// byte-compare tests in internal/core pin that a run with the ledger
// enabled produces bitwise-identical simulated output to one without.
// The package depends only on the standard library and internal/event,
// whose blame decomposition (event.Culprits) BlameRecord embeds; event
// imports no package of this module, so every layer of the runtime
// (event, msg, core) may feed obs without import cycles.
package obs
