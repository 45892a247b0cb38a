// Package solver provides the flow-solver substrate of the reproduction
// — the workload whose balance the load balancer optimizes.
//
// The paper's framework (Section 2) couples the load balancer to a
// finite-volume upwind Euler solver for helicopter rotor flows: unknowns
// live at mesh vertices, fluxes are accumulated over edges ("cell-vertex
// edge schemes are inherently more efficient than cell-centered element
// methods"), and the solution advances with explicit time stepping.
// PLUM needs the solver as (a) the dominant per-element workload whose
// balance the framework optimizes, and (b) the source of the per-edge
// error indicator driving adaption.  This package implements an
// edge-based explicit kernel with the same structure and data access
// pattern — a 5-component state vector, per-edge upwind-flavoured flux,
// per-vertex accumulate/update, ghost accumulation across partition
// boundaries — without claiming aerodynamic fidelity.  It also hosts
// the implicit (backward-Euler) workload built on internal/linalg,
// whose per-iteration halo exchanges and reductions make partition
// quality directly observable as simulated time.
//
// Entry points.  NewParallel / PSolver.Step drive the explicit
// workload; NewImplicit / Implicit.Step the implicit one
// (ImplicitOptions selects preconditioner and the halo/compute overlap
// mode); InitField and GaussianPulse set initial conditions; both
// solvers expose GlobalMass as a conservation-style diagnostic.
//
// Invariants.  Shared-vertex partials are combined in ascending rank
// order and edge ownership is exact (pmesh.ResolveOwnership), so every
// update is bitwise independent of the partition and of GOMAXPROCS.
// PSolver.Rebuild precomputes the owned edges in ascending id with
// their orientation and length, fixed until the next Rebuild.  The
// partials exchanged with rank r are those of pmesh.Ownership.Shared[r],
// which both ranks list in the same order, so they pair by position;
// the vertex gids stay on the wire, and a step panics on one that
// disagrees rather than mis-route a partial.
// The implicit solver inherits linalg's exact-reduction discipline:
// iteration counts and residual histories are identical for every
// processor count.
package solver
