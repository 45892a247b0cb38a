// Package linalg provides the distributed sparse linear-algebra
// subsystem of the reproduction: a CSR sparse-matrix type assembled from
// the adapted mesh, a cache-friendly sparse matrix-vector product, a
// preconditioned conjugate-gradient solver, and two preconditioners
// (Jacobi and a static-pattern sparse-approximate-inverse in the SPAI
// family of Grote & Huckle).
//
// The paper couples PLUM to an explicit edge-based flow solver, whose
// communication happens once per time step.  An implicit Krylov workload
// communicates every *solver iteration* — a halo exchange per SpMV and a
// global reduction per dot product — which is exactly the traffic class
// the load balancer's CommVolume/edge-cut metrics are a proxy for.  This
// package supplies that workload: package solver builds an implicit time
// stepper on it, and core exposes it through the workload selector.
//
// Entry points.  NewDistSystem assembles the distributed operator from
// a pmesh.DistMesh; PCG drives the solve; DistSystem.Overlap selects
// the split-SpMV mode that hides the halo exchange behind interior
// rows (bitwise-identical iterates, shorter critical path on contended
// topologies).  The halo exchange, blocking or overlapped, runs under
// event.PhaseHalo, so its trace records carry the phase the profile
// aggregator buckets their waits by.
//
// Invariants (determinism discipline).  Every row is stored with its
// columns in ascending global-id order and every reduction uses an
// exact (order-independent) accumulator, so the distributed solver
// produces bitwise-identical iterates and residual histories for any
// processor count, including the serial reference — and identical again
// with overlap on or off, which is what lets the overlap experiment
// attribute every simulated-time difference to scheduling rather than
// arithmetic.
package linalg
