// Package msg provides an MPI-style message-passing runtime for a fixed
// group of logical processors (ranks) executing within a single process.
//
// The paper this repository reproduces (Oliker & Biswas, SPAA 1997) was
// implemented in C/C++ with MPI on an IBM SP2.  Go has no MPI bindings, so
// this package supplies the substrate: tagged point-to-point sends and
// receives, nonblocking Irecv/Wait, the collectives the PLUM framework
// needs (barrier, broadcast, gather, allgather, allreduce, all-to-all),
// and a deterministic simulated machine-time model (see clock.go) used
// to produce shape-faithful scaling curves for processor counts far
// beyond the host's physical core count.
//
// Ranks execute as coroutine-style processes on the discrete-event engine
// of internal/event: exactly one rank runs at any instant and the
// scheduler always resumes the rank with the smallest (time, rank, seq)
// key, so every run — including shared-link contention on topologies like
// the fat tree — is bitwise reproducible regardless of GOMAXPROCS.  Sends
// that cross a machine topology yield to the engine at their injection
// time, which serializes shared-link reservations in simulated-time order
// (the deterministic reservation pass that replaced the old
// goroutine-scheduling-order contention queues).
//
// Semantics follow MPI's eager mode: sends are asynchronous and buffered
// (they never block the sender's progress), receives block until a
// matching message (by source and tag) arrives.  Message order between a
// fixed (source, destination, tag) triple is FIFO, which makes every
// algorithm built on this package deterministic.
//
// Entry points.  Run executes a rank function untimed (the zero
// CostModel); RunModel installs a CostModel (simulated clocks) and runs
// the world on its machine.Model, or on the flat machine of its scalars
// when Topo is nil; RunTraced additionally records every
// clock-advancing operation into an event.Trace, which Comm.Trace
// exposes to running ranks — the source of the measured-cost feedback
// loop's profiles.  PushPhase/PopPhase keep each rank's one stack of
// open phases: every trace record carries the innermost open phase, and
// on a traced world each closed phase joins the trace as an event.Span
// (Trace.Spans).  Every collective runs under event.PhaseCollective,
// so its trace records carry the phase the profile aggregator buckets
// their waits by.
//
// Invariants.  Simulated time is a pure function of the program: clocks
// never observe goroutine scheduling, and every charge goes through the
// world's machine.Model.  Tracing observes and never perturbs — a traced
// run's clocks equal the untraced run's.
//
// Payload ownership.  Send copies its payload, so the sender keeps its
// slice.  A received payload is lent, never given: it comes from the
// world's pool, and whoever holds it hands it back once it has read it.
//
//   - Recv and Request.Wait return a Message; Comm.Release hands back
//     its shell and payload together.
//   - Bcast returns a pooled payload on every rank but the root (whose
//     result is its own data); ReleaseBcast hands it back.
//   - Gather (on its root) and Alltoall fill caller-owned result slots,
//     into.  The caller's own slot aliases its data; every other slot is
//     pooled, and ReleaseParts hands them back.
//   - Allgather fills caller-owned slots the same way; ReleaseAllgather
//     hands them back.
//   - RecvInts, BcastInts, the reductions and the scalar broadcasts
//     decode and release internally; their results are the caller's.
//
// Handing back is optional: an unreleased payload is ordinary garbage,
// and the pool reuses only what it was handed, so a payload a caller
// still holds is never overwritten by a later send.  A payload must be
// handed back once, and not read afterwards.
//
// Performance.  The runtime recycles aggressively, which is invisible
// in simulated terms: mailboxes are intrusive doubly-linked delivery
// lists (O(1) unlink, no per-key queue slices retaining popped
// messages), and message structs plus size-classed payload buffers
// return to per-world free lists under the ownership rules above.  All
// pool traffic happens under the execution token: no locks,
// deterministic recycling order.  SendInts/SendFloats encode directly
// into pooled buffers, and no collective copies a payload on the host
// that the wire does not need, so steady-state exchange loops and warm
// collective rounds allocate nothing (TestSendRecvAllocFree,
// TestCollectiveOwnership).  See docs/ARCHITECTURE.md, "Performance".
package msg
