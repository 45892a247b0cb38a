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
// loop's profiles.  IsCollectiveTag classifies this package's
// synthesized tags for the profile aggregator.
//
// Invariants.  Simulated time is a pure function of the program: clocks
// never observe goroutine scheduling, and every charge goes through the
// world's machine.Model.  Tracing observes and never perturbs — a traced
// run's clocks equal the untraced run's.
//
// Performance.  The runtime recycles aggressively, which is invisible
// in simulated terms: mailboxes are intrusive doubly-linked delivery
// lists (O(1) unlink, no per-key queue slices retaining popped
// messages), and message structs plus size-classed payload buffers
// return to per-world free lists via Comm.Release — automatic on the
// decode-and-discard paths (RecvInts, collective internals), opt-in
// for callers that receive raw Messages.  All pool
// traffic happens under the execution token: no locks, deterministic
// recycling order.  SendInts/SendFloats encode directly into pooled
// buffers, keeping steady-state exchange loops allocation-free
// (TestSendRecvAllocFree).  See docs/ARCHITECTURE.md, "Performance".
package msg
