// Package event provides the discrete-event execution core the msg
// runtime schedules simulated ranks on: a deterministic engine that runs
// P coroutine-style processes under a single execution token, a calendar
// queue totally ordered by (time, rank, seq), an event trace recording
// every clock-advancing operation, and a critical-path extractor over
// the trace.
//
// The paper's machine model (Oliker & Biswas, SPAA 1997, Section 4.5)
// converts communication volumes into seconds analytically; the msg
// runtime does it operationally, one simulated clock per rank.  Before
// this package, ranks free-ran as goroutines with private clocks, which
// had two costs: topologies with shared-link contention (the fat tree's
// up-links) reserved links in goroutine-scheduling order, making
// contended timings only approximately reproducible; and there was no
// global event order to trace or to extract a critical path from.  The
// engine fixes both: exactly one process executes at any instant, and
// the scheduler always resumes the runnable process with the smallest
// (time, rank, seq) key, so every shared-resource reservation happens in
// simulated-time order and every run is bitwise reproducible regardless
// of GOMAXPROCS.
//
// Entry points.  NewEngine + Run execute the processes (the msg runtime
// is the only intended caller); Yield / Block / Wake are the three
// process-side primitives; Trace accumulates Records and the completed
// phase Spans and exports Chrome-tracing JSON, phase spans optionally
// layered on (WriteChrome, WriteChromeFile); SpanLog writes a window of
// spans per epoch as a JSONL stream and ReadSpans reads it back;
// CriticalPath walks a trace back from its makespan and decomposes the
// bounding chain into compute, message overhead, and comm wait — the
// decomposition the measured-cost feedback loop (internal/profile)
// aggregates.
//
// Invariants.  Keys processed by the scheduler are nondecreasing in
// time (a running process only inserts keys at or after its own current
// time), so causality is never violated; ties resolve (rank, seq), so
// the total order — and therefore trace record order — is a pure
// function of the program.  Records of one rank appear in program
// order.  Deadlock (every live process blocked) aborts the blocked
// processes with a Deadlock panic rather than hanging.
//
// Performance.  The schedule fixes which process runs next, not how
// many goroutine switches realize it: an uncontended Yield (its new key
// still globally smallest) keeps the token and switches zero times, and
// a contended one grants the winner directly — one handoff, not a
// bounce through the engine goroutine, which only mediates start-up,
// deadlock, and termination.  Fast and slow paths pop identical entry
// sequences (pinned by TestEngineFastPathSchedule).  Traces append into
// a pre-grown contiguous arena (Trace.Grow); the global append order is
// the engine's total order, which makes each profile window
// reproducible.  An epoch-driving world empties the arena when an
// epoch opens, so it holds one epoch's records.  See
// docs/ARCHITECTURE.md, "Performance".
package event
