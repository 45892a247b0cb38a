// Package serve is the fault-tolerant sweep-serving layer: it turns
// the deterministic experiment harness (internal/core) into a
// long-running HTTP daemon (cmd/plumserve) that accepts experiment
// requests, schedules each one as a hermetic simulated world on a
// bounded worker pool, and streams result rows back as epochs complete.
//
// The robustness substrate, piece by piece:
//
//   - Cancellation & deadlines: every request runs under a context
//     (client disconnect, per-request deadline, server drain) observed
//     at cooperative checkpoints inside the simulation — epoch
//     boundaries and solver-iteration boundaries (core.CollectiveStop)
//     — so abandoned work stops simulating instead of leaking
//     goroutines.  The checkpoints execute the same simulated
//     collectives whether or not they fire, so a served world and its
//     offline replay are bitwise identical.
//
//   - Fault isolation: a panicking world — a rank program bug, an
//     engine deadlock abort — is recovered (core world recovery over
//     the typed *msg.RankPanic / *msg.DeadlockError values) into a
//     *WorldError carrying the request key, the failing rank, and the
//     phase it died in, and returned as a structured 5xx body.  The
//     process never dies for a request.
//
//   - Admission control & back-pressure: a bounded queue sheds load
//     with 429 + Retry-After (derived from the observed world
//     wall-clock histogram), identical in-flight requests collapse to
//     one simulation (singleflight), and completed results land in a
//     crash-safe content-addressed on-disk cache (atomic temp+rename
//     writes, canonical-config and body-checksum verification on load,
//     corrupt entries quarantined, never trusted).  Determinism makes
//     the cache sound: a world's rows are a pure function of its
//     core.WorldSpec (the golden/scenario/ledger tests pin this), and
//     the key is that spec's own canon plus serve's chaos suffix.
//
//   - Graceful degradation: Drain stops admission (the /readyz probe
//     flips first, so a fronting balancer rotates the instance out),
//     lets in-flight worlds finish against a drain deadline, cancels
//     the stragglers cooperatively, and flushes the cache index.
//
// NewServer also mounts the host plane beside /run and /readyz:
// /metrics (the obs registry as Prometheus text), /healthz ("running",
// or "draining" once Drain begins), and the Go profiler under
// /debug/pprof.  Everything there is host data, so scraping it cannot
// perturb a world in flight.  Run ledgers and span files are read
// offline, by plumviz and plumdiff.
package serve
