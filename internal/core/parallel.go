package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"plum/internal/obs"
)

// Parallel world execution.  A simulated world is hermetic: it owns its
// event engine, mailboxes, clocks, and (per-job) machine topology, and
// its schedule is bitwise independent of GOMAXPROCS — the engine's
// deterministic token discipline guarantees it.  Two worlds therefore
// never share mutable state, and the experiment sweeps — which run one
// world per (topology, P, mapper, pricing-mode, ...) combination — are
// embarrassingly parallel on the host even though each world is
// internally serialized.
//
// The rules each caller follows to keep results byte-identical to the
// serial sweep:
//
//   - shared inputs (the global mesh, the dual graph, initial
//     partitions) are read-only during the fan-out; the partition memo
//     (partitionFor), the one piece of the harness a world mutates, is
//     locked, computes each key once and hands every world the same
//     read-only slice, so it is filled by whichever world asks first;
//   - every world builds its own machine.Model instance — topologies
//     carry contention state that a concurrent world must not touch;
//   - results land in index-addressed slots (mustRunWorlds), so
//     presentation order is the job order, not completion order.
//
// One scheduler, two fault contracts: runWorlds recovers each world's
// panic into a *WorldPanic error with the world index and goroutine
// stack, which the serving path returns — one dying request can never
// unwind a daemon — and the CLI sweeps re-raise (mustRunWorlds), so a
// broken invariant kills the run loudly.

// WorldPanic is a world job's panic recovered into an error: the world
// index within its fan-out, the original panic value, and the goroutine
// stack captured where the panic unwound the job.
type WorldPanic struct {
	World int
	Value any
	Stack []byte
}

func (wp *WorldPanic) Error() string {
	return fmt.Sprintf("core: world %d panicked: %v", wp.World, wp.Value)
}

// Unwrap exposes the panic value when it was itself an error (the msg
// runtime panics typed *msg.RankPanic / *msg.DeadlockError values), so
// errors.As reaches the rank-level fault through the world wrapper.
func (wp *WorldPanic) Unwrap() error {
	if err, ok := wp.Value.(error); ok {
		return err
	}
	return nil
}

// mustRunWorlds is the experiments' fan-out: one world per job, run
// concurrently through runWorlds, with each world's result in its job's
// slot.  Its fault contract is the CLI's: a world panic is a broken
// invariant, so the failing world's goroutine stack goes to stderr and
// the original panic value is re-raised.
func mustRunWorlds[J, R any](jobs []J, run func(J) R) []R {
	out := make([]R, len(jobs))
	var wp *WorldPanic
	if errors.As(runWorlds(len(jobs), func(i int) error { out[i] = run(jobs[i]); return nil }), &wp) {
		fmt.Fprintf(os.Stderr, "core: world %d of %d panicked: %v\n%s", wp.World, len(jobs), wp.Value, wp.Stack)
		panic(wp.Value)
	}
	return out
}

// runWorlds executes jobs 0..n-1 concurrently, bounded by GOMAXPROCS
// host threads (each job is a full simulated world; running more worlds
// than cores just thrashes).  Each job runs under a recover that
// converts a panic into a *WorldPanic; the first failure (error return
// or panic) stops not-yet-started jobs and is returned once in-flight
// jobs stop.  Completed jobs' results remain valid — index-addressed
// slots written by finished worlds are untouched by a sibling's death.
//
// Every job is counted on the host plane: worlds started/finished and
// the wall-clock each took.  A world that panics or errors counts as
// started but not finished, so the gap between the two counters is the
// number of worlds that died — which is why a world must pass through
// here exactly once.
func runWorlds(n int, job func(i int) error) error {
	started := obs.Default.Counter("plum_worlds_started_total")
	finished := obs.Default.Counter("plum_worlds_finished_total")
	wall := obs.Default.Histogram("plum_world_wall_seconds", obs.TimeBuckets)
	safe := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &WorldPanic{World: i, Value: r, Stack: debug.Stack()}
			}
		}()
		started.Inc()
		t0 := time.Now()
		if err := job(i); err != nil {
			return err
		}
		wall.Observe(time.Since(t0).Seconds())
		finished.Inc()
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fault error
	)
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), n))
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		mu.Lock()
		failed := fault != nil
		mu.Unlock()
		if failed {
			break // fail fast: don't start worlds after a failure
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := safe(i); err != nil {
				mu.Lock()
				if fault == nil {
					fault = err
				}
				mu.Unlock()
			}
			<-sem
		}(i)
	}
	wg.Wait()
	return fault
}

// WorldWallEstimate returns the mean observed world wall-clock seconds
// of this process (the plum_worlds started/wall histogram), or fallback
// when no world has completed yet.  The serving layer derives
// Retry-After hints from it.
func WorldWallEstimate(fallback float64) float64 {
	h := obs.Default.Histogram("plum_world_wall_seconds", obs.TimeBuckets)
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return fallback
}
