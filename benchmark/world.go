package main

import (
	"fmt"
	"time"
)

// The three world workloads, end to end: tracing off, the program
// driven only through the inputs generated from the seed.
//
// Every run has the same shape.  The harness is built three times and
// the median build, plus one untimed warm-up repetition (which fills
// lazy state and pays first-touch page faults), is charged to setup_s.
// Then whole repetitions are timed until --seconds have passed; a
// repetition in flight is finished, never cut.  Every repetition's
// simulated output must hash to the warm-up's.

// runOpts is one invocation.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	workDir  string // scratch directory inside the checkout
}

// outcome is what a run hands back to main: the operation counts, the
// metrics by declared name, and — for the results file — the output
// digest, failure notes and spans.
type outcome struct {
	checker
	metrics map[string]float64
	digest  string
	spans   []span
}

// checker counts attempted and failed operations and keeps the first
// few reasons.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) pass(n int) { c.attempted += n }

func (c *checker) fail(n int, format string, args ...any) {
	c.attempted += n
	c.failed += n
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

const setupBuilds = 3

// timedBuilds runs build setupBuilds times and returns the median
// duration in seconds; the last build's products are the ones used.
func timedBuilds(build func() error) (float64, error) {
	var err error
	d := timeMedian(setupBuilds, func() {
		if e := build(); e != nil && err == nil {
			err = e
		}
	})
	return d.Seconds(), err
}

// repetition is one timed unit of a world workload.
type repetition struct {
	wall   float64 // seconds
	epochs int
	sim    float64 // sum of the simulated makespans of its worlds
	digest string
	// unconverged counts implicit epochs whose PCG missed its tolerance.
	unconverged int
}

// runWorldWorkload times a world workload end to end.
func runWorldWorkload(o runOpts) (*outcome, error) {
	var rep func() repetition
	build := func() error {
		h := newHarness()
		if o.workload == wlScenarioSweep {
			docs, err := genScenarioSpecs(o.seed, o.sz)
			if err != nil {
				return err
			}
			specs, err := loadScenarios(docs)
			if err != nil {
				return err
			}
			rep = func() repetition {
				r := h.runSweep(specs)
				return repetition{wall: r.Wall.Seconds(), epochs: r.Epochs, sim: sum(r.SimTimes), digest: r.Digest}
			}
			return nil
		}
		// The uniform SP2 carries no contention state, so one plan serves
		// every repetition.
		in := genCycleInputs(o.workload, o.seed, o.sz)
		pl := h.planCycle(in)
		rep = func() repetition {
			r, _ := h.runWorld(pl, false)
			out := repetition{wall: r.Wall.Seconds(), epochs: len(r.Epochs), sim: r.SimTime,
				digest: digestOf(r.digestInto)}
			for _, ep := range r.Epochs {
				if in.Implicit && !ep.Converged {
					out.unconverged++
				}
			}
			return out
		}
		return nil
	}
	buildS, err := timedBuilds(build)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}
	check := func(r, first repetition) {
		switch {
		case r.digest != first.digest:
			out.fail(r.epochs, "repetition output %s differs from the first's %s", r.digest[:12], first.digest[:12])
		case r.unconverged > 0:
			out.fail(r.unconverged, "%d epochs with unconverged PCG", r.unconverged)
			out.pass(r.epochs - r.unconverged)
		default:
			out.pass(r.epochs)
		}
	}
	warm := rep()
	check(warm, warm)

	var walls []float64
	epochs := 0
	probe := readHost()
	for len(walls) == 0 || time.Since(probe.start).Seconds() < o.seconds {
		r := rep()
		check(r, warm)
		walls = append(walls, r.wall)
		epochs += r.epochs
	}
	host := probe.since()

	out.digest = warm.digest
	out.metrics["setup_s"] = buildS + warm.wall
	out.metrics["epochs_per_s"] = float64(warm.epochs) / median(walls)
	out.metrics["allocs_per_epoch"] = host.Mallocs / float64(epochs)
	out.metrics["sim_makespan_s"] = warm.sim
	out.metrics["op_ms_p50"] = median(walls) * 1e3
	return out, nil
}
