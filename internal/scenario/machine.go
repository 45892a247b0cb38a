package scenario

import "plum/internal/machine"

// The two scenario machine wrappers.  Both obey the machine.Model
// purity contract — every method except Acquire is a pure function of
// its arguments and the installed cycle number, and Acquire's extra
// delay is a pure function of the injection time — so scenario runs
// inherit the engine's bitwise reproducibility unchanged.

// CycleSpeed applies the spec's per-cycle straggler speed vector on top
// of a base machine: Speed(r) is the base speed times SpeedsAt(cycle)[r].
// The driver calls SetCycle at each epoch boundary (after a barrier, so
// no rank still computes under the previous cycle's speeds); outside
// any call the wrapper behaves as cycle -1 — no slowdown — which is
// what the partitioner's pre-run target derivation sees, keeping the
// balancer blind to the transient exactly as a real system's static
// machine description would be.  Every method but Speed and Reset is the
// base model's.
type CycleSpeed struct {
	machine.Model
	spec  *Spec
	cycle int
}

// SetCycle installs the cycle whose speed vector subsequent Speed calls
// apply.  Idempotent for equal cycles; every rank of the world calls it
// at the epoch boundary (single-token execution serializes the writes).
func (c *CycleSpeed) SetCycle(i int) { c.cycle = i }

// Speed implements machine.Model: the base speed scaled by the current
// cycle's straggler factor (1 outside the declared window).
func (c *CycleSpeed) Speed(r int) float64 {
	s := c.Model.Speed(r)
	st := c.spec.Straggler
	if st == nil || c.cycle < 0 {
		return s
	}
	to := st.To
	if to == 0 {
		to = c.spec.Cycles
	}
	if c.cycle < st.From || c.cycle >= to {
		return s
	}
	for _, sr := range st.Ranks {
		if sr == r {
			return s * st.Slowdown
		}
	}
	return s
}

// Reset implements machine.Model: clears base contention state and
// returns to the pre-run cycle.
func (c *CycleSpeed) Reset() {
	c.Model.Reset()
	c.cycle = -1
}

// Background models a co-scheduled job's up-link traffic on a shared
// fat tree: transfers that the base machine reports contended (they
// cross a leaf group, reserving its up-link) pay extra per-byte delay
// whenever their injection lands in the peer job's busy window —
// Duty of every Period seconds, offset by Phase.  The delay is a pure
// function of the base machine's injection time, so the engine's
// deterministic reservation pass makes multi-job contention bitwise
// reproducible, exactly like the fat tree's own queueing.
//
// Every method but Name and Acquire is the base model's: the peer's
// load is transient, so Pair's per-pair constants (what the analytic
// pricing sees) stay the unloaded machine's, and the peer only loads
// links the base machine already serializes, so Contended is the
// base's too.
type Background struct {
	machine.Model
	period float64 // peer cycle length, simulated seconds
	busy   float64 // busy seconds per period (duty * period)
	phase  float64 // window offset, simulated seconds
	extra  float64 // extra per-byte delay during busy windows, s/B
}

// Name implements machine.Model.
func (b *Background) Name() string { return b.Model.Name() + "+job" }

// busyAt reports whether simulated time t falls in a peer busy window.
func (b *Background) busyAt(t float64) bool {
	if b.busy <= 0 || b.extra <= 0 {
		return false
	}
	x := t + b.phase
	x -= float64(int64(x/b.period)) * b.period
	if x < 0 {
		x += b.period
	}
	return x < b.busy
}

// Acquire implements machine.Model: the base reservation first (the
// job's own up-link queueing), then the peer's residual-bandwidth toll
// when the resulting injection time lands in a busy window.
func (b *Background) Acquire(src, dst, nbytes int, depart float64) float64 {
	t := b.Model.Acquire(src, dst, nbytes, depart)
	if b.Model.Contended(src, dst) && b.busyAt(t) {
		t += float64(nbytes) * b.extra
	}
	return t
}
