package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"plum/internal/machine"
	"plum/internal/obs"
	"plum/internal/pmesh"
	"plum/internal/scenario"
)

// The serving path through the experiment harness: one request = one
// hermetic world, driven with cooperative cancellation and fault
// isolation so a long-running daemon (cmd/plumserve) can run many of
// them concurrently against one shared, read-only Experiments.
//
// Concurrency contract: RunWorldCtx reads only immutable harness state
// (the global mesh, the dual graph, Cfg by value) and the partition
// memo, which is locked and hands every world the same read-only slice
// (partitionFor) — so any number of calls may run concurrently, and a
// request whose P is not in e.Ps leaves nothing behind.  Determinism
// contract: the emitted rows and SimTime are a pure function of the
// WorldSpec; the context only decides how far the run gets, never what
// any completed epoch contains, because the cancellation checkpoints
// execute the same simulated collectives whether or not they fire.

// WorldSpec names one servable world: everything that determines its
// simulated output.  Canonical/Digest are its one identity, the serving
// layer's cache and singleflight key (plus only a chaos suffix).
type WorldSpec struct {
	P        int
	Cycles   int
	Model    string // machine.Names() entry, or "" for the uniform SP2
	Mapper   Mapper
	Workload Workload
	Measured bool // price decisions from the previous epoch's profile

	// Frac / CoarsenBelow tune the refinement dynamics (zero values
	// take the feedback experiment's defaults: 0.12 / 0.05).
	Frac         float64
	CoarsenBelow float64

	// Seed phase-shifts the moving-feature indicator, so distinct seeds
	// are distinct simulations (deterministically — the seed is part of
	// the function, not an RNG state).
	Seed int64

	// Scenario, when non-nil, replaces the moving-shock dynamics with a
	// declarative workload spec (indicator schedule, burst fractions,
	// stragglers, background contention); P, Cycles, Model, Mapper,
	// Frac, and CoarsenBelow then come from the spec.
	Scenario *scenario.Spec
}

// seedFrac maps a seed to a deterministic phase in [0, 1): a SplitMix64
// finalizer step, so nearby seeds land far apart.
func seedFrac(seed int64) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Validate rejects specs the runner would panic on, so the serving
// layer can turn bad requests into 400s before any world starts.
func (ws *WorldSpec) Validate() error {
	if ws.Scenario != nil {
		if ws.Seed != 0 {
			return fmt.Errorf("scenario runs are seedless: seed must be 0, got %d", ws.Seed)
		}
		return nil // the scenario loader validated the spec
	}
	if ws.P < 1 || ws.P > 1024 {
		return fmt.Errorf("p must be in [1, 1024], got %d", ws.P)
	}
	if ws.Cycles < 1 || ws.Cycles > 64 {
		return fmt.Errorf("cycles must be in [1, 64], got %d", ws.Cycles)
	}
	if _, err := machine.ByName(machineName(ws.Model), ws.P); err != nil {
		return err
	}
	if ws.Mapper < MapHeuristic || ws.Mapper > MapTopo {
		return fmt.Errorf("unknown mapper %d", int(ws.Mapper))
	}
	if ws.Workload != WorkloadExplicit && ws.Workload != WorkloadImplicit {
		return fmt.Errorf("unknown workload %d", int(ws.Workload))
	}
	if ws.Frac < 0 || ws.Frac > 1 {
		return fmt.Errorf("frac must be in [0, 1], got %g", ws.Frac)
	}
	if ws.CoarsenBelow < 0 || ws.CoarsenBelow >= 1 {
		return fmt.Errorf("coarsen_below must be in [0, 1), got %g", ws.CoarsenBelow)
	}
	return nil
}

// Canonical renders a validated spec's identity: every field that
// determines the output, prefixed with the ledger schema version (a
// schema bump invalidates served results exactly as it invalidates
// committed baselines) and "serve" (a served world runs CollectiveStop
// checkpoints an offline plumbench world does not).  A scenario world is
// addressed by its spec's content, so a same-name edit is a new world.
func (ws *WorldSpec) Canonical() string {
	if sp := ws.Scenario; sp != nil {
		return fmt.Sprintf("v%d|serve|scenario=%s|measured=%v|seed=%d",
			obs.SchemaVersion, sp.Digest(), ws.Measured, ws.Seed)
	}
	return fmt.Sprintf("v%d|serve|p=%d|cycles=%d|model=%s|mapper=%s|workload=%s|measured=%v|frac=%g|coarsen=%g|seed=%d",
		obs.SchemaVersion, ws.P, ws.Cycles, ws.Model, mapperNames[ws.Mapper], ws.Workload,
		ws.Measured, ws.Frac, ws.CoarsenBelow, ws.Seed)
}

// Digest is the hex SHA-256 of Canonical: the world's content address.
func (ws *WorldSpec) Digest() string {
	sum := sha256.Sum256([]byte(ws.Canonical()))
	return hex.EncodeToString(sum[:])
}

// servedPlan resolves a validated WorldSpec: a corpus scenario as the
// scenario harness runs it, or the feedback experiment's moving shock
// with the request's shape — a seed-dependent starting offset (where
// the cylinder starts, and so which ranks the imbalance hits, is the
// seed's choice), the request's mapper and workload, an optional
// machine.  Either way the world gets the served epoch boundary — a
// barrier anchoring the epoch-level cancellation checkpoint — and no
// ledger key.
func (e *Experiments) servedPlan(ws WorldSpec) (epochPlan, error) {
	if sp := ws.Scenario; sp != nil {
		pl, err := e.scenarioPlan(sp, ws.Measured)
		pl.exp = "" // served, not a corpus sweep: unrecorded
		return pl, err
	}
	pl := epochPlan{
		model: ws.Model, p: ws.P, cycles: ws.Cycles,
		cfg:          e.Cfg,
		indicator:    e.movingShock(ws.Cycles, 0.2+0.2*seedFrac(ws.Seed)),
		frac:         constFrac(0.12),
		coarsenBelow: 0.05,
		barrier:      true,
	}
	if ws.Workload == WorkloadImplicit {
		pl.cfg = e.decisionConfig()
	}
	pl.cfg.ForceAccept = false
	pl.cfg.Measured = ws.Measured
	pl.cfg.useMapper(ws.Mapper)
	if ws.Frac > 0 {
		pl.frac = constFrac(ws.Frac)
	}
	if ws.CoarsenBelow > 0 {
		pl.coarsenBelow = ws.CoarsenBelow
	}
	pl.topo = mustMachine(ws.Model, ws.P) // Validate checked the name
	return pl, nil
}

// RunWorldCtx drives one world per the spec, calling emit on rank 0
// after each completed epoch (from inside the world — emit must not
// block on the world's own output), and returns the run summary.
//
// Cancellation: ctx is observed at epoch boundaries and, through
// Unsteady.Stop, between solver iterations; when it fires the world
// winds down collectively (no goroutine leaks, no torn collectives) and
// RunWorldCtx returns ctx.Err() with the rows emitted so far intact.
// The checkpoints are installed whatever ctx is — a context that can
// never fire still pays their collectives — because a served world and
// its offline replay must stay bitwise identical.
// Fault isolation: a panicking world — a rank program bug, an engine
// deadlock abort — is recovered into a *WorldPanic error (wrapping the
// typed *msg.RankPanic / *msg.DeadlockError) instead of unwinding the
// caller; its rows reached emit, but no summary comes back.
func (e *Experiments) RunWorldCtx(ctx context.Context, ws WorldSpec, emit func(FeedbackEpoch)) (FeedbackRun, error) {
	if err := ws.Validate(); err != nil {
		return FeedbackRun{}, err
	}
	pl, err := e.servedPlan(ws)
	if err != nil {
		return FeedbackRun{}, err
	}
	pl.stop = func() bool { return ctx.Err() != nil }
	var each func(FeedbackEpoch, CycleStats, *pmesh.DistMesh)
	if emit != nil {
		each = func(ep FeedbackEpoch, _ CycleStats, _ *pmesh.DistMesh) { emit(ep) }
	}
	var (
		run     FeedbackRun
		stopped bool
	)
	err = runWorlds(1, func(int) error {
		run, stopped = e.runEpochs(pl, each)
		return nil
	})
	if err == nil && stopped {
		err = ctx.Err()
		if err == nil {
			err = context.Canceled // Stop fired between sampling and here
		}
	}
	return run, err
}
