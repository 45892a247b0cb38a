package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/scenario"
	"plum/internal/solver"
)

// The serving-path contracts: runWorlds' panic containment, cooperative
// cancellation through RunWorldCtx (no goroutine leaks, partial rows
// intact), and the mid-epoch stop checkpoint.  The determinism the
// result cache rests on is pinned by TestEpochPlansDeterministic.

// TestWorldSpecDigest pins the served world's identity: the canon of a
// shape spec is the literal string the result cache has always keyed
// (so served digests never moved), every WorldSpec field moves the
// digest, and a scenario is addressed by its content, not its name.
func TestWorldSpecDigest(t *testing.T) {
	shape := WorldSpec{P: 8, Cycles: 2, Workload: WorkloadImplicit, Seed: 7}
	const want = "v2|serve|p=8|cycles=2|model=|mapper=heu|workload=implicit|measured=false|frac=0|coarsen=0|seed=7"
	if got := shape.Canonical(); got != want {
		t.Errorf("shape canon moved:\ngot  %s\nwant %s", got, want)
	}

	front := &scenario.Spec{Name: "s", Kind: scenario.KindFront, Model: "flat", P: 4, Cycles: 2,
		Mapper: "heu", Frac: 0.12, Front: &scenario.FrontSpec{X0: 0.2, X1: 0.8, Width: 0.12}}
	edited := *front
	edited.Frac = 0.2
	edits := map[string]func(*WorldSpec){
		"P":            func(ws *WorldSpec) { ws.P = 4 },
		"Cycles":       func(ws *WorldSpec) { ws.Cycles = 3 },
		"Model":        func(ws *WorldSpec) { ws.Model = "smp" },
		"Mapper":       func(ws *WorldSpec) { ws.Mapper = MapTopo },
		"Workload":     func(ws *WorldSpec) { ws.Workload = WorkloadExplicit },
		"Measured":     func(ws *WorldSpec) { ws.Measured = true },
		"Frac":         func(ws *WorldSpec) { ws.Frac = 0.2 },
		"CoarsenBelow": func(ws *WorldSpec) { ws.CoarsenBelow = 0.1 },
		"Seed":         func(ws *WorldSpec) { ws.Seed = 8 },
		"Scenario":     func(ws *WorldSpec) { *ws = WorldSpec{Scenario: front} },
	}
	typ := reflect.TypeOf(shape)
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := edits[typ.Field(i).Name]; !ok {
			t.Errorf("WorldSpec.%s has no digest test: is it part of the canon?", typ.Field(i).Name)
		}
	}
	for name, edit := range edits {
		ws := shape
		edit(&ws)
		if ws.Digest() == shape.Digest() {
			t.Errorf("editing %s kept the digest", name)
		}
	}

	scen := WorldSpec{Scenario: front}
	if same := (WorldSpec{Scenario: &edited}); same.Digest() == scen.Digest() {
		t.Error("a same-name scenario edit kept the digest")
	}
	if measured := (WorldSpec{Scenario: front, Measured: true}); measured.Digest() == scen.Digest() {
		t.Error("measured pricing of a scenario kept the digest")
	}
}

func TestRunWorldsErrRecoversPanic(t *testing.T) {
	err := runWorlds(4, func(i int) error {
		if i == 2 {
			panic("world bug")
		}
		return nil
	})
	var wp *WorldPanic
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v (%T), want *WorldPanic", err, err)
	}
	if wp.World != 2 {
		t.Errorf("World = %d, want 2", wp.World)
	}
	if wp.Value != "world bug" {
		t.Errorf("Value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 || !strings.Contains(string(wp.Stack), "goroutine") {
		t.Errorf("missing goroutine stack, got %q", wp.Stack)
	}
}

func TestRunWorldsErrUnwrapsErrorPanics(t *testing.T) {
	sentinel := errors.New("typed failure")
	err := runWorlds(1, func(int) error { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false; err = %v", err)
	}
}

// TestUnsteadyStopMidEpoch pins the mid-epoch checkpoint semantics
// deterministically: with NAdapt=20 and the default cadence of 8, the
// checkpoints fall after iterations 8 and 16; a hook that fires on its
// second consultation stops the cycle at iteration 16, collectively, on
// every rank.
func TestUnsteadyStopMidEpoch(t *testing.T) {
	const p = 4
	global := mesh.Box(8, 6, 4, 2.4, 1.8, 1.2)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	cfg := DefaultConfig()
	cfg.NAdapt = 20
	cfg.ForceAccept = false

	run := func(hook func() bool) (stopped bool, work int) {
		msg.RunModel(p, msg.SP2Model(), func(c *msg.Comm) {
			d := pmesh.New(c, global, initPart, solver.NComp)
			u := NewUnsteady(d, g, cfg)
			u.Frac = 0.12
			u.Indicator = func(int) func(mesh.Vec3) float64 {
				return adapt.ShockCylinderIndicator(
					mesh.Vec3{1.0, 0.9, 0}, mesh.Vec3{0, 0, 1}, 0.3, 0.15)
			}
			u.Stop = hook
			u.PS.InitParallel(solver.GaussianPulse(mesh.Vec3{1.2, 0.9, 0.6}, 0.4))
			cs := u.Cycle()
			if c.Rank() == 0 {
				stopped, work = cs.Stopped, cs.SolverWork
			}
		})
		return
	}

	calls := 0
	stopped, partialWork := run(func() bool { calls++; return calls >= 2 })
	if !stopped {
		t.Fatal("second-checkpoint hook did not stop the cycle")
	}
	fullStopped, fullWork := run(func() bool { return false })
	if fullStopped {
		t.Fatal("never-firing hook stopped the cycle")
	}
	if partialWork >= fullWork {
		t.Errorf("stopped cycle did %d work, full cycle %d — stop saved nothing", partialWork, fullWork)
	}
}

// settleGoroutines polls until the goroutine count returns to within
// slack of base (world teardown is asynchronous only in that the
// spawning goroutine observes completion before the worker fully
// exits), failing the test if it never does.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, base %d\n%s", n, base, buf)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestRunWorldCtxCancelMidSweep cancels from inside the first epoch's
// emit: the world must wind down collectively at the next checkpoint,
// return the context's error with the completed rows intact, and leak
// nothing.
func TestRunWorldCtxCancelMidSweep(t *testing.T) {
	e := NewExperiments(false)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ws := WorldSpec{P: 4, Cycles: 4, Mapper: MapHeuristic, Workload: WorkloadImplicit}
	var rows int
	run, err := e.RunWorldCtx(ctx, ws, func(FeedbackEpoch) {
		rows++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != 1 || len(run.Epochs) != 1 {
		t.Errorf("rows = %d, run.Epochs = %d; want 1 each (cancel after the first epoch)", rows, len(run.Epochs))
	}
	settleGoroutines(t, base)
}

// TestRunWorldCtxDeadlineMidEpoch drives the explicit workload — 50
// solver iterations per epoch, so the in-epoch checkpoints are live —
// under a deadline that expires while the first epoch solves.  The run
// must come back with DeadlineExceeded and no goroutine debt.
func TestRunWorldCtxDeadlineMidEpoch(t *testing.T) {
	e := NewExperiments(false)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	ws := WorldSpec{P: 4, Cycles: 4, Mapper: MapHeuristic, Workload: WorkloadExplicit}
	_, err := e.RunWorldCtx(ctx, ws, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	settleGoroutines(t, base)
}
