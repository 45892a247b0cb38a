package core

import (
	"math"
	"reflect"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"
)

func TestUnsteadyDriver(t *testing.T) {
	const p = 4
	global := mesh.Box(8, 6, 4, 2.4, 1.8, 1.2)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	cfg := DefaultConfig()
	cfg.NAdapt = 4
	cfg.ForceAccept = false

	msg.RunModel(p, msg.SP2Model(), func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, solver.NComp)
		u := NewUnsteady(d, g, cfg)
		u.Frac = 0.12
		u.CoarsenBelow = 0.05
		u.Indicator = func(i int) func(mesh.Vec3) float64 {
			x := 0.6 + 0.4*float64(i)
			return adapt.ShockCylinderIndicator(
				mesh.Vec3{x, 0.9, 0}, mesh.Vec3{0, 0, 1}, 0.3, 0.15)
		}
		u.PS.InitParallel(solver.GaussianPulse(mesh.Vec3{1.2, 0.9, 0.6}, 0.4))

		prevElems := 0
		for i := 0; i < 3; i++ {
			cs := u.Cycle()
			if err := d.M.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d rank %d: %v", i, c.Rank(), err)
			}
			if math.IsNaN(cs.Mass) || cs.Mass <= 0 {
				t.Fatalf("cycle %d: bad mass %v", i, cs.Mass)
			}
			if cs.WorkBalance <= 0 || cs.WorkBalance > 1+1e-9 {
				t.Fatalf("cycle %d: work balance %v out of range", i, cs.WorkBalance)
			}
			if cs.Step.Counts.Elems < global.NumElems() {
				t.Fatalf("cycle %d: mesh below initial size", i)
			}
			// With coarsening behind the moving shock, the mesh must not
			// grow unboundedly: each cycle's size stays within 3x the
			// previous (pure accumulation would give ~x8 growth compound).
			if prevElems > 0 && cs.Step.Counts.Elems > 3*prevElems {
				t.Fatalf("cycle %d: runaway growth %d -> %d", i, prevElems, cs.Step.Counts.Elems)
			}
			prevElems = cs.Step.Counts.Elems
		}
		if u.CycleNumber() != 3 {
			t.Errorf("cycle counter = %d", u.CycleNumber())
		}
	})
}

// TestCycleSpanWindows: on a traced, observed world the trace holds
// only the window being cut.  Rank 0's cycle windows (CycleStats.Spans)
// followed by the spans the closing collectives complete after the
// last cut are exactly the spans of the same world run without a cut,
// and the records left at the end are the tail of that world's records
// from the last cycle's start.  Other ranks, and every rank of an
// untraced world, get no window.
func TestCycleSpanWindows(t *testing.T) {
	const p = 2
	global := mesh.Box(6, 4, 2, 1.8, 1.2, 0.6)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, p, partition.Options{})
	var windows [][]event.Span
	bodyOf := func(cfg Config) func(c *msg.Comm) {
		return func(c *msg.Comm) {
			d := pmesh.New(c, global, initPart, solver.NComp)
			u := NewUnsteady(d, g, cfg)
			u.Indicator = func(int) func(mesh.Vec3) float64 {
				return adapt.ShockCylinderIndicator(
					mesh.Vec3{0.9, 0.6, 0}, mesh.Vec3{0, 0, 1}, 0.3, 0.15)
			}
			u.PS.InitParallel(solver.GaussianPulse(mesh.Vec3{0.9, 0.6, 0.3}, 0.4))
			for i := 0; i < 2; i++ {
				cs := u.Cycle()
				if c.Rank() == 0 {
					windows = append(windows, cs.Spans)
				} else if cs.Spans != nil {
					t.Errorf("rank %d cycle %d: got a span window", c.Rank(), i)
				}
			}
		}
	}
	observed := DefaultConfig()
	observed.Observe = true
	_, tr := msg.RunTraced(p, msg.SP2Model(), bodyOf(observed))
	cutWindows := windows
	windows = nil
	_, whole := msg.RunTraced(p, msg.SP2Model(), bodyOf(DefaultConfig()))

	var tiled []event.Span
	for i, w := range cutWindows {
		if len(w) == 0 {
			t.Errorf("cycle %d: empty span window", i)
		}
		tiled = append(tiled, w...)
	}
	if !reflect.DeepEqual(append(tiled, tr.Spans...), whole.Spans) {
		t.Errorf("windows (%d spans) + trace tail (%d) differ from the uncut trace's %d spans",
			len(tiled), len(tr.Spans), len(whole.Spans))
	}
	kept, all := tr.Records, whole.Records
	if len(kept) >= len(all) || !reflect.DeepEqual(kept, all[len(all)-len(kept):]) {
		t.Errorf("trace keeps %d records, not a proper tail of the uncut trace's %d", len(kept), len(all))
	}

	windows = nil
	msg.RunModel(p, msg.SP2Model(), bodyOf(observed))
	for i, w := range windows {
		if w != nil {
			t.Errorf("untraced cycle %d: got %d spans", i, len(w))
		}
	}
}

func TestPartitionQualityMetrics(t *testing.T) {
	g := dual.FromMesh(mesh.Box(4, 4, 4, 1, 1, 1))
	part := partition.Partition(g, 4, partition.Options{})
	cut, vol := partition.EdgeCut(g, part), partition.CommVolume(g, part)
	if cut <= 0 || vol <= 0 {
		t.Fatalf("degenerate quality: edge cut %d, comm volume %d", cut, vol)
	}
	// Communication volume counts distinct neighbour parts per vertex;
	// each cut edge contributes to at most its two endpoints, and at
	// least one endpoint sees a foreign part.
	if vol > 2*cut {
		t.Errorf("comm volume %d exceeds 2x edge cut %d", vol, cut)
	}
	// A single-part "partition" has zero communication.
	one := make([]int32, g.NumVerts())
	if c1, v1 := partition.EdgeCut(g, one), partition.CommVolume(g, one); c1 != 0 || v1 != 0 {
		t.Errorf("one-part quality: edge cut %d, comm volume %d, want 0", c1, v1)
	}
}
