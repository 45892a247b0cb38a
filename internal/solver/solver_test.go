package solver

import (
	"math"
	"runtime"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
)

func newSerial(nx, ny, nz int) *adapt.Mesh {
	m := mesh.Box(nx, ny, nz, float64(nx), float64(ny), float64(nz))
	a := adapt.FromMesh(m, NComp)
	InitField(a, GaussianPulse(mesh.Vec3{float64(nx) / 2, float64(ny) / 2, float64(nz) / 2}, 0.8))
	return a
}

func TestStepRunsAndChangesSolution(t *testing.T) {
	a := newSerial(3, 3, 3)
	before := append([]float64(nil), a.Sol...)
	work := Step(a, 0.01)
	if work != a.ActiveCounts().Edges {
		t.Errorf("work %d != active edges %d", work, a.ActiveCounts().Edges)
	}
	changed := false
	for i := range a.Sol {
		if a.Sol[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("solution did not change")
	}
	for _, u := range a.Sol {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatal("solution blew up")
		}
	}
}

func TestStepStableManyIterations(t *testing.T) {
	a := newSerial(3, 3, 3)
	for it := 0; it < 50; it++ {
		Step(a, 0.005)
	}
	for _, u := range a.Sol {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatal("solution unstable after 50 iterations")
		}
	}
}

func TestStepOnRefinedMesh(t *testing.T) {
	a := newSerial(2, 2, 2)
	a.BuildEdgeElems()
	ind := adapt.SphericalIndicator(mesh.Vec3{1, 1, 1}, 0.5, 0.5)
	errv := a.EdgeErrorGeometric(ind)
	a.MarkTopFraction(errv, 0.3)
	a.Propagate()
	a.Refine()
	work := Step(a, 0.01)
	if work != a.ActiveCounts().Edges {
		t.Errorf("refined mesh: work %d != active edges %d", work, a.ActiveCounts().Edges)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	nx, ny, nz := 3, 3, 2
	global := mesh.Box(nx, ny, nz, float64(nx), float64(ny), float64(nz))
	init := GaussianPulse(mesh.Vec3{1.5, 1.5, 1.0}, 0.8)

	serial := adapt.FromMesh(global, NComp)
	InitField(serial, init)
	for it := 0; it < 5; it++ {
		Step(serial, 0.01)
	}
	// Reference solution keyed by gid (= initial vertex id here).
	ref := make(map[uint64][NComp]float64)
	for v := range serial.Coords {
		var u [NComp]float64
		copy(u[:], serial.Sol[v*NComp:])
		ref[serial.VertGID[v]] = u
	}

	for _, p := range []int{2, 4} {
		g := dual.FromMesh(global)
		part := partition.Partition(g, p, partition.Default())
		msg.Run(p, func(c *msg.Comm) {
			d := pmesh.New(c, global, part, NComp)
			ps := NewParallel(d)
			ps.InitParallel(init)
			for it := 0; it < 5; it++ {
				ps.Step(0.01)
			}
			for v := range d.M.Coords {
				if !d.M.VertAlive[v] {
					continue
				}
				want := ref[d.M.VertGID[v]]
				for k := 0; k < NComp; k++ {
					got := d.M.Sol[v*NComp+k]
					if math.Abs(got-want[k]) > 1e-10*(1+math.Abs(want[k])) {
						t.Fatalf("p=%d rank %d vertex gid %d comp %d: %v != serial %v",
							p, c.Rank(), d.M.VertGID[v], k, got, want[k])
					}
				}
			}
		})
	}
}

func TestParallelDeterministic(t *testing.T) {
	global := mesh.Box(2, 2, 2, 2, 2, 2)
	g := dual.FromMesh(global)
	part := partition.Partition(g, 3, partition.Default())
	run := func() float64 {
		var mass float64
		msg.Run(3, func(c *msg.Comm) {
			d := pmesh.New(c, global, part, NComp)
			ps := NewParallel(d)
			ps.InitParallel(GaussianPulse(mesh.Vec3{1, 1, 1}, 0.5))
			for it := 0; it < 3; it++ {
				ps.Step(0.01)
			}
			m := ps.GlobalMass()
			if c.Rank() == 0 {
				mass = m
			}
		})
		return mass
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("parallel solver not deterministic: %v != %v", a, b)
	}
}

func TestParallelAfterRefinement(t *testing.T) {
	global := mesh.Box(2, 2, 2, 2, 2, 2)
	g := dual.FromMesh(global)
	part := partition.Partition(g, 2, partition.Default())
	ind := adapt.SphericalIndicator(mesh.Vec3{1, 1, 1}, 0.6, 0.4)
	msg.Run(2, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, NComp)
		ps := NewParallel(d)
		ps.InitParallel(GaussianPulse(mesh.Vec3{1, 1, 1}, 0.5))
		errv := d.M.EdgeErrorGeometric(ind)
		d.M.TargetEdges(errv, 0.4)
		d.PropagateParallel()
		d.Refine()
		ps.Rebuild()
		for it := 0; it < 3; it++ {
			ps.Step(0.005)
		}
		for _, u := range d.M.Sol {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				t.Fatal("parallel solution unstable on refined mesh")
			}
		}
	})
}

func TestWorkPartitioning(t *testing.T) {
	// Sum of per-rank owned-edge work equals the serial edge count.
	global := mesh.Box(3, 2, 2, 3, 2, 2)
	serialEdges := adapt.FromMesh(global, NComp).ActiveCounts().Edges
	g := dual.FromMesh(global)
	part := partition.Partition(g, 4, partition.Default())
	msg.Run(4, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, NComp)
		ps := NewParallel(d)
		ps.InitParallel(GaussianPulse(mesh.Vec3{1, 1, 1}, 0.5))
		w := ps.Step(0.01)
		total := c.AllreduceInt64(int64(w), msg.SumInt64)
		if int(total) != serialEdges {
			t.Errorf("owned-edge work sums to %d, want %d", total, serialEdges)
		}
	})
}

func TestGaussianPulseShape(t *testing.T) {
	f := GaussianPulse(mesh.Vec3{0, 0, 0}, 1)
	at0 := f(mesh.Vec3{0, 0, 0})
	far := f(mesh.Vec3{10, 0, 0})
	if at0[0] <= far[0] {
		t.Error("pulse not peaked at centre")
	}
	if math.Abs(far[0]-1) > 1e-6 {
		t.Errorf("far-field density %v, want ~1", far[0])
	}
}

// TestParallelStepAllocsFlat: the shared-vertex combine runs on scratch
// kept across steps, so a step's allocations do not scale with the
// partition surface.  Over a P=4 world, the extra mallocs of 20 steps
// over 10, per step, must stay below the number of shared-vertex copies
// (a per-shared-vertex allocation alone would reach it).
func TestParallelStepAllocsFlat(t *testing.T) {
	global := mesh.Box(5, 5, 4, 5, 5, 4)
	part := partition.Partition(dual.FromMesh(global), 4, partition.Default())
	var shared int64
	mallocs := func(steps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg.Run(4, func(c *msg.Comm) {
			d := pmesh.New(c, global, part, NComp)
			ps := NewParallel(d)
			ps.InitParallel(GaussianPulse(mesh.Vec3{2.5, 2.5, 2}, 0.8))
			for it := 0; it < steps; it++ {
				ps.Step(0.001)
			}
			n := c.AllreduceInt64(int64(len(ps.own.VertSharers)), msg.SumInt64)
			if c.Rank() == 0 {
				shared = n
			}
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	perStep := (float64(mallocs(20)) - float64(mallocs(10))) / 10
	t.Logf("%.1f mallocs per step, %d shared-vertex copies", perStep, shared)
	if shared == 0 {
		t.Fatal("partition has no shared vertices")
	}
	if perStep >= float64(shared) {
		t.Errorf("%.1f mallocs per step, want fewer than the %d shared-vertex copies", perStep, shared)
	}
}
