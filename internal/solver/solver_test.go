package solver

import (
	"math"
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
		part := partition.Partition(g, p, partition.Options{})
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
	part := partition.Partition(g, 3, partition.Options{})
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
	part := partition.Partition(g, 2, partition.Options{})
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
	part := partition.Partition(g, 4, partition.Options{})
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

// TestParallelStepAllocsFlat: a warm step allocates nothing.  The
// shared-vertex combine runs on scratch kept across steps, and the
// Alltoall's received payloads go back to the world's pool, so the next
// step's sends reuse them.  On a P=4 world, rank 0 counts a warm step's
// mallocs with testing.AllocsPerRun, which sees every rank's, while the
// other ranks step alongside it; the count must stay at most 1 (it was
// 17.8 before the collectives lent and took back their payloads).
func TestParallelStepAllocsFlat(t *testing.T) {
	global := mesh.Box(5, 5, 4, 5, 5, 4)
	part := partition.Partition(dual.FromMesh(global), 4, partition.Options{})
	msg.Run(4, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, NComp)
		ps := NewParallel(d)
		ps.InitParallel(GaussianPulse(mesh.Vec3{2.5, 2.5, 2}, 0.8))
		step := func() { ps.Step(0.001) }
		// Every rank's first step sizes its scratch and fills the pool;
		// the barrier keeps the other ranks' first steps out of rank 0's
		// count.
		step()
		c.Barrier()
		const runs = 10
		var perStep float64
		if c.Rank() == 0 {
			perStep = testing.AllocsPerRun(runs, step)
		} else {
			for i := 0; i <= runs; i++ {
				step()
			}
		}
		shared := c.AllreduceInt64(int64(len(ps.shared)), msg.SumInt64)
		if c.Rank() != 0 {
			return
		}
		t.Logf("%.0f mallocs per warm step, %d shared-vertex copies", perStep, shared)
		if shared == 0 {
			t.Error("partition has no shared vertices")
		}
		if perStep > 1 {
			t.Errorf("%.0f mallocs per warm step, want at most 1", perStep)
		}
	})
}

// referenceStep is PSolver.Step without the kernel tables: every step
// re-derives each owned edge's orientation and length and decodes every
// received partial's gid through VertByGID.  It returns the combined
// accumulators it applied.
func referenceStep(s *PSolver, dt float64) (acc, deg []float64) {
	d, m := s.D, s.D.M
	nv := len(m.Coords)
	acc = make([]float64, nv*NComp)
	deg = make([]float64, nv)
	work := 0
	var ua, ub, flux [NComp]float64
	for id := range m.EdgeV {
		if !s.own.Owned[id] {
			continue
		}
		a, b := OrientEdge(m, int32(id))
		length := m.Coords[a].Sub(m.Coords[b]).Norm()
		copy(ua[:], m.Sol[int(a)*NComp:])
		copy(ub[:], m.Sol[int(b)*NComp:])
		edgeFlux(&ua, &ub, length, &flux)
		for k := 0; k < NComp; k++ {
			acc[int(a)*NComp+k] -= flux[k]
			acc[int(b)*NComp+k] += flux[k]
		}
		deg[a] += length
		deg[b] += length
		work++
	}
	d.C.Compute(float64(work))

	p := d.C.Size()
	parts := make([][]byte, p)
	for r, vs := range s.own.Shared {
		for _, v := range vs {
			parts[r] = appendFloat(parts[r], float64(int64(m.VertGID[v]>>32)))
			parts[r] = appendFloat(parts[r], float64(uint32(m.VertGID[v])))
			for _, x := range acc[int(v)*NComp : int(v)*NComp+NComp] {
				parts[r] = appendFloat(parts[r], x)
			}
			parts[r] = appendFloat(parts[r], deg[v])
		}
	}
	recv := d.C.Alltoall(parts, make([][]byte, p))

	// Shared sums start at zero and add every partial in rank order.
	sum := make([]float64, nv*NComp)
	sumDeg := make([]float64, nv)
	combined := make([]bool, nv)
	add := func(v int32, a []float64, dg float64) {
		combined[v] = true
		for k := range a {
			sum[int(v)*NComp+k] += a[k]
		}
		sumDeg[v] += dg
	}
	const stride = 8 * (NComp + 3)
	for r := 0; r < p; r++ {
		if r == d.C.Rank() {
			for _, v := range s.shared {
				add(v, acc[int(v)*NComp:int(v)*NComp+NComp], deg[v])
			}
			continue
		}
		data := recv[r]
		for i := 0; i+stride <= len(data); i += stride {
			gid := uint64(int64(floatAt(data, i)))<<32 | uint64(uint32(int64(floatAt(data, i+8))))
			v := m.VertByGID(gid)
			if v < 0 {
				continue
			}
			var a [NComp]float64
			for k := range a {
				a[k] = floatAt(data, i+16+8*k)
			}
			add(v, a[:], floatAt(data, i+16+8*NComp))
		}
	}
	for v, ok := range combined {
		if ok {
			copy(acc[v*NComp:v*NComp+NComp], sum[v*NComp:])
			deg[v] = sumDeg[v]
		}
	}
	applyUpdate(m, acc, deg, dt)
	return acc, deg
}

// TestParallelStepMatchesReference: Step over the kernel tables leaves
// the solution bitwise equal to referenceStep's on a P=4 world, through
// 10 steps, a refinement, a migration and a Rebuild, and 10 more steps.
// The combined accumulators are compared too: an update of order 1e-3
// absorbs the last-bit differences a reordered edge sum leaves in them.
// Two solvers run side by side in one world, each on its own copy of
// the distributed mesh.
func TestParallelStepMatchesReference(t *testing.T) {
	const p = 4
	global := mesh.Box(4, 4, 3, 4, 4, 3)
	part := partition.Partition(dual.FromMesh(global), p, partition.Options{})
	rotated := make([]int32, len(part))
	for g, r := range part {
		rotated[g] = (r + 1) % p
	}
	init := GaussianPulse(mesh.Vec3{2, 2, 1.5}, 0.8)
	ind := adapt.SphericalIndicator(mesh.Vec3{1, 1, 1}, 1.2, 0.5)
	msg.Run(p, func(c *msg.Comm) {
		var solvers [2]*PSolver
		for i := range solvers {
			solvers[i] = NewParallel(pmesh.New(c, global, part, NComp))
			solvers[i].InitParallel(init)
		}
		fast, ref := solvers[0], solvers[1]
		// same reports the first difference without stopping the rank:
		// the other ranks still wait for it in the next collective.
		same := func(stage string, a, b []float64) {
			if t.Failed() {
				return
			}
			if len(a) != len(b) {
				t.Errorf("%s: rank %d holds %d values vs reference %d", stage, c.Rank(), len(a), len(b))
				return
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Errorf("%s: rank %d [%d] = %v, reference %v", stage, c.Rank(), i, a[i], b[i])
					return
				}
			}
		}
		steps := func() {
			for it := 0; it < 10; it++ {
				fast.Step(0.002)
				acc, deg := referenceStep(ref, 0.002)
				same("acc", fast.acc, acc)
				same("deg", fast.deg, deg)
			}
		}
		steps()
		same("Sol after 10 steps", fast.D.M.Sol, ref.D.M.Sol)
		edges := len(fast.D.M.EdgeV)
		for _, s := range solvers {
			d := s.D
			d.M.TargetEdges(d.M.EdgeErrorGeometric(ind), 0.3)
			d.PropagateParallel()
			d.Refine()
			d.Migrate(rotated)
			s.Rebuild()
		}
		if c.AllreduceInt64(int64(len(fast.D.M.EdgeV)-edges), msg.SumInt64) <= 0 {
			t.Error("the adaption added no edge")
		}
		same("Sol after adapt and migrate", fast.D.M.Sol, ref.D.M.Sol)
		steps()
		same("Sol after 10 more steps", fast.D.M.Sol, ref.D.M.Sol)
	})
}
