package linalg

import (
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
)

const (
	testShift = 1.0
	testScale = 0.35
)

// rhsField is the deterministic right-hand side used by the agreement
// tests: a function of position only, so every rank computes bitwise the
// same value for a given vertex.
func rhsField(p mesh.Vec3) float64 {
	return 1 + 0.25*p[0]*p[1] - 0.5*p[2] + 0.125*p[0]
}

// serialReference refines the global mesh with the given indicator
// threshold and solves the assembled system, returning the residual
// history and the solution keyed by vertex gid.
func serialReference(global *mesh.Mesh, ind func(mesh.Vec3) float64, kind PrecondKind) (Result, map[uint64]float64) {
	a := adapt.FromMesh(global, 0)
	a.BuildEdgeElems()
	errv := a.EdgeErrorGeometric(ind)
	a.TargetEdges(errv, 0.5)
	a.Propagate()
	a.Refine()

	A := Assemble(a, testShift, testScale)
	sys := NewSerial(A)
	b := make([]float64, A.NRows)
	for i, g := range A.GID {
		b[i] = rhsField(a.Coords[a.VertByGID(g)])
	}
	x := make([]float64, A.NRows)
	res := PCG(sys, sys.NewPrecond(kind), b, x, DefaultOptions())
	sol := make(map[uint64]float64, len(x))
	for i, g := range A.GID {
		sol[g] = x[i]
	}
	return res, sol
}

// TestDistributedMatchesSerialBitwise is the core guarantee of the
// subsystem: PCG on the distributed operator produces bitwise-identical
// iterates and residual histories for P in {1,2,4,8}, for every
// preconditioner, against the serial reference.
func TestDistributedMatchesSerialBitwise(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1}, 0.8, 0.5)
	g := dual.FromMesh(global)

	for _, kind := range []PrecondKind{PrecondNone, PrecondJacobi, PrecondSPAI} {
		want, wantSol := serialReference(global, ind, kind)
		if !want.Converged {
			t.Fatalf("%v: serial reference did not converge", kind)
		}
		for _, p := range []int{1, 2, 4, 8} {
			part := partition.Partition(g, p, partition.Options{})
			msg.Run(p, func(c *msg.Comm) {
				d := pmesh.New(c, global, part, 0)
				le := d.M.EdgeErrorGeometric(ind)
				d.M.TargetEdges(le, 0.5)
				d.PropagateParallel()
				d.Refine()

				sys := NewDistSystem(d, testShift, testScale)
				b := make([]float64, sys.Rows())
				for i, v := range sys.rowVert {
					b[i] = rhsField(d.M.Coords[v])
				}
				x := make([]float64, sys.Rows())
				res := PCG(sys, sys.NewPrecond(kind), b, x, DefaultOptions())

				if res.Iterations != want.Iterations || res.Converged != want.Converged {
					t.Errorf("%v P=%d rank %d: %d iterations (converged=%v), serial %d (%v)",
						kind, p, c.Rank(), res.Iterations, res.Converged,
						want.Iterations, want.Converged)
					return
				}
				for k, r := range res.Residuals {
					if r != want.Residuals[k] {
						t.Errorf("%v P=%d rank %d: residual[%d] = %x, serial %x",
							kind, p, c.Rank(), k, r, want.Residuals[k])
						return
					}
				}
				for i, gid := range sys.A.GID {
					if x[i] != wantSol[gid] {
						t.Errorf("%v P=%d rank %d: x[gid %d] = %x, serial %x",
							kind, p, c.Rank(), gid, x[i], wantSol[gid])
						return
					}
				}
			})
		}
	}
}

// TestDistPCGAllocsFlat: on a P=4 world a warm Dot and a warm PCG
// iteration make no malloc, with and without the halo overlap, and a
// warm solve makes one per rank (its residual history).  Dot's
// encoding, its gathered parts and its broadcast ride system-owned
// storage and pooled messages, PCG's vectors live on the system, and
// halo payloads go back to the pool.  Every call is collective, so rank
// 0 counts with testing.AllocsPerRun, which sees every rank's mallocs,
// while the other ranks make the same calls.  The per-iteration figure
// differences two solve lengths, which cancels what a solve allocates
// once.
func TestDistPCGAllocsFlat(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	part := partition.Partition(dual.FromMesh(global), 4, partition.Options{})
	msg.Run(4, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, 0)
		sys := NewDistSystem(d, testShift, testScale)
		pre := sys.NewPrecond(PrecondSPAI)
		b := make([]float64, sys.Rows())
		for i, v := range sys.rowVert {
			b[i] = rhsField(d.M.Coords[v])
		}
		x := make([]float64, sys.Rows())
		const runs = 10
		allocs := func(f func()) float64 {
			// A first call on every rank, then a barrier, keeps the
			// other ranks' warm-up out of rank 0's count.
			f()
			c.Barrier()
			if c.Rank() == 0 {
				return testing.AllocsPerRun(runs, f)
			}
			for i := 0; i <= runs; i++ { // AllocsPerRun's own warm-up call, then runs
				f()
			}
			return 0
		}
		// A tolerance no solve reaches: every solve runs MaxIter iterations.
		solve := func(iters int) func() {
			return func() {
				clear(x)
				if r := PCG(sys, pre, b, x, Options{Tol: 1e-300, MaxIter: iters}); r.Iterations != iters {
					t.Errorf("solve stopped after %d of %d iterations", r.Iterations, iters)
				}
			}
		}
		for _, overlap := range []bool{false, true} {
			sys.Overlap = overlap
			dot := allocs(func() { sys.Dot(b, x) })
			short, long := allocs(solve(2)), allocs(solve(6))
			if c.Rank() != 0 {
				continue
			}
			if dot != 0 {
				t.Errorf("overlap %v: %v mallocs per warm Dot, want 0", overlap, dot)
			}
			if perIter := (long - short) / 4; perIter != 0 {
				t.Errorf("overlap %v: %v mallocs per warm PCG iteration, want 0", overlap, perIter)
			}
			if short > float64(c.Size()) {
				t.Errorf("overlap %v: %v mallocs per warm solve, want at most one per rank", overlap, short)
			}
		}
	})
}

// TestDistributedOperatorMatchesSerial checks the assembled operator
// itself: every owned row of every rank is entry-for-entry identical to
// the serial assembly.
func TestDistributedOperatorMatchesSerial(t *testing.T) {
	global := mesh.Box(3, 2, 2, 3, 2, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1, 1}, 0.7, 0.5)

	a := adapt.FromMesh(global, 0)
	a.BuildEdgeElems()
	errv := a.EdgeErrorGeometric(ind)
	a.TargetEdges(errv, 0.5)
	a.Propagate()
	a.Refine()
	ref := Assemble(a, testShift, testScale)

	g := dual.FromMesh(global)
	for _, p := range []int{2, 4, 8} {
		part := partition.Partition(g, p, partition.Options{})
		rowsSeen := make([]int64, p)
		msg.Run(p, func(c *msg.Comm) {
			d := pmesh.New(c, global, part, 0)
			le := d.M.EdgeErrorGeometric(ind)
			d.M.TargetEdges(le, 0.5)
			d.PropagateParallel()
			d.Refine()
			sys := NewDistSystem(d, testShift, testScale)
			for i, gid := range sys.A.GID {
				ri := ref.RowOf(gid)
				if ri < 0 {
					t.Errorf("P=%d rank %d: row gid %d not in serial operator", p, c.Rank(), gid)
					return
				}
				rcols, rvals := ref.Row(ri)
				cols, vals := sys.A.Row(i)
				if len(cols) != len(rcols) {
					t.Errorf("P=%d rank %d gid %d: %d entries, serial %d",
						p, c.Rank(), gid, len(cols), len(rcols))
					return
				}
				for k := range cols {
					if sys.colGID(cols[k]) != ref.GID[rcols[k]] || vals[k] != rvals[k] {
						t.Errorf("P=%d rank %d gid %d entry %d: (%d,%x) != serial (%d,%x)",
							p, c.Rank(), gid, k, sys.colGID(cols[k]), vals[k],
							ref.GID[rcols[k]], rvals[k])
						return
					}
				}
			}
			rowsSeen[c.Rank()] = int64(sys.Rows())
		})
		total := 0
		for _, n := range rowsSeen {
			total += int(n)
		}
		if total != ref.NRows {
			t.Errorf("P=%d: ranks own %d rows in total, serial has %d", p, total, ref.NRows)
		}
	}
}

// TestDistributedDeterministic reruns an identical distributed solve and
// demands bitwise-identical output (the repo-wide determinism property).
func TestDistributedDeterministic(t *testing.T) {
	global := mesh.Box(2, 2, 2, 2, 2, 2)
	g := dual.FromMesh(global)
	part := partition.Partition(g, 3, partition.Options{})
	run := func() []float64 {
		var hist []float64
		msg.Run(3, func(c *msg.Comm) {
			d := pmesh.New(c, global, part, 0)
			sys := NewDistSystem(d, 1, 1)
			b := make([]float64, sys.Rows())
			for i, v := range sys.rowVert {
				b[i] = rhsField(d.M.Coords[v])
			}
			x := make([]float64, sys.Rows())
			res := PCG(sys, sys.NewPrecond(PrecondSPAI), b, x, DefaultOptions())
			if c.Rank() == 0 {
				hist = res.Residuals
			}
		})
		return hist
	}
	h1, h2 := run(), run()
	if len(h1) != len(h2) {
		t.Fatalf("history lengths differ: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("residual %d differs between reruns: %x vs %x", i, h1[i], h2[i])
		}
	}
}

// TestScatterFieldConsistent verifies that after a distributed solve and
// scatter, every copy of a shared vertex holds the owner's value.
func TestScatterFieldConsistent(t *testing.T) {
	global := mesh.Box(2, 2, 2, 2, 2, 2)
	g := dual.FromMesh(global)
	part := partition.Partition(g, 4, partition.Options{})
	msg.Run(4, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, 1)
		sys := NewDistSystem(d, 1, 1)
		x := make([]float64, sys.Rows())
		for i, gid := range sys.A.GID {
			x[i] = float64(gid) * 1.5
		}
		sys.ScatterField(1, 0, x)
		// Every alive local vertex must hold gid*1.5, whether owned
		// here or received from the owner.
		for v := range d.M.Coords {
			if !d.M.VertAlive[v] {
				continue
			}
			want := float64(d.M.VertGID[v]) * 1.5
			if d.M.Sol[v] != want {
				t.Errorf("rank %d vertex gid %d: %v != %v", c.Rank(), d.M.VertGID[v], d.M.Sol[v], want)
			}
		}
	})
}
