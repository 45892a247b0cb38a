package linalg

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
)

// The overlapped halo exchange is a pure scheduling change: every owned
// row is computed by the identical kernel over identically ordered
// entries, so dst — and therefore every PCG iterate — must be bitwise
// the same as the blocking path, while the simulated clock may only
// improve.

// overlapSolve runs one traced PCG solve on p ranks and returns rank 0's
// result with the world's trace.
func overlapSolve(t *testing.T, p int, overlap bool) (Result, *event.Trace) {
	t.Helper()
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1}, 0.8, 0.5)
	g := dual.FromMesh(global)
	part := partition.Partition(g, p, partition.Options{})
	var res Result
	_, tr := msg.RunTraced(p, msg.SP2Model(), func(c *msg.Comm) {
		d := pmesh.New(c, global, part, 0)
		le := d.M.EdgeErrorGeometric(ind)
		d.M.TargetEdges(le, 0.5)
		d.PropagateParallel()
		d.Refine()

		sys := NewDistSystem(d, testShift, testScale)
		sys.Overlap = overlap
		b := make([]float64, sys.Rows())
		for i, v := range sys.rowVert {
			b[i] = rhsField(d.M.Coords[v])
		}
		x := make([]float64, sys.Rows())
		r := PCG(sys, sys.NewPrecond(PrecondSPAI), b, x, DefaultOptions())
		if c.Rank() == 0 {
			res = r
		}
	})
	return res, tr
}

// TestOverlapBitwiseIdenticalIterates: residual histories agree bit for
// bit between blocking and overlapped execution.
func TestOverlapBitwiseIdenticalIterates(t *testing.T) {
	for _, p := range []int{2, 4} {
		blocking, _ := overlapSolve(t, p, false)
		overlapped, _ := overlapSolve(t, p, true)
		if blocking.Iterations != overlapped.Iterations {
			t.Fatalf("P=%d: iteration counts diverged: %d vs %d",
				p, blocking.Iterations, overlapped.Iterations)
		}
		for i := range blocking.Residuals {
			if math.Float64bits(blocking.Residuals[i]) != math.Float64bits(overlapped.Residuals[i]) {
				t.Fatalf("P=%d: residual %d diverged: %x vs %x",
					p, i, blocking.Residuals[i], overlapped.Residuals[i])
			}
		}
	}
}

// TestHaloRecordsCarryHaloPhase: every halo message, blocking or
// overlapped, is sent and received under event.PhaseHalo.  The profile
// aggregator buckets receive waits by phase alone, so a halo exchange
// that forgot its PushPhase would drift its waits into "other".
func TestHaloRecordsCarryHaloPhase(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		_, tr := overlapSolve(t, 3, overlap)
		var sends, recvs int
		for _, r := range tr.Records {
			if r.Tag != tagHalo {
				continue
			}
			if r.Phase != event.PhaseHalo {
				t.Fatalf("overlap=%v: halo %+v carries phase %v", overlap, r, r.Phase)
			}
			if r.Kind == event.KindSend {
				sends++
			} else {
				recvs++
			}
		}
		if sends == 0 || sends != recvs {
			t.Fatalf("overlap=%v: %d halo sends, %d receives", overlap, sends, recvs)
		}
	}
}

// TestSplitRowsPartitionsAll: every owned row is exactly one of
// interior or boundary, and the nnz counts tile the matrix.
func TestSplitRowsPartitionsAll(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	g := dual.FromMesh(global)
	part := partition.Partition(g, 4, partition.Options{})
	msg.Run(4, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, 0)
		sys := NewDistSystem(d, testShift, testScale)
		if len(sys.interior)+len(sys.boundary) != sys.A.NRows {
			t.Errorf("rank %d: split covers %d+%d of %d rows",
				c.Rank(), len(sys.interior), len(sys.boundary), sys.A.NRows)
		}
		if sys.nnzInterior+sys.nnzBoundary != sys.A.NNZ() {
			t.Errorf("rank %d: split nnz %d+%d != %d",
				c.Rank(), sys.nnzInterior, sys.nnzBoundary, sys.A.NNZ())
		}
		n := int32(sys.A.NRows)
		for _, i := range sys.interior {
			cols, _ := sys.A.Row(int(i))
			for _, cc := range cols {
				if cc >= n {
					t.Fatalf("rank %d: interior row %d touches ghost column", c.Rank(), i)
				}
			}
		}
	})
}

// TestMulVecRowsMatchesMulVec: the row-subset kernel is bitwise the
// full kernel on its rows.
func TestMulVecRowsMatchesMulVec(t *testing.T) {
	global := mesh.Box(3, 2, 2, 3, 2, 2)
	a := adapt.FromMesh(global, 0)
	A := Assemble(a, testShift, testScale)
	x := make([]float64, A.NCols)
	for i := range x {
		x[i] = 0.25*float64(i%13) - 1
	}
	want := make([]float64, A.NRows)
	A.MulVec(want, x)
	got := make([]float64, A.NRows)
	var odd, even []int32
	for i := 0; i < A.NRows; i++ {
		if i%2 == 0 {
			even = append(even, int32(i))
		} else {
			odd = append(odd, int32(i))
		}
	}
	A.MulVecRows(got, x, odd)
	A.MulVecRows(got, x, even)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: %x vs %x", i, want[i], got[i])
		}
	}
}
