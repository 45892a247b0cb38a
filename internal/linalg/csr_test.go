package linalg

import (
	"math"
	"testing"

	"plum/internal/adapt"
	"plum/internal/mesh"
)

// refinedMesh builds a small adapted mesh with one refinement pass so the
// operator mixes initial vertices and hashed-gid midpoints.
func refinedMesh(nx, ny, nz int) *adapt.Mesh {
	m := mesh.Box(nx, ny, nz, float64(nx), float64(ny), float64(nz))
	a := adapt.FromMesh(m, 0)
	a.BuildEdgeElems()
	ind := adapt.SphericalIndicator(mesh.Vec3{float64(nx) / 2, float64(ny) / 2, float64(nz) / 2}, 0.8, 0.5)
	errv := a.EdgeErrorGeometric(ind)
	a.TargetEdges(errv, 0.5)
	a.Propagate()
	a.Refine()
	return a
}

func TestAssembleLaplacianProperties(t *testing.T) {
	a := refinedMesh(2, 2, 2)
	A := Assemble(a, 1.0, 1.0)
	if A.NRows != a.ActiveCounts().Verts {
		t.Fatalf("rows %d != active verts %d", A.NRows, a.ActiveCounts().Verts)
	}
	// Rows are gid-ascending; columns within each row too.
	for i := 1; i < A.NRows; i++ {
		if A.GID[i-1] >= A.GID[i] {
			t.Fatal("row gids not ascending")
		}
	}
	// Symmetry (bitwise: both entries come from the same edge weight)
	// and the Laplacian row-sum identity sum_j A_ij = shift.
	find := func(i int, j int32) (float64, bool) {
		cols, vals := A.Row(i)
		for k, c := range cols {
			if c == j {
				return vals[k], true
			}
		}
		return 0, false
	}
	for i := 0; i < A.NRows; i++ {
		cols, vals := A.Row(i)
		sum := 0.0
		for k, c := range cols {
			if k > 0 && A.GID[cols[k-1]] >= A.GID[c] {
				t.Fatal("columns not gid-ascending")
			}
			sum += vals[k]
			back, ok := find(int(c), int32(i))
			if !ok || back != vals[k] {
				t.Fatalf("A(%d,%d)=%v but A(%d,%d)=%v,%v", i, c, vals[k], c, i, back, ok)
			}
		}
		if math.Abs(sum-1.0) > 1e-9 {
			t.Fatalf("row %d sums to %v, want shift=1", i, sum)
		}
		if A.Diag[i] <= 0 {
			t.Fatalf("diag %d = %v not positive", i, A.Diag[i])
		}
	}
}

func TestSpMVMatchesNaive(t *testing.T) {
	a := refinedMesh(2, 2, 1)
	A := Assemble(a, 1.0, 0.5)
	x := make([]float64, A.NRows)
	for i := range x {
		x[i] = math.Sin(float64(i) + 1)
	}
	got := make([]float64, A.NRows)
	A.MulVec(got, x)
	for i := 0; i < A.NRows; i++ {
		cols, vals := A.Row(i)
		var want float64
		for k := range cols {
			want += vals[k] * x[cols[k]]
		}
		if math.Abs(got[i]-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("row %d: %v != naive %v", i, got[i], want)
		}
	}
}

func TestExactDotOrderIndependent(t *testing.T) {
	// Values spanning ~90 orders of magnitude: a naive float64 sum
	// depends strongly on order here; the exact accumulator must not.
	x := []float64{1e30, 1, -1e30, 1e-40, 3.5, -7.25e10, 1e-300, 42}
	y := []float64{2, 1e-30, 2, 1e40, 1, 1, 1e300, 1}
	want := ExactDot(x, y)
	// Reversed order.
	n := len(x)
	rx := make([]float64, n)
	ry := make([]float64, n)
	for i := range x {
		rx[n-1-i] = x[i]
		ry[n-1-i] = y[i]
	}
	if got := ExactDot(rx, ry); got != want {
		t.Fatalf("reversed order changed exact dot: %v != %v", got, want)
	}
	// Split into two accumulators and merge (the distributed path).
	a, b := NewAcc(), NewAcc()
	a.AddProducts(x[:3], y[:3])
	b.AddProducts(x[3:], y[3:])
	b.Merge(a)
	if got := b.Float64(); got != want {
		t.Fatalf("merged accumulators: %v != %v", got, want)
	}
}

func TestExactAccRoundTrip(t *testing.T) {
	a := NewAcc()
	a.AddProducts([]float64{1e-30, 7, -2.5e20}, []float64{3, 1, 1})
	if got := AccFromBytes(a.Bytes()).Float64(); got != a.Float64() {
		t.Fatalf("serialization round trip: %v != %v", got, a.Float64())
	}
}
