package linalg

import (
	"math"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
)

// The dense SPAI construction the sparse setup replaced, kept as the
// test oracle: per row, the union I of the patterns of the rows in J,
// the dense Â = A(I, J), the dense normal equations G = ÂᵀÂ and a
// freshly allocated Cholesky solve.  It reads rows by gid from a serial
// matrix.

// denseRow returns the column gids and values (from vals, aligned with
// A.Val) of the row of A with the given gid, or nil when there is none.
func denseRow(A *CSR, vals []float64, gid uint64) ([]uint64, []float64) {
	i := A.RowOf(gid)
	if i < 0 {
		return nil, nil
	}
	cols, _ := A.Row(i)
	g := make([]uint64, len(cols))
	for k, c := range cols {
		g[k] = A.GID[c]
	}
	return g, vals[A.RowPtr[i]:A.RowPtr[i+1]]
}

// denseSPAIRawRows is the dense reference for spaiRawRows.
func denseSPAIRawRows(A *CSR) []float64 {
	out := make([]float64, len(A.Val))
	for i := 0; i < A.NRows; i++ {
		jGids, _ := denseRow(A, A.Val, A.GID[i])
		nj := len(jGids)

		var iGids []uint64
		for _, j := range jGids {
			cg, _ := denseRow(A, A.Val, j)
			iGids = append(iGids, cg...)
		}
		slices.Sort(iGids)
		iGids = slices.Compact(iGids)
		ni := len(iGids)

		ahat := make([]float64, ni*nj) // dense |I| x |J|, row-major
		for jj, j := range jGids {
			cg, cv := denseRow(A, A.Val, j)
			for t, k := range cg {
				ri, _ := slices.BinarySearch(iGids, k)
				ahat[ri*nj+jj] = cv[t]
			}
		}
		g := make([]float64, nj*nj)
		for p := 0; p < nj; p++ {
			for q := p; q < nj; q++ {
				var s float64
				for r := 0; r < ni; r++ {
					s += ahat[r*nj+p] * ahat[r*nj+q]
				}
				g[p*nj+q] = s
				g[q*nj+p] = s
			}
		}
		rowI, _ := slices.BinarySearch(iGids, A.GID[i])
		rhs := make([]float64, nj)
		for p := 0; p < nj; p++ {
			rhs[p] = ahat[rowI*nj+p]
		}
		m, ok := denseCholSolve(g, rhs, nj)
		if !ok {
			m = make([]float64, nj)
			d, _ := slices.BinarySearch(jGids, A.GID[i])
			m[d] = 1 / A.Diag[i]
		}
		copy(out[A.RowPtr[i]:A.RowPtr[i+1]], m)
	}
	return out
}

// denseSymmetrize is the reference for symmetrizeRows: the transposed
// entry is looked up by gid in the row of the column's gid.
func denseSymmetrize(A *CSR, raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i := 0; i < A.NRows; i++ {
		gi := A.GID[i]
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			var t float64
			if cg, cv := denseRow(A, raw, A.GID[A.Col[k]]); cg != nil {
				if p, ok := slices.BinarySearch(cg, gi); ok {
					t = cv[p]
				}
			}
			out[k] = 0.5*raw[k] + 0.5*t
		}
	}
	return out
}

// denseCholSolve solves G m = rhs with freshly allocated factors.
func denseCholSolve(g, rhs []float64, n int) ([]float64, bool) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := g[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, false
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := rhs[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	m := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * m[k]
		}
		m[i] = s / l[i*n+i]
	}
	return m, true
}

// serialRawRows runs the program's raw-row solve on a serial matrix.
func serialRawRows(A *CSR) []float64 {
	return spaiRawRows(A, &localRows{n: A.NRows, ncols: A.NCols, owned: csrRows{ptr: A.RowPtr, col: A.Col, val: A.Val}})
}

// sameBits reports the first index where a and b differ bitwise, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// TestSPAIMatchesDenseReference: the sparse setup (normal equations by
// row merges, rows addressed by column index, scratch Cholesky) gives
// bitwise the raw rows and the symmetrized M of the dense construction,
// on a uniform and on an adapted mesh, and a distributed P=4 build gives
// bitwise the serial M.
func TestSPAIMatchesDenseReference(t *testing.T) {
	uniform := adapt.FromMesh(mesh.Box(3, 3, 2, 3, 3, 2), 0)
	uniform.BuildEdgeElems()
	for name, a := range map[string]*adapt.Mesh{"uniform": uniform, "adapted": refinedMesh(3, 3, 2)} {
		A := Assemble(a, testShift, testScale)
		raw, want := serialRawRows(A), denseSPAIRawRows(A)
		if k := sameBits(raw, want); k >= 0 {
			t.Fatalf("%s: raw entry %d = %x, dense %x", name, k, raw[k], want[k])
		}
		sym := NewSerialSPAI(A).(*matPrecond).M.Val
		if k := sameBits(sym, denseSymmetrize(A, want)); k >= 0 {
			t.Fatalf("%s: symmetrized entry %d differs from the dense reference", name, k)
		}
	}

	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1}, 0.8, 0.5)
	a := adapt.FromMesh(global, 0)
	a.BuildEdgeElems()
	a.TargetEdges(a.EdgeErrorGeometric(ind), 0.5)
	a.Propagate()
	a.Refine()
	ref := Assemble(a, testShift, testScale)
	refM := NewSerialSPAI(ref).(*matPrecond).M
	part := partition.Partition(dual.FromMesh(global), 4, partition.Options{})
	msg.Run(4, func(c *msg.Comm) {
		d := pmesh.New(c, global, part, 0)
		d.M.TargetEdges(d.M.EdgeErrorGeometric(ind), 0.5)
		d.PropagateParallel()
		d.Refine()
		sys := NewDistSystem(d, testShift, testScale)
		M := sys.NewPrecond(PrecondSPAI).(*distMatPrecond).M
		for i, gid := range M.GID {
			ri := ref.RowOf(gid)
			if ri < 0 {
				t.Errorf("rank %d: row gid %d not in the serial operator", c.Rank(), gid)
				return
			}
			_, got := M.Row(i)
			_, want := refM.Row(ri)
			if sameBits(got, want) >= 0 {
				t.Errorf("rank %d: SPAI row of gid %d differs from the serial one", c.Rank(), gid)
				return
			}
		}
	})
}

// TestSPAISetupAllocationsFlat: SPAI setup allocates per build, never
// per row — a larger mesh costs no more allocations than a smaller one.
func TestSPAISetupAllocationsFlat(t *testing.T) {
	allocs := func(a *adapt.Mesh) (int, float64) {
		A := Assemble(a, testShift, testScale)
		return A.NRows, testing.AllocsPerRun(5, func() { NewSerialSPAI(A) })
	}
	nSmall, small := allocs(refinedMesh(2, 2, 2))
	nLarge, large := allocs(refinedMesh(6, 5, 4))
	if nLarge <= 2*nSmall {
		t.Fatalf("meshes too close in size: %d and %d rows", nSmall, nLarge)
	}
	if large > small {
		t.Errorf("NewSerialSPAI: %v allocations at %d rows, %v at %d rows", small, nSmall, large, nLarge)
	}
}
