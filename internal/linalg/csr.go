package linalg

import (
	"sort"

	"plum/internal/adapt"
)

// CSR is a sparse matrix in compressed-sparse-row form.  Rows correspond
// to mesh vertices sorted by ascending global id; columns are indices
// into an NCols-sized vector space (equal to NRows for the serial
// operator, NRows+ghosts for the distributed one).
type CSR struct {
	NRows  int
	NCols  int
	RowPtr []int32
	Col    []int32
	Val    []float64

	// Diag holds each row's diagonal value (also present in Val), kept
	// separately for the Jacobi preconditioner and assembly checks.
	Diag []float64

	// GID is the global vertex id of each row, ascending.
	GID []uint64
}

// NNZ returns the number of stored entries.
func (A *CSR) NNZ() int { return len(A.Val) }

// RowOf returns the row index of a global id, or -1 when the id is not a
// row of this matrix.
func (A *CSR) RowOf(gid uint64) int {
	i := sort.Search(len(A.GID), func(i int) bool { return A.GID[i] >= gid })
	if i < len(A.GID) && A.GID[i] == gid {
		return i
	}
	return -1
}

// Row returns the column indices and values of row i.
func (A *CSR) Row(i int) ([]int32, []float64) {
	return A.Col[A.RowPtr[i]:A.RowPtr[i+1]], A.Val[A.RowPtr[i]:A.RowPtr[i+1]]
}

// entry is one off-diagonal contribution during assembly.
type entry struct {
	gid uint64  // neighbour (column) global id
	w   float64 // edge weight
}

// EdgeWeight returns the Laplacian weight of a mesh edge of the given
// length (inverse length, the standard graph-Laplacian weighting for
// geometric meshes).  Both the serial and the distributed assemblers
// must use this one definition: bitwise agreement of the operators
// depends on every rank computing the identical float for a shared edge.
func EdgeWeight(length float64) float64 { return 1 / length }

// finalizeRows converts per-row neighbour lists into a CSR matrix
// A = shift*I + scale*L where L is the weighted graph Laplacian
// (diagonal = sum of incident weights, off-diagonal = -weight).
//
// rows[i] lists the neighbour contributions of the row with global id
// gids[i] (gids ascending).  colIdx maps a neighbour gid to its column
// index.  The diagonal is accumulated in ascending neighbour-gid order
// starting from shift — the fixed summation order that makes serial and
// distributed assembly produce identical floats.
func finalizeRows(gids []uint64, rows [][]entry, colIdx func(uint64) int32, ncols int, shift, scale float64) *CSR {
	n := len(gids)
	A := &CSR{
		NRows:  n,
		NCols:  ncols,
		RowPtr: make([]int32, n+1),
		GID:    gids,
		Diag:   make([]float64, n),
	}
	nnz := 0
	for _, r := range rows {
		nnz += len(r) + 1
	}
	A.Col = make([]int32, 0, nnz)
	A.Val = make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		r := rows[i]
		sort.Slice(r, func(a, b int) bool { return r[a].gid < r[b].gid })
		diag := shift
		for _, e := range r {
			diag += scale * e.w
		}
		A.Diag[i] = diag
		// Emit the row with the diagonal in its sorted position.
		di := sort.Search(len(r), func(a int) bool { return r[a].gid >= gids[i] })
		for k, e := range r {
			if k == di {
				A.Col = append(A.Col, colIdx(gids[i]))
				A.Val = append(A.Val, diag)
			}
			A.Col = append(A.Col, colIdx(e.gid))
			A.Val = append(A.Val, -scale*e.w)
		}
		if di == len(r) {
			A.Col = append(A.Col, colIdx(gids[i]))
			A.Val = append(A.Val, diag)
		}
		A.RowPtr[i+1] = int32(len(A.Col))
	}
	return A
}

// Assemble builds the serial operator A = shift*I + scale*L over the
// active vertices and edges of an adapted mesh: one row per alive
// vertex, one off-diagonal per active leaf edge incident to it, with
// weight EdgeWeight(length).  shift > 0 makes A symmetric positive
// definite.  Rows and columns are ordered by ascending vertex gid.
func Assemble(m *adapt.Mesh, shift, scale float64) *CSR {
	m.EnsureEdgeElems()
	var gids []uint64
	vertOf := make(map[uint64]int32)
	for v := range m.Coords {
		if !m.VertAlive[v] {
			continue
		}
		gids = append(gids, m.VertGID[v])
		vertOf[m.VertGID[v]] = int32(v)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	rowOf := make(map[uint64]int32, len(gids))
	for i, g := range gids {
		rowOf[g] = int32(i)
	}
	rows := make([][]entry, len(gids))
	for id := range m.EdgeV {
		if !m.EdgeAlive[id] || !m.EdgeLeaf(int32(id)) || len(m.EdgeElems[id]) == 0 {
			continue
		}
		a, b := m.EdgeV[id][0], m.EdgeV[id][1]
		w := EdgeWeight(m.Coords[a].Sub(m.Coords[b]).Norm())
		ga, gb := m.VertGID[a], m.VertGID[b]
		ra, rb := rowOf[ga], rowOf[gb]
		rows[ra] = append(rows[ra], entry{gb, w})
		rows[rb] = append(rows[rb], entry{ga, w})
	}
	colIdx := func(g uint64) int32 { return rowOf[g] }
	return finalizeRows(gids, rows, colIdx, len(gids), shift, scale)
}
