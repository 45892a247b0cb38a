package linalg

import (
	"math"
	"slices"
)

// Jacobi is diagonal scaling: z_i = r_i / A_ii.  Embarrassingly parallel
// and deterministic (the diagonal is assembled identically on every
// backend).
type Jacobi struct {
	inv []float64
}

// NewJacobi builds the Jacobi preconditioner from the assembled diagonal.
func NewJacobi(diag []float64) *Jacobi {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		inv[i] = 1 / d
	}
	return &Jacobi{inv: inv}
}

// Apply computes dst = D^-1 r.
func (j *Jacobi) Apply(dst, r []float64) {
	for i, v := range r {
		dst[i] = v * j.inv[i]
	}
}

// ---------------------------------------------------------------------
// Static-pattern sparse approximate inverse (SPAI).
//
// Following the SPAI line of Grote & Huckle (and the static-pattern
// variants studied for large irregular systems), row i of M minimizes
// ||A m_i - e_i||_2 with the unknowns of m_i restricted to the sparsity
// pattern of row i of A (the vertex and its mesh neighbours).  Because A
// is symmetric this "column" solution doubles as row i of a left
// approximate inverse.  Each row is an independent small dense
// least-squares problem — embarrassingly parallel, which is what makes
// SPAI attractive on distributed memory where incomplete factorizations
// serialize.
//
// PCG needs a symmetric preconditioner, and the row-wise least-squares
// solutions are not symmetric, so the final operator is
// M_sym = (M + M^T)/2 — pattern-preserving because A's pattern is
// symmetric.  Distributed construction only ever needs matrix rows of
// the vertex's 1-hop neighbourhood (2-hop *entries* all appear in 1-hop
// rows by symmetry), so the same ghost-row exchange that serves SpMV
// serves SPAI setup.

// csrRows is a set of matrix rows in flat CSR form: row r has the local
// column indices col[ptr[r]:ptr[r+1]], in ascending gid order, and the
// values val[ptr[r]:ptr[r+1]].
type csrRows struct {
	ptr []int32
	col []int32
	val []float64
}

func (r *csrRows) row(i int) ([]int32, []float64) {
	lo, hi := r.ptr[i], r.ptr[i+1]
	return r.col[lo:hi], r.val[lo:hi]
}

// localRows addresses the matrix rows a SPAI build reads by local column
// index: a column c < n is owned row c (the row index of an owned vertex
// is its column index), a column c >= n is ghost c-n, whose row is
// ghost row ghostRow[c-n].  Ghost rows may reach columns two hops out,
// which no owned row has; they are numbered from the local column count
// up, and ncols counts them in.
type localRows struct {
	n, ncols     int
	owned, ghost csrRows
	ghostRow     []int32
}

func (l *localRows) row(c int32) ([]int32, []float64) {
	if int(c) < l.n {
		return l.owned.row(int(c))
	}
	return l.ghost.row(int(l.ghostRow[int(c)-l.n]))
}

// spaiMatrix builds the symmetrized static-pattern SPAI on A's pattern.
// exchange, nil for a matrix without ghost columns, ships rows.owned to
// the halo and fills the ghost rows (and ncols): it runs on A's rows,
// then on the raw SPAI rows.
func spaiMatrix(A *CSR, exchange func(rows *localRows)) *CSR {
	rows := localRows{n: A.NRows, ncols: A.NCols, owned: csrRows{ptr: A.RowPtr, col: A.Col, val: A.Val}}
	if exchange != nil {
		exchange(&rows)
	}
	raw := spaiRawRows(A, &rows)
	rows.owned.val = raw
	if exchange != nil {
		exchange(&rows)
	}
	sym := symmetrizeRows(A, &rows)
	return &CSR{NRows: A.NRows, NCols: A.NCols, RowPtr: A.RowPtr, Col: A.Col, Val: sym, GID: A.GID}
}

// spaiRawRows computes the unsymmetrized SPAI rows for every row of A
// from the rows of A that rows addresses.  The returned slice is aligned
// with A.Val: entry k is M(row(k), col(k)).
//
// Row i's least-squares problem is min ||Â m - e_i|| over the dense
// Â = A(I, J), J the pattern of row i and I the union of the patterns
// of the rows in J; it is solved through the normal equations
// G m = Âᵀe_i with G = ÂᵀÂ.  Neither I nor Â is formed: since A is
// symmetric, column p of Â is row j_p of A, so
// G(p,q) = Σ_r Â(r,p)·Â(r,q) is computed by scattering row j_p into a
// work vector indexed by local column and summing work·A(j_q, ·) along
// row j_q, whose entries are in ascending gid order — the order of the
// dense sum over r.  The sparse sum leaves out the dense sum's terms
// where row j_q has no entry and keeps some where row j_p has none (the
// work vector's zeros); that changes no bit: with finite factors each
// such term is ±0, the sum starts at +0, and adding ±0 neither changes
// a sum nor turns +0 into -0 (x + (-x) rounds to +0).  The rhs Âᵀe_i is
// entry p = A(j_p, i), read from the scattered row.  Every scratch array
// is sized once, for the longest row and the local column space; no
// row allocates.
func spaiRawRows(A *CSR, rows *localRows) []float64 {
	out := make([]float64, len(A.Val))
	maxJ := 0
	for i := 0; i < A.NRows; i++ {
		maxJ = max(maxJ, int(A.RowPtr[i+1]-A.RowPtr[i]))
	}
	var (
		jc   = make([][]int32, maxJ)   // the rows of J: column indices
		jv   = make([][]float64, maxJ) // and values
		g    = make([]float64, maxJ*maxJ)
		l    = make([]float64, maxJ*maxJ)
		rhs  = make([]float64, maxJ)
		y    = make([]float64, maxJ)
		work = make([]float64, rows.ncols) // all zero between rows
	)
	for i := 0; i < A.NRows; i++ {
		cols, _ := A.Row(i)
		nj := len(cols)
		for p, c := range cols {
			jc[p], jv[p] = rows.row(c)
		}
		for p := 0; p < nj; p++ {
			for t, c := range jc[p] {
				work[c] = jv[p][t]
			}
			rhs[p] = work[i]
			for q := p; q < nj; q++ {
				cq, vq := jc[q], jv[q]
				vq = vq[:len(cq)]
				var s float64
				for t, c := range cq {
					s += work[c] * vq[t]
				}
				g[p*nj+q] = s
				g[q*nj+p] = s
			}
			for _, c := range jc[p] {
				work[c] = 0
			}
		}
		m := out[A.RowPtr[i]:A.RowPtr[i+1]]
		if !cholSolve(g[:nj*nj], rhs[:nj], l[:nj*nj], y[:nj], m) {
			// Deterministic fallback: the Jacobi row.
			m[slices.Index(cols, int32(i))] = 1 / A.Diag[i]
		}
	}
	return out
}

// symmetrizeRows returns sym(k) = (raw(k) + M(j, i))/2 for entry k in
// row i and column j, where rows addresses the raw SPAI rows (owned and,
// in the distributed case, ghost) and the transposed entry M(j, i) is
// the entry of row j in column i (0 when row j has none).
func symmetrizeRows(A *CSR, rows *localRows) []float64 {
	raw := rows.owned.val
	out := make([]float64, len(raw))
	for i := 0; i < A.NRows; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			cc, cv := rows.row(A.Col[k])
			var t float64
			if p := slices.Index(cc, int32(i)); p >= 0 {
				t = cv[p]
			}
			out[k] = 0.5*raw[k] + 0.5*t
		}
	}
	return out
}

// NewSerialSPAI builds the symmetrized static-pattern SPAI for a
// serially assembled matrix.
func NewSerialSPAI(A *CSR) Preconditioner {
	return &matPrecond{M: spaiMatrix(A, nil)}
}

// matPrecond applies a sparse matrix as a preconditioner.
type matPrecond struct {
	M *CSR
}

func (p *matPrecond) Apply(dst, r []float64) { p.M.MulVec(dst, r) }

// cholSolve solves the SPD system G m = rhs (n = len(m), G row-major
// n x n) by Cholesky factorization, with l (n x n) and y (n) as scratch.
// Returns false, leaving m untouched, when a pivot is not strictly
// positive (G numerically rank-deficient).
func cholSolve(g, rhs, l, y, m []float64) bool {
	n := len(m)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := g[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return false
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	// Forward then backward substitution.
	for i := 0; i < n; i++ {
		s := rhs[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * m[k]
		}
		m[i] = s / l[i*n+i]
	}
	return true
}
