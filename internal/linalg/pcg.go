package linalg

import (
	"math"
	"slices"
)

// System abstracts the operator and reductions PCG needs, so one solver
// implementation runs unchanged over the serial backend (*CSR via
// Serial) and the distributed backend (*DistSystem).  Vectors passed to
// and returned from System methods are "owned length": the serial
// backend owns every row, a distributed rank owns its partition's rows.
// Both backends embed pcgWork, the workspace PCG solves in, so a system
// solved again and again allocates its vectors once.
type System interface {
	// Rows returns the local (owned) vector length.
	Rows() int
	// MulVec computes dst = A*x for the owned rows.  Distributed
	// implementations refresh ghost values of x internally (the halo
	// exchange of the implicit workload).
	MulVec(dst, x []float64)
	// Dot returns the global dot product of two owned vectors,
	// exactly rounded (see exact.go) so the value is independent of
	// the partition.
	Dot(x, y []float64) float64

	work() *pcgWork
}

// pcgWork is PCG's workspace, kept by its system across solves: the
// residual r, the preconditioned residual z, the search direction p,
// the operator image q, and the residual history, which each solve
// copies into its Result once.
type pcgWork struct {
	r, z, p, q []float64
	residuals  []float64
}

func (w *pcgWork) work() *pcgWork { return w }

// vectors returns r, z, p and q sized to n, reusing their storage.
// Their contents are undefined: PCG writes each before reading it.
func (w *pcgWork) vectors(n int) (r, z, p, q []float64) {
	if cap(w.r) < n {
		w.r, w.z, w.p, w.q = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	}
	return w.r[:n], w.z[:n], w.p[:n], w.q[:n]
}

// Preconditioner applies z = M*r on owned vectors.
type Preconditioner interface {
	Apply(dst, r []float64)
}

// PrecondKind selects a preconditioner for the factory helpers.
type PrecondKind int

// The preconditioners the implicit workload compares.
const (
	PrecondNone PrecondKind = iota
	PrecondJacobi
	PrecondSPAI
)

func (k PrecondKind) String() string {
	switch k {
	case PrecondNone:
		return "none"
	case PrecondJacobi:
		return "jacobi"
	default:
		return "spai"
	}
}

// Options tunes a PCG solve.
type Options struct {
	Tol     float64 // relative residual target ||r||/||r0||; 0 means 1e-8
	MaxIter int     // iteration cap; 0 means 500
}

// DefaultOptions returns the solver tolerances used by the implicit
// workload.
func DefaultOptions() Options { return Options{Tol: 1e-8, MaxIter: 500} }

// Result reports a PCG solve.
type Result struct {
	Iterations int
	Converged  bool
	// Residuals[k] is ||r_k||_2; Residuals[0] is the initial residual.
	Residuals []float64
}

// RelResidual returns the final ||r||/||r0|| (1 when r0 was zero).
func (r Result) RelResidual() float64 {
	if len(r.Residuals) == 0 || r.Residuals[0] == 0 {
		return 1
	}
	return r.Residuals[len(r.Residuals)-1] / r.Residuals[0]
}

// identity is the trivial preconditioner (plain CG).
type identity struct{}

func (identity) Apply(dst, r []float64) { copy(dst, r) }

// Identity returns the no-op preconditioner.
func Identity() Preconditioner { return identity{} }

// PCG solves A*x = b by the preconditioned conjugate-gradient method,
// starting from the provided x (used as initial guess, overwritten with
// the solution).  Every rank of a distributed system must call it
// collectively with its owned slices of b and x; all scalar quantities
// (alpha, beta, residual norms) are identical on every rank because the
// reductions are exact, so the iterate sequence is globally consistent
// and bitwise-reproducible for any processor count.
func PCG(sys System, pre Preconditioner, b, x []float64, opt Options) (res Result) {
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 500
	}
	if pre == nil {
		pre = Identity()
	}
	w := sys.work()
	r, z, p, q := w.vectors(sys.Rows())
	defer func() { res.Residuals = slices.Clone(w.residuals) }()

	// r = b - A*x.
	sys.MulVec(q, x)
	for i := range r {
		r[i] = b[i] - q[i]
	}
	r0 := math.Sqrt(sys.Dot(r, r))
	w.residuals = append(w.residuals[:0], r0)
	if r0 == 0 {
		res.Converged = true
		return res
	}
	target := opt.Tol * r0

	pre.Apply(z, r)
	copy(p, z)
	rz := sys.Dot(r, z)

	for it := 1; it <= opt.MaxIter; it++ {
		sys.MulVec(q, p)
		pq := sys.Dot(p, q)
		if pq == 0 {
			break // breakdown: p is A-orthogonal to itself
		}
		alpha := rz / pq
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rn := math.Sqrt(sys.Dot(r, r))
		res.Iterations = it
		w.residuals = append(w.residuals, rn)
		if rn <= target {
			res.Converged = true
			break
		}
		pre.Apply(z, r)
		rzNew := sys.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return res
}

// Serial wraps a serially assembled CSR matrix as a System.
type Serial struct {
	A *CSR
	pcgWork
}

// NewSerial returns the serial backend for A (NCols must equal NRows).
func NewSerial(A *CSR) *Serial { return &Serial{A: A} }

// Rows returns the matrix dimension.
func (s *Serial) Rows() int { return s.A.NRows }

// MulVec computes dst = A*x.
func (s *Serial) MulVec(dst, x []float64) { s.A.MulVec(dst, x) }

// Dot returns the exactly rounded dot product.
func (s *Serial) Dot(x, y []float64) float64 { return ExactDot(x, y) }

// NewPrecond builds the requested preconditioner for the serial system.
func (s *Serial) NewPrecond(kind PrecondKind) Preconditioner {
	switch kind {
	case PrecondJacobi:
		return NewJacobi(s.A.Diag)
	case PrecondSPAI:
		return NewSerialSPAI(s.A)
	default:
		return Identity()
	}
}
