package solver

import (
	"math"

	"plum/internal/adapt"
	"plum/internal/mesh"
)

// NComp is the number of state components per vertex (density, momentum
// x3, energy).
const NComp = 5

// InitField sets the solution at every alive vertex from a function of
// position returning NComp values.
func InitField(m *adapt.Mesh, f func(mesh.Vec3) [NComp]float64) {
	if m.NComp != NComp {
		panic("solver: mesh was not built with solver.NComp components")
	}
	for v := range m.Coords {
		if !m.VertAlive[v] {
			continue
		}
		u := f(m.Coords[v])
		copy(m.Sol[v*NComp:], u[:])
	}
}

// GaussianPulse returns an initial condition with uniform flow plus a
// density/energy pulse at c — a stand-in for the impulsive near-blade
// flow states of the paper's test problem.
func GaussianPulse(c mesh.Vec3, width float64) func(mesh.Vec3) [NComp]float64 {
	return func(p mesh.Vec3) [NComp]float64 {
		d := p.Sub(c).Norm()
		amp := math.Exp(-d * d / (width * width))
		return [NComp]float64{1 + amp, 0.5, 0, 0, 2 + 2*amp}
	}
}

// edgeFlux computes the pseudo-Euler upwind flux across one edge: an
// average-state convective part plus a scalar-dissipation part, about 40
// floating-point operations per edge, matching the arithmetic intensity
// class of a real first-order upwind scheme.
func edgeFlux(ua, ub *[NComp]float64, length float64, flux *[NComp]float64) {
	// "Velocity" along the edge from the momentum components.
	rhoA := ua[0]
	rhoB := ub[0]
	if rhoA < 1e-12 {
		rhoA = 1e-12
	}
	if rhoB < 1e-12 {
		rhoB = 1e-12
	}
	va := (ua[1] + ua[2] + ua[3]) / (3 * rhoA)
	vb := (ub[1] + ub[2] + ub[3]) / (3 * rhoB)
	vn := 0.5 * (va + vb)
	// Spectral radius proxy for the upwind dissipation.
	lam := math.Abs(vn) + math.Sqrt(math.Abs(ua[4]+ub[4])/(rhoA+rhoB))
	for k := 0; k < NComp; k++ {
		avg := 0.5 * (ua[k] + ub[k])
		diff := ub[k] - ua[k]
		flux[k] = length * (vn*avg - 0.5*lam*diff)
	}
}

// Step advances the serial mesh one explicit iteration with CFL-like
// factor dt and returns the number of edge flux evaluations (the
// workload measure; the paper's Titer is per element, and edges ~ 1.28x
// elements on tetrahedral meshes).
func Step(m *adapt.Mesh, dt float64) int {
	m.EnsureEdgeElems()
	acc := make([]float64, len(m.Coords)*NComp)
	deg := make([]float64, len(m.Coords))
	work := 0
	var ua, ub, flux [NComp]float64
	for id := range m.EdgeV {
		if !m.ActiveEdge(int32(id)) {
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
	applyUpdate(m, acc, deg, dt)
	return work
}

// OrientEdge returns the endpoints of an edge ordered by global vertex
// id.  The flux function is not symmetric under endpoint swap (the
// convective part has a direction), so every processor holding a copy of
// a shared edge must orient it identically; global ids provide the
// processor-independent orientation.
func OrientEdge(m *adapt.Mesh, id int32) (int32, int32) {
	a, b := m.EdgeV[id][0], m.EdgeV[id][1]
	if m.VertGID[a] > m.VertGID[b] {
		a, b = b, a
	}
	return a, b
}

// applyUpdate performs the explicit vertex update u += dt*acc/deg.
func applyUpdate(m *adapt.Mesh, acc, deg []float64, dt float64) {
	for v := range m.Coords {
		if !m.VertAlive[v] || deg[v] == 0 {
			continue
		}
		inv := dt / deg[v]
		for k := 0; k < NComp; k++ {
			m.Sol[v*NComp+k] += inv * acc[v*NComp+k]
		}
	}
}
