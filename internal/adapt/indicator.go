package adapt

import (
	"math"

	"plum/internal/mesh"
)

// Error indicators.  The paper targets edges using an error indicator
// computed from the flow solution (Section 3, [23]).  The reproduction
// provides both a solution-difference indicator and geometric indicators
// that mimic shock/vortex surfaces (DESIGN.md documents the
// substitution).

// EdgeErrorGeometric returns per-edge error values f(midpoint of edge),
// indexed by edge id.  Larger means more in need of refinement.
func (m *Mesh) EdgeErrorGeometric(f func(mesh.Vec3) float64) []float64 {
	err := make([]float64, len(m.EdgeV))
	for _, id := range m.activeLeafEdges() {
		a, b := m.EdgeV[id][0], m.EdgeV[id][1]
		err[id] = f(mesh.Mid(m.Coords[a], m.Coords[b]))
	}
	return err
}

// ShockCylinderIndicator returns an error function peaking on the surface
// of a cylinder (axis through axisPoint along axisDir with the given
// radius), decaying with distance over the length scale width.  This
// mimics the paper's rotor-blade shock surfaces: edges crossing the shock
// get the largest errors.
func ShockCylinderIndicator(axisPoint, axisDir mesh.Vec3, radius, width float64) func(mesh.Vec3) float64 {
	n := axisDir.Scale(1 / axisDir.Norm())
	return func(p mesh.Vec3) float64 {
		d := mesh.CylinderDistance(p, axisPoint, n, radius)
		return math.Exp(-d * d / (width * width))
	}
}

// ShockPlaneIndicator returns an error function peaking on a plane.
func ShockPlaneIndicator(origin, normal mesh.Vec3, width float64) func(mesh.Vec3) float64 {
	n := normal.Scale(1 / normal.Norm())
	return func(p mesh.Vec3) float64 {
		d := mesh.PlaneDistance(p, origin, n)
		return math.Exp(-d * d / (width * width))
	}
}

// SphericalIndicator returns an error function peaking on a sphere
// surface centred at c with the given radius.
func SphericalIndicator(c mesh.Vec3, radius, width float64) func(mesh.Vec3) float64 {
	return func(p mesh.Vec3) float64 {
		d := math.Abs(p.Sub(c).Norm() - radius)
		return math.Exp(-d * d / (width * width))
	}
}
