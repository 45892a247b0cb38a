package mesh

import "math"

// Box generates a conforming tetrahedral mesh of the axis-aligned box
// [0,lx]x[0,ly]x[0,lz] with nx*ny*nz hexahedral cells, each split into six
// tetrahedra along the cell's main diagonal (the Kuhn / Freudenthal
// subdivision).  Because every cell uses the same diagonal directions the
// mesh is conforming: neighbouring cells agree on the diagonals of their
// shared faces.
//
// The result has (nx+1)(ny+1)(nz+1) vertices and 6*nx*ny*nz elements; the
// paper-scale substitute for the 60,968-element rotor mesh is
// Box(47, 18, 12, ...) with 60,912 elements.
func Box(nx, ny, nz int, lx, ly, lz float64) *Mesh {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("mesh: Box requires at least one cell per axis")
	}
	m := &Mesh{}
	vid := func(i, j, k int) int32 {
		return int32((k*(ny+1)+j)*(nx+1) + i)
	}
	m.Coords = make([]Vec3, (nx+1)*(ny+1)*(nz+1))
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i <= nx; i++ {
				m.Coords[vid(i, j, k)] = Vec3{
					lx * float64(i) / float64(nx),
					ly * float64(j) / float64(ny),
					lz * float64(k) / float64(nz),
				}
			}
		}
	}

	// The six Kuhn tetrahedra of the unit cube, as corner offsets.  Every
	// tet contains the main diagonal (0,0,0)-(1,1,1).
	kuhn := [6][4][3]int{
		{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {1, 1, 1}},
		{{0, 0, 0}, {1, 0, 0}, {1, 0, 1}, {1, 1, 1}},
		{{0, 0, 0}, {0, 1, 0}, {1, 1, 0}, {1, 1, 1}},
		{{0, 0, 0}, {0, 1, 0}, {0, 1, 1}, {1, 1, 1}},
		{{0, 0, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}},
		{{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 1, 1}},
	}
	m.Elems = make([][4]int32, 0, 6*nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				for _, tet := range kuhn {
					var ev [4]int32
					for c, off := range tet {
						ev[c] = vid(i+off[0], j+off[1], k+off[2])
					}
					m.Elems = append(m.Elems, ev)
				}
			}
		}
	}
	m.BuildDerived()
	return m
}

// PaperScaleBox returns the default mesh used by the experiment harness: a
// box mesh whose element count (60,912) matches the paper's initial rotor
// mesh (60,968 elements) to within 0.1%.
func PaperScaleBox() *Mesh {
	return Box(47, 18, 12, 4.7, 1.8, 1.2)
}

// CylinderDistance returns the distance of point p from the surface of an
// infinite cylinder with the given axis point, axis direction (unit), and
// radius.  Error indicators built on this mimic the paper's shock surfaces
// around a rotor blade: edges crossing or near the cylinder surface get
// large error values.
func CylinderDistance(p, axisPoint, axisDir Vec3, radius float64) float64 {
	d := p.Sub(axisPoint)
	along := d.Dot(axisDir)
	radial := d.Sub(axisDir.Scale(along)).Norm()
	return math.Abs(radial - radius)
}

// PlaneDistance returns the distance of point p from the plane through
// origin with unit normal n.
func PlaneDistance(p, origin, n Vec3) float64 {
	return math.Abs(p.Sub(origin).Dot(n))
}
