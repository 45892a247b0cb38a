package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxCounts(t *testing.T) {
	cases := []struct {
		nx, ny, nz int
	}{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}}
	for _, c := range cases {
		m := Box(c.nx, c.ny, c.nz, 1, 1, 1)
		wantV := (c.nx + 1) * (c.ny + 1) * (c.nz + 1)
		wantE := 6 * c.nx * c.ny * c.nz
		if m.NumVerts() != wantV {
			t.Errorf("Box(%d,%d,%d): %d verts, want %d", c.nx, c.ny, c.nz, m.NumVerts(), wantV)
		}
		if m.NumElems() != wantE {
			t.Errorf("Box(%d,%d,%d): %d elems, want %d", c.nx, c.ny, c.nz, m.NumElems(), wantE)
		}
		if err := m.Check(); err != nil {
			t.Errorf("Box(%d,%d,%d): %v", c.nx, c.ny, c.nz, err)
		}
	}
}

func TestBoxUnitCubeKnownCounts(t *testing.T) {
	// A single cube split into 6 Kuhn tets: 8 verts, 19 edges (12 cube
	// edges + 6 face diagonals + 1 main diagonal), 12 boundary faces.
	m := Box(1, 1, 1, 1, 1, 1)
	if m.NumEdges() != 19 {
		t.Errorf("unit cube edges = %d, want 19", m.NumEdges())
	}
	if m.NumBFaces() != 12 {
		t.Errorf("unit cube boundary faces = %d, want 12", m.NumBFaces())
	}
}

func TestBoxVolumeConservation(t *testing.T) {
	m := Box(3, 4, 5, 2.0, 1.5, 1.0)
	var total float64
	for e := range m.Elems {
		total += m.ElemVolume(e)
	}
	want := 2.0 * 1.5 * 1.0
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total volume %v, want %v", total, want)
	}
}

func TestBoxNoDegenerateElements(t *testing.T) {
	m := Box(4, 3, 2, 1, 1, 1)
	for e := range m.Elems {
		if m.ElemVolume(e) <= 0 {
			t.Fatalf("element %d has non-positive volume", e)
		}
	}
}

func TestEulerCharacteristic(t *testing.T) {
	// For a triangulated 3-ball: V - E + F - C = 1, where F counts all
	// distinct triangular faces.
	m := Box(3, 3, 3, 1, 1, 1)
	faces := make(map[[3]int32]bool)
	for _, ev := range m.Elems {
		for _, tri := range TetFaces {
			faces[faceKey(ev[tri[0]], ev[tri[1]], ev[tri[2]])] = true
		}
	}
	chi := m.NumVerts() - m.NumEdges() + len(faces) - m.NumElems()
	if chi != 1 {
		t.Errorf("Euler characteristic = %d, want 1", chi)
	}
}

func TestFaceAdjacency(t *testing.T) {
	m := Box(2, 2, 2, 1, 1, 1)
	adj := m.FaceAdjacency()
	// Symmetry: if b is a face-neighbour of a, then a is one of b.
	for e := range adj {
		for _, nb := range adj[e] {
			if nb < 0 {
				continue
			}
			found := false
			for _, back := range adj[nb] {
				if back == int32(e) {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric between %d and %d", e, nb)
			}
		}
	}
	// Total interior face references must be even and consistent with the
	// boundary count: 4*C = 2*interior + boundary.
	interior := 0
	for e := range adj {
		for _, nb := range adj[e] {
			if nb >= 0 {
				interior++
			}
		}
	}
	if interior%2 != 0 {
		t.Fatalf("odd interior face reference count %d", interior)
	}
	if 4*m.NumElems() != interior+m.NumBFaces() {
		t.Errorf("face accounting: 4C=%d, 2*int+bdy=%d", 4*m.NumElems(), interior+m.NumBFaces())
	}
}

func TestBFaceElemOwnership(t *testing.T) {
	m := Box(2, 3, 1, 1, 1, 1)
	for i, bf := range m.BFaces {
		ev := m.Elems[m.BFaceElem[i]]
		// Every vertex of the boundary face must belong to the owner.
		for _, v := range bf {
			found := false
			for _, w := range ev {
				if w == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("bface %d vertex %d not in owner element", i, v)
			}
		}
	}
}

func TestTetTablesConsistent(t *testing.T) {
	// TetFaceEdges must match TetEdgeVerts and TetFaces.
	for lf, tri := range TetFaces {
		onFace := map[int]bool{tri[0]: true, tri[1]: true, tri[2]: true}
		for _, le := range TetFaceEdges[lf] {
			pair := TetEdgeVerts[le]
			if !onFace[pair[0]] || !onFace[pair[1]] {
				t.Errorf("face %d edge %d endpoints %v not on face %v", lf, le, pair, tri)
			}
		}
		if onFace[OppositeVertex[lf]] {
			t.Errorf("OppositeVertex[%d]=%d lies on the face", lf, OppositeVertex[lf])
		}
	}
}

func TestPaperScaleBox(t *testing.T) {
	if testing.Short() {
		t.Skip("large mesh in -short mode")
	}
	m := PaperScaleBox()
	if m.NumElems() != 60912 {
		t.Errorf("paper-scale mesh has %d elements, want 60912", m.NumElems())
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Add(w); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); got != (Vec3{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(w); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := Mid(v, w); got != (Vec3{2.5, 3.5, 4.5}) {
		t.Errorf("Mid = %v", got)
	}
}

func TestCrossOrthogonalProperty(t *testing.T) {
	prop := func(a, b [3]float64) bool {
		v, w := Vec3(a), Vec3(b)
		c := v.Cross(w)
		// Cross product orthogonal to both inputs (within fp tolerance
		// scaled by the magnitudes involved).
		scale := v.Norm() * w.Norm()
		if scale == 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		return math.Abs(c.Dot(v)) <= 1e-9*scale*v.Norm() &&
			math.Abs(c.Dot(w)) <= 1e-9*scale*w.Norm()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestTetVolumeUnit(t *testing.T) {
	v := TetVolume(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1})
	if math.Abs(v-1.0/6.0) > 1e-12 {
		t.Errorf("unit tet volume = %v, want 1/6", v)
	}
}

func TestCylinderDistance(t *testing.T) {
	// Point at radius 2 from the z-axis, cylinder radius 1 -> distance 1.
	d := CylinderDistance(Vec3{2, 0, 5}, Vec3{0, 0, 0}, Vec3{0, 0, 1}, 1)
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("cylinder distance = %v, want 1", d)
	}
	// On the surface -> 0.
	d = CylinderDistance(Vec3{0, 1, -3}, Vec3{0, 0, 0}, Vec3{0, 0, 1}, 1)
	if math.Abs(d) > 1e-12 {
		t.Errorf("on-surface distance = %v, want 0", d)
	}
}

func TestCheckDetectsBadElement(t *testing.T) {
	m := Box(1, 1, 1, 1, 1, 1)
	m.Elems[0][0] = 99 // out of range
	if err := m.Check(); err == nil {
		t.Error("Check accepted out-of-range vertex")
	}
	m = Box(1, 1, 1, 1, 1, 1)
	m.Elems[0][1] = m.Elems[0][0] // repeated vertex
	if err := m.Check(); err == nil {
		t.Error("Check accepted degenerate element")
	}
}
