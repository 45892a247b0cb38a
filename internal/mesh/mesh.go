package mesh

import (
	"fmt"
	"math"
	"sort"
)

// Vec3 is a point or vector in R^3.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Mid returns the midpoint of v and w.
func Mid(v, w Vec3) Vec3 { return v.Add(w).Scale(0.5) }

// Canonical local numbering of a tetrahedron (v0,v1,v2,v3):
//
// TetEdgeVerts[le] gives the two local vertices of local edge le.  The
// paper's 3D_TAG code defines elements by their six edges; this table is
// the bridge between the vertex and edge views.
var TetEdgeVerts = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// TetFaces[lf] gives the three local vertices of local face lf.
var TetFaces = [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}

// TetFaceEdges[lf] gives the three local edges of local face lf, consistent
// with TetEdgeVerts and TetFaces.
var TetFaceEdges = [4][3]int{{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {3, 4, 5}}

// OppositeVertex[lf] is the local vertex not on local face lf.
var OppositeVertex = [4]int{3, 2, 1, 0}

// Mesh is a conforming tetrahedral mesh.  Elems is authoritative; the edge
// and boundary-face tables are derived by BuildDerived.
type Mesh struct {
	Coords []Vec3     // vertex coordinates
	Elems  [][4]int32 // element -> 4 vertex ids

	// Derived connectivity (valid after BuildDerived):
	Edges     [][2]int32 // edge -> endpoint vertex ids, lo < hi
	ElemEdges [][6]int32 // element -> 6 edge ids in TetEdgeVerts order
	BFaces    [][3]int32 // boundary face -> 3 vertex ids (sorted)
	BFaceElem []int32    // boundary face -> owning element id
}

// NumVerts returns the number of vertices.
func (m *Mesh) NumVerts() int { return len(m.Coords) }

// NumElems returns the number of tetrahedra.
func (m *Mesh) NumElems() int { return len(m.Elems) }

// NumEdges returns the number of edges (after BuildDerived).
func (m *Mesh) NumEdges() int { return len(m.Edges) }

// NumBFaces returns the number of boundary faces (after BuildDerived).
func (m *Mesh) NumBFaces() int { return len(m.BFaces) }

// edgeKey returns the canonical (lo, hi) pair for vertices a and b.
func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// faceKey returns the canonical sorted triple for vertices a, b, c.
func faceKey(a, b, c int32) [3]int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}

// BuildDerived computes the edge table, per-element edge lists, and the
// external boundary faces (faces referenced by exactly one element).
func (m *Mesh) BuildDerived() {
	edgeID := make(map[[2]int32]int32, 2*len(m.Elems))
	m.Edges = m.Edges[:0]
	m.ElemEdges = make([][6]int32, len(m.Elems))
	for e, ev := range m.Elems {
		for le, pair := range TetEdgeVerts {
			k := edgeKey(ev[pair[0]], ev[pair[1]])
			id, ok := edgeID[k]
			if !ok {
				id = int32(len(m.Edges))
				m.Edges = append(m.Edges, k)
				edgeID[k] = id
			}
			m.ElemEdges[e][le] = id
		}
	}

	// A face interior to the mesh is shared by exactly two tets; a face
	// seen once is on the external boundary.
	type faceUse struct {
		count int
		elem  int32
	}
	faces := make(map[[3]int32]*faceUse, 2*len(m.Elems))
	for e, ev := range m.Elems {
		for _, lf := range TetFaces {
			k := faceKey(ev[lf[0]], ev[lf[1]], ev[lf[2]])
			if fu, ok := faces[k]; ok {
				fu.count++
			} else {
				faces[k] = &faceUse{count: 1, elem: int32(e)}
			}
		}
	}
	m.BFaces = m.BFaces[:0]
	m.BFaceElem = m.BFaceElem[:0]
	type bf struct {
		key  [3]int32
		elem int32
	}
	var bfs []bf
	for k, fu := range faces {
		if fu.count == 1 {
			bfs = append(bfs, bf{k, fu.elem})
		}
	}
	// Deterministic order regardless of map iteration.
	sort.Slice(bfs, func(i, j int) bool {
		a, b := bfs[i].key, bfs[j].key
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, f := range bfs {
		m.BFaces = append(m.BFaces, f.key)
		m.BFaceElem = append(m.BFaceElem, f.elem)
	}
}

// FaceAdjacency returns, for each element, the ids of the up-to-four
// elements sharing a face with it (-1 where the face is on the boundary).
// Entry [e][lf] corresponds to local face lf of element e.  This is the
// relation that defines the dual graph (paper Section 4.1).
func (m *Mesh) FaceAdjacency() [][4]int32 {
	type pairUse struct {
		e0, e1 int32 // elements using the face; e1 == -1 until the second
		f0, f1 int8  // local face index within each
	}
	faces := make(map[[3]int32]*pairUse, 2*len(m.Elems))
	for e, ev := range m.Elems {
		for lf, tri := range TetFaces {
			k := faceKey(ev[tri[0]], ev[tri[1]], ev[tri[2]])
			if pu, ok := faces[k]; ok {
				pu.e1 = int32(e)
				pu.f1 = int8(lf)
			} else {
				faces[k] = &pairUse{e0: int32(e), e1: -1, f0: int8(lf)}
			}
		}
	}
	adj := make([][4]int32, len(m.Elems))
	for e := range adj {
		adj[e] = [4]int32{-1, -1, -1, -1}
	}
	for _, pu := range faces {
		if pu.e1 >= 0 {
			adj[pu.e0][pu.f0] = pu.e1
			adj[pu.e1][pu.f1] = pu.e0
		}
	}
	return adj
}

// TetVolume returns the (unsigned) volume of the tetrahedron with the
// given corner coordinates.
func TetVolume(a, b, c, d Vec3) float64 {
	return math.Abs(b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a))) / 6
}

// ElemVolume returns the volume of element e.
func (m *Mesh) ElemVolume(e int) float64 {
	ev := m.Elems[e]
	return TetVolume(m.Coords[ev[0]], m.Coords[ev[1]], m.Coords[ev[2]], m.Coords[ev[3]])
}

// Check validates structural invariants of the mesh: index ranges, element
// non-degeneracy, edge table consistency, and that every interior face is
// shared by exactly two elements.  It returns the first violation found.
func (m *Mesh) Check() error {
	nv := int32(len(m.Coords))
	for e, ev := range m.Elems {
		seen := map[int32]bool{}
		for _, v := range ev {
			if v < 0 || v >= nv {
				return fmt.Errorf("mesh: element %d references vertex %d out of range [0,%d)", e, v, nv)
			}
			if seen[v] {
				return fmt.Errorf("mesh: element %d has repeated vertex %d", e, v)
			}
			seen[v] = true
		}
	}
	if m.ElemEdges != nil {
		if len(m.ElemEdges) != len(m.Elems) {
			return fmt.Errorf("mesh: ElemEdges length %d != Elems length %d", len(m.ElemEdges), len(m.Elems))
		}
		for e, edges := range m.ElemEdges {
			for le, id := range edges {
				if id < 0 || int(id) >= len(m.Edges) {
					return fmt.Errorf("mesh: element %d edge slot %d out of range", e, le)
				}
				want := edgeKey(m.Elems[e][TetEdgeVerts[le][0]], m.Elems[e][TetEdgeVerts[le][1]])
				if m.Edges[id] != want {
					return fmt.Errorf("mesh: element %d local edge %d mismatch: edge %d is %v, want %v",
						e, le, id, m.Edges[id], want)
				}
			}
		}
	}
	// Face conformity: every face must appear at most twice.
	faces := make(map[[3]int32]int, 2*len(m.Elems))
	for _, ev := range m.Elems {
		for _, tri := range TetFaces {
			faces[faceKey(ev[tri[0]], ev[tri[1]], ev[tri[2]])]++
		}
	}
	boundary := 0
	for k, n := range faces {
		if n > 2 {
			return fmt.Errorf("mesh: face %v shared by %d elements", k, n)
		}
		if n == 1 {
			boundary++
		}
	}
	if m.BFaces != nil && boundary != len(m.BFaces) {
		return fmt.Errorf("mesh: %d boundary faces found, table has %d", boundary, len(m.BFaces))
	}
	return nil
}
