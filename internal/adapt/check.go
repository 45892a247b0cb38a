package adapt

import (
	"fmt"
	"math"

	"plum/internal/mesh"
)

// CheckInvariants validates the structural invariants of the adapted
// mesh.  It is used heavily by the test suite and is cheap enough to run
// after every adaption step in debugging builds.
//
// Invariants checked:
//  1. Every active element references alive vertices and alive *leaf*
//     edges consistent with its vertex pairs.
//  2. The vertex-local edge index reaches every alive edge exactly once,
//     from its lower endpoint, and no dead edge.
//  3. The vertex gid map holds exactly the alive vertices, each under
//     its own gid, and midpoint vertices sit at the geometric midpoint
//     of their parent edge.
//  4. Conformity: every face of the active mesh is shared by at most two
//     active elements, and children fill their parent's volume.
//  5. Every active boundary face is a face of exactly one active element.
//  6. Refinement forest consistency (children point back to parents,
//     roots are initial elements).
func (m *Mesh) CheckInvariants() error {
	// 1. Active element structure.
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		for _, v := range m.ElemVerts[e] {
			if v < 0 || int(v) >= len(m.Coords) || !m.VertAlive[v] {
				return fmt.Errorf("adapt: active element %d references dead vertex %d", e, v)
			}
		}
		for le, id := range m.ElemEdges[e] {
			if !m.EdgeAlive[id] {
				return fmt.Errorf("adapt: active element %d references dead edge %d", e, id)
			}
			if !m.EdgeLeaf(id) {
				return fmt.Errorf("adapt: active element %d references bisected edge %d", e, id)
			}
			a := m.ElemVerts[e][mesh.TetEdgeVerts[le][0]]
			b := m.ElemVerts[e][mesh.TetEdgeVerts[le][1]]
			if m.EdgeV[id] != canonPair(a, b) {
				return fmt.Errorf("adapt: element %d local edge %d endpoints mismatch", e, le)
			}
		}
	}

	// 2. Edge index: chains reach only alive edges, each from its lower
	// endpoint and at most once, so no walk is longer than len(EdgeV)
	// (a cycle revisits an edge); then every alive edge was reached.
	if len(m.edgeNext) != len(m.EdgeV) {
		return fmt.Errorf("adapt: edge index has %d links for %d edges", len(m.edgeNext), len(m.EdgeV))
	}
	reached := make([]bool, len(m.EdgeV))
	for v, id := range m.edgeHead {
		for ; id >= 0; id = m.edgeNext[id] {
			if int(id) >= len(m.EdgeV) || !m.EdgeAlive[id] {
				return fmt.Errorf("adapt: edge index chain of vertex %d reaches dead edge %d", v, id)
			}
			if m.EdgeV[id][0] != int32(v) {
				return fmt.Errorf("adapt: edge %d on the index chain of vertex %d, not of its lower endpoint", id, v)
			}
			if reached[id] {
				return fmt.Errorf("adapt: edge index chain of vertex %d has a cycle through edge %d", v, id)
			}
			reached[id] = true
		}
	}
	for id := range m.EdgeV {
		if m.EdgeAlive[id] && !reached[id] {
			return fmt.Errorf("adapt: alive edge %d missing from the edge index", id)
		}
	}

	// 3. Vertices.  Every alive vertex is in the gid map under its own
	// gid, and the map holds nothing else.
	alive := 0
	for v := range m.Coords {
		if !m.VertAlive[v] {
			continue
		}
		alive++
		if got, ok := m.gidVert[m.VertGID[v]]; !ok || got != int32(v) {
			return fmt.Errorf("adapt: vertex %d gid map inconsistent", v)
		}
	}
	if len(m.gidVert) != alive {
		return fmt.Errorf("adapt: gid map holds %d vertices, %d are alive", len(m.gidVert), alive)
	}
	for id := range m.EdgeV {
		if !m.EdgeAlive[id] || m.EdgeLeaf(int32(id)) {
			continue
		}
		mid := m.EdgeMid[id]
		if mid < 0 || !m.VertAlive[mid] {
			return fmt.Errorf("adapt: bisected edge %d has dead midpoint", id)
		}
		a, b := m.EdgeV[id][0], m.EdgeV[id][1]
		want := mesh.Mid(m.Coords[a], m.Coords[b])
		if m.Coords[mid].Sub(want).Norm() > 1e-9 {
			return fmt.Errorf("adapt: edge %d midpoint not at geometric midpoint", id)
		}
		for _, c := range m.EdgeChild[id] {
			if !m.EdgeAlive[c] {
				return fmt.Errorf("adapt: bisected edge %d has dead child %d", id, c)
			}
			if m.EdgeParent[c] != int32(id) {
				return fmt.Errorf("adapt: edge %d child %d has wrong parent %d", id, c, m.EdgeParent[c])
			}
		}
	}

	// 4. Conformity over active elements.
	faces := make(map[[3]int32]int)
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		ev := m.ElemVerts[e]
		for _, tri := range mesh.TetFaces {
			faces[canonTri(ev[tri[0]], ev[tri[1]], ev[tri[2]])]++
		}
	}
	for k, n := range faces {
		if n > 2 {
			return fmt.Errorf("adapt: face %v shared by %d active elements", k, n)
		}
	}
	// Children fill the parent volume.
	for e := range m.ElemVerts {
		if !m.ElemAlive[e] || m.ElemChild[e] == nil {
			continue
		}
		pv := m.elemVolume(int32(e))
		var cv float64
		for _, c := range m.ElemChild[e] {
			if !m.ElemAlive[c] {
				return fmt.Errorf("adapt: subdivided element %d has dead child %d", e, c)
			}
			if m.ElemParent[c] != int32(e) {
				return fmt.Errorf("adapt: element %d child %d has wrong parent", e, c)
			}
			cv += m.elemVolume(c)
		}
		if math.Abs(pv-cv) > 1e-9*math.Max(1, pv) {
			return fmt.Errorf("adapt: element %d children volume %v != parent %v", e, cv, pv)
		}
	}

	// 5. Boundary faces.
	for f := range m.BFaceVerts {
		if !m.BFaceActive(int32(f)) {
			continue
		}
		k := canonTri(m.BFaceVerts[f][0], m.BFaceVerts[f][1], m.BFaceVerts[f][2])
		if faces[k] != 1 {
			return fmt.Errorf("adapt: active boundary face %d is a face of %d active elements, want 1", f, faces[k])
		}
		for _, id := range m.BFaceEdges[f] {
			if !m.EdgeAlive[id] || !m.EdgeLeaf(id) {
				return fmt.Errorf("adapt: active boundary face %d has non-leaf or dead edge %d", f, id)
			}
		}
	}

	// 6. Forest roots: every alive element's root must be an alive
	// parentless element that is its own root, and elements below
	// NRootElems (FromMesh-constructed initial elements) are their own
	// roots.
	for e := range m.ElemVerts {
		if !m.ElemAlive[e] {
			continue
		}
		r := m.ElemRoot[e]
		if r < 0 || int(r) >= len(m.ElemVerts) {
			return fmt.Errorf("adapt: element %d has invalid root %d", e, r)
		}
		if !m.ElemAlive[r] || m.ElemParent[r] != -1 || m.ElemRoot[r] != r {
			return fmt.Errorf("adapt: element %d has non-root root %d", e, r)
		}
		if e < m.NRootElems && r != int32(e) {
			return fmt.Errorf("adapt: initial element %d has root %d", e, r)
		}
	}
	return nil
}

func canonTri(a, b, c int32) [3]int32 {
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

func (m *Mesh) elemVolume(e int32) float64 {
	ev := m.ElemVerts[e]
	return mesh.TetVolume(m.Coords[ev[0]], m.Coords[ev[1]], m.Coords[ev[2]], m.Coords[ev[3]])
}

// TotalActiveVolume returns the summed volume of all active elements
// (conserved across adaption).
func (m *Mesh) TotalActiveVolume() float64 {
	var v float64
	for e := range m.ElemVerts {
		if m.ElemActive(int32(e)) {
			v += m.elemVolume(int32(e))
		}
	}
	return v
}
