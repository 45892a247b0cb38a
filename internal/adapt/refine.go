package adapt

import (
	"fmt"
	"math/bits"

	"plum/internal/mesh"
)

// localEdgeIdx[i][j] is the local edge between local vertices i and j.
var localEdgeIdx = func() [4][4]int {
	var t [4][4]int
	for i := range t {
		for j := range t[i] {
			t[i][j] = -1
		}
	}
	for le, pr := range mesh.TetEdgeVerts {
		t[pr[0]][pr[1]] = le
		t[pr[1]][pr[0]] = le
	}
	return t
}()

// RefineStats reports what a Refine pass did.
type RefineStats struct {
	ElemsSubdivided int // parents subdivided this pass
	ElemsCreated    int // child elements created
	EdgesBisected   int // leaf edges bisected (midpoints created)
	VertsCreated    int
	BFacesSplit     int
	BFacesCreated   int
}

// Refine subdivides every active element whose marked-edge pattern is
// non-empty.  Marks must form valid patterns: callers run Propagate
// first.  Marked leaf edges are bisected (already-bisected marked edges —
// which occur during post-coarsening re-refinement — are reused).
// Boundary faces split consistently with their elements.  All marks are
// cleared on return.
func (m *Mesh) Refine() RefineStats {
	var st RefineStats

	// Snapshot jobs before mutating topology.
	type ejob struct {
		e   int32
		pat uint8
	}
	var ejobs []ejob
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		pat := m.ElemPattern(int32(e))
		if pat == 0 {
			continue
		}
		if !ValidPattern(pat) {
			panic(fmt.Sprintf("adapt: element %d has invalid pattern %06b at Refine; call Propagate first", e, pat))
		}
		ejobs = append(ejobs, ejob{int32(e), pat})
	}
	type fjob struct {
		f   int32
		pat uint8 // 3-bit pattern over BFaceEdges
	}
	var fjobs []fjob
	for f := range m.BFaceVerts {
		if !m.BFaceActive(int32(f)) {
			continue
		}
		var pat uint8
		for i, id := range m.BFaceEdges[f] {
			if m.EdgeMark[id] {
				pat |= 1 << uint(i)
			}
		}
		if pat == 0 {
			continue
		}
		if bits.OnesCount8(pat) == 2 {
			panic(fmt.Sprintf("adapt: boundary face %d has 2 marked edges; element patterns invalid", f))
		}
		fjobs = append(fjobs, fjob{int32(f), pat})
	}

	// Bisect all marked leaf edges.
	for id := range m.EdgeMark {
		if m.EdgeMark[id] && m.EdgeAlive[id] && m.EdgeLeaf(int32(id)) {
			m.bisect(int32(id))
			st.EdgesBisected++
			st.VertsCreated++
		}
	}

	// Subdivide elements, then boundary faces (which reuse the interior
	// face edges the element subdivision creates).
	for _, j := range ejobs {
		st.ElemsCreated += m.subdivideElem(j.e, j.pat)
		st.ElemsSubdivided++
	}
	for _, j := range fjobs {
		st.BFacesCreated += m.subdivideBFace(j.f, j.pat)
		st.BFacesSplit++
	}

	m.ClearMarks()
	m.EdgeElems = nil // incidence is stale after topology changes
	return st
}

// bisect splits a leaf edge at its midpoint, creating the midpoint vertex
// (with solution interpolated linearly from the endpoints, paper Section
// 3) and the two child edges.  Idempotent on already-bisected edges.
func (m *Mesh) bisect(id int32) {
	if !m.EdgeLeaf(id) {
		return
	}
	a, b := m.EdgeV[id][0], m.EdgeV[id][1]
	gid := hashGID(m.VertGID[a], m.VertGID[b])
	_, existed := m.gidVert[gid]
	mid := m.newVertex(mesh.Mid(m.Coords[a], m.Coords[b]), gid)
	if !existed {
		// Fresh midpoint: interpolate the solution.  A pre-existing
		// vertex (merged via global id during migration unpacking)
		// keeps its transferred solution values.
		for c := 0; c < m.NComp; c++ {
			m.Sol[int(mid)*m.NComp+c] = 0.5 * (m.Sol[int(a)*m.NComp+c] + m.Sol[int(b)*m.NComp+c])
		}
	}
	c0 := m.newChildEdge(a, mid, id)
	c1 := m.newChildEdge(mid, b, id)
	m.EdgeChild[id] = [2]int32{c0, c1}
	m.EdgeMid[id] = mid
}

// newVertex appends a vertex (or returns the existing vertex with the
// same global id, which the distributed implementation relies on when
// unpacking migrated elements; gidVert holds alive vertices only).
func (m *Mesh) newVertex(c mesh.Vec3, gid uint64) int32 {
	if v, ok := m.gidVert[gid]; ok {
		return v
	}
	v := int32(len(m.Coords))
	m.Coords = append(m.Coords, c)
	m.VertGID = append(m.VertGID, gid)
	m.VertAlive = append(m.VertAlive, true)
	m.gidVert[gid] = v
	for c := 0; c < m.NComp; c++ {
		m.Sol = append(m.Sol, 0)
	}
	return v
}

// newChildEdge creates the half-edge (a,b) of parent edge p.
func (m *Mesh) newChildEdge(a, b, p int32) int32 {
	id := m.getOrCreateEdge(a, b)
	m.EdgeParent[id] = p
	return id
}

// subdivideElem creates the children of element e for pattern pat and
// returns the number created.
func (m *Mesh) subdivideElem(e int32, pat uint8) int {
	ev := m.ElemVerts[e]
	var mid [6]int32
	for le := 0; le < 6; le++ {
		if pat&(1<<uint(le)) != 0 {
			id := m.ElemEdges[e][le]
			mid[le] = m.EdgeMid[id]
			if mid[le] < 0 {
				panic(fmt.Sprintf("adapt: element %d marked edge %d has no midpoint", e, id))
			}
		} else {
			mid[le] = -1
		}
	}
	tets, n := childTets(ev, pat, mid)
	ids := make([]int32, n)
	for i, t := range tets[:n] {
		ids[i] = m.newElem(t, e)
	}
	m.ElemChild[e] = ids
	return n
}

// newElem appends a child element with parent p, deriving its six edges.
func (m *Mesh) newElem(t [4]int32, p int32) int32 {
	var edges [6]int32
	for le, pr := range mesh.TetEdgeVerts {
		edges[le] = m.getOrCreateEdge(t[pr[0]], t[pr[1]])
	}
	id := int32(len(m.ElemVerts))
	m.ElemVerts = append(m.ElemVerts, t)
	m.ElemEdges = append(m.ElemEdges, edges)
	m.ElemParent = append(m.ElemParent, p)
	m.ElemChild = append(m.ElemChild, nil)
	m.ElemRoot = append(m.ElemRoot, m.ElemRoot[p])
	m.ElemAlive = append(m.ElemAlive, true)
	return id
}

// childTets returns the child tetrahedra (as local vertex 4-tuples of the
// adapted mesh) for the parent corners ev, pattern pat, and per-local-edge
// midpoints mid: the first n entries of the array are the children.
//
// The templates are the classical red/green tetrahedron subdivisions the
// paper's Section 3 describes: 1:2 bisection, 1:4 face quadrisection, and
// 1:8 isotropic with the interior octahedron split by the fixed diagonal
// joining the midpoints of local edges 0 (v0,v1) and 5 (v2,v3).
func childTets(ev [4]int32, pat uint8, mid [6]int32) (tets [8][4]int32, n int) {
	switch SubdivisionArity(pat) {
	case 2:
		le := bits.TrailingZeros8(pat)
		la, lb := mesh.TetEdgeVerts[le][0], mesh.TetEdgeVerts[le][1]
		m := mid[le]
		c0, c1 := ev, ev
		c0[lb] = m
		c1[la] = m
		return [8][4]int32{c0, c1}, 2
	case 4:
		var f int
		for f = 0; f < 4; f++ {
			if faceMasks[f] == pat {
				break
			}
		}
		la, lb, lc := mesh.TetFaces[f][0], mesh.TetFaces[f][1], mesh.TetFaces[f][2]
		ld := mesh.OppositeVertex[f]
		a, b, c, d := ev[la], ev[lb], ev[lc], ev[ld]
		mab := mid[localEdgeIdx[la][lb]]
		mac := mid[localEdgeIdx[la][lc]]
		mbc := mid[localEdgeIdx[lb][lc]]
		return [8][4]int32{
			{a, mab, mac, d},
			{mab, b, mbc, d},
			{mac, mbc, c, d},
			{mab, mbc, mac, d},
		}, 4
	case 8:
		m01, m02, m03 := mid[0], mid[1], mid[2]
		m12, m13, m23 := mid[3], mid[4], mid[5]
		return [8][4]int32{
			// Four corner tetrahedra.
			{ev[0], m01, m02, m03},
			{m01, ev[1], m12, m13},
			{m02, m12, ev[2], m23},
			{m03, m13, m23, ev[3]},
			// Interior octahedron split along the (m01, m23) diagonal;
			// the equatorial cycle m02-m12-m13-m03 closes it.
			{m01, m23, m02, m12},
			{m01, m23, m12, m13},
			{m01, m23, m13, m03},
			{m01, m23, m03, m02},
		}, 8
	default:
		return tets, 0
	}
}

// subdivideBFace splits a boundary face according to its 3-bit marked
// pattern (1 bit: two children; 3 bits: four children) and returns the
// number of children.  Two marked edges cannot occur on a face of an
// element with a valid pattern.
func (m *Mesh) subdivideBFace(f int32, pat uint8) int {
	bv := m.BFaceVerts[f]
	a, b, c := bv[0], bv[1], bv[2]
	var tris [4][3]int32
	n := 2
	switch pat {
	case 1: // edge (a,b)
		mab := m.EdgeMid[m.BFaceEdges[f][0]]
		tris = [4][3]int32{{a, mab, c}, {mab, b, c}}
	case 2: // edge (a,c)
		mac := m.EdgeMid[m.BFaceEdges[f][1]]
		tris = [4][3]int32{{a, b, mac}, {mac, b, c}}
	case 4: // edge (b,c)
		mbc := m.EdgeMid[m.BFaceEdges[f][2]]
		tris = [4][3]int32{{a, b, mbc}, {a, mbc, c}}
	case 7: // all three
		mab := m.EdgeMid[m.BFaceEdges[f][0]]
		mac := m.EdgeMid[m.BFaceEdges[f][1]]
		mbc := m.EdgeMid[m.BFaceEdges[f][2]]
		tris = [4][3]int32{{a, mab, mac}, {mab, b, mbc}, {mac, mbc, c}, {mab, mbc, mac}}
		n = 4
	default:
		panic(fmt.Sprintf("adapt: boundary face %d has invalid pattern %03b", f, pat))
	}
	ids := make([]int32, n)
	for i, t := range tris[:n] {
		ids[i] = m.newBFace(t, m.BFaceRoot[f])
	}
	m.BFaceChild[f] = ids
	return n
}

// newBFace appends a boundary face with the given vertices and root.
func (m *Mesh) newBFace(t [3]int32, root int32) int32 {
	edges := [3]int32{
		m.getOrCreateEdge(t[0], t[1]),
		m.getOrCreateEdge(t[0], t[2]),
		m.getOrCreateEdge(t[1], t[2]),
	}
	id := int32(len(m.BFaceVerts))
	m.BFaceVerts = append(m.BFaceVerts, t)
	m.BFaceEdges = append(m.BFaceEdges, edges)
	m.BFaceChild = append(m.BFaceChild, nil)
	m.BFaceAlive = append(m.BFaceAlive, true)
	m.BFaceRoot = append(m.BFaceRoot, root)
	return id
}
