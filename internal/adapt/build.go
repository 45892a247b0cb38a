package adapt

import (
	"fmt"

	"plum/internal/mesh"
)

// Construction API used by the distributed mesh (package pmesh) to build
// per-processor submeshes and to rebuild refinement forests when element
// families migrate between processors.  The global-id discipline (initial
// vertices keep their initial ids; midpoints hash their parent edge's
// endpoint ids) guarantees that independently constructed copies of
// shared objects agree across processors.

// NewEmpty returns a mesh with no objects and ncomp solution components.
func NewEmpty(ncomp int) *Mesh {
	return &Mesh{NComp: ncomp, gidVert: make(map[uint64]int32)}
}

// FromMeshGIDs is FromMesh with explicit global ids for the initial
// vertices (used when the mesh is a sub-mesh of a larger global mesh).
func FromMeshGIDs(m *mesh.Mesh, ncomp int, gids []uint64) *Mesh {
	a := FromMesh(m, ncomp)
	if gids == nil {
		return a
	}
	if len(gids) != len(m.Coords) {
		panic(fmt.Sprintf("adapt: %d gids for %d vertices", len(gids), len(m.Coords)))
	}
	for v := range gids {
		delete(a.gidVert, a.VertGID[v])
	}
	for v, g := range gids {
		a.VertGID[v] = g
		a.gidVert[g] = int32(v)
	}
	return a
}

// AddVertex inserts (or refreshes) a vertex with the given global id,
// coordinates, and solution values (sol may be nil to keep zeros or the
// existing values).  Returns the local id.
func (m *Mesh) AddVertex(gid uint64, c mesh.Vec3, sol []float64) int32 {
	v := m.newVertex(c, gid)
	m.Coords[v] = c
	if sol != nil {
		if len(sol) != m.NComp {
			panic(fmt.Sprintf("adapt: %d solution values, want %d", len(sol), m.NComp))
		}
		copy(m.Sol[int(v)*m.NComp:], sol)
	}
	return v
}

// EnsureEdge returns the edge between local vertices a and b, creating it
// if necessary.
func (m *Mesh) EnsureEdge(a, b int32) int32 { return m.getOrCreateEdge(a, b) }

// EnsureBisected bisects edge id if it is a leaf (reusing or creating the
// midpoint vertex by its global id).
func (m *Mesh) EnsureBisected(id int32) {
	m.bisect(id)
}

// AddRootElem appends a root element (its own family root).  The caller
// provides local vertex ids; edges are derived.
func (m *Mesh) AddRootElem(verts [4]int32) int32 {
	var edges [6]int32
	for le, pr := range mesh.TetEdgeVerts {
		edges[le] = m.getOrCreateEdge(verts[pr[0]], verts[pr[1]])
	}
	id := int32(len(m.ElemVerts))
	m.ElemVerts = append(m.ElemVerts, verts)
	m.ElemEdges = append(m.ElemEdges, edges)
	m.ElemParent = append(m.ElemParent, -1)
	m.ElemChild = append(m.ElemChild, nil)
	m.ElemRoot = append(m.ElemRoot, id)
	m.ElemAlive = append(m.ElemAlive, true)
	m.EdgeElems = nil
	return id
}

// AddChildElem appends a child of parent (updating the parent's child
// list) and returns its local id.
func (m *Mesh) AddChildElem(parent int32, verts [4]int32) int32 {
	id := m.newElem(verts, parent)
	m.ElemChild[parent] = append(m.ElemChild[parent], id)
	m.EdgeElems = nil
	return id
}

// AddRootBFace appends a root boundary face owned by root element root.
func (m *Mesh) AddRootBFace(verts [3]int32, root int32) int32 {
	return m.newBFace(verts, root)
}

// AddChildBFace appends a child of boundary face parent.
func (m *Mesh) AddChildBFace(parent int32, verts [3]int32) int32 {
	id := m.newBFace(verts, m.BFaceRoot[parent])
	m.BFaceChild[parent] = append(m.BFaceChild[parent], id)
	return id
}

// AppendFamilyElems appends to dst the local ids of all alive elements
// in root's refinement tree, in BFS order starting at the root itself.
func (m *Mesh) AppendFamilyElems(dst []int32, root int32) []int32 {
	dst = append(dst, root)
	for qi := len(dst) - 1; qi < len(dst); qi++ {
		for _, c := range m.ElemChild[dst[qi]] {
			if m.ElemAlive[c] {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// FamilyBFaces returns the local ids of all alive boundary faces rooted
// at element root, in BFS order per face tree.
func (m *Mesh) FamilyBFaces(root int32) []int32 {
	var roots []int32
	for f := range m.BFaceVerts {
		if m.BFaceAlive[f] && m.BFaceRoot[f] == root && m.bfaceParent(int32(f)) < 0 {
			roots = append(roots, int32(f))
		}
	}
	return m.AppendFaceTrees(nil, roots)
}

// AppendFaceTrees appends the face-tree roots in roots, then their alive
// descendants in BFS order, to dst.  Given one element root's tree roots
// in ascending id order it appends exactly FamilyBFaces of that root.
func (m *Mesh) AppendFaceTrees(dst, roots []int32) []int32 {
	qi := len(dst)
	dst = append(dst, roots...)
	for ; qi < len(dst); qi++ {
		for _, c := range m.BFaceChild[dst[qi]] {
			if m.BFaceAlive[c] {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// BFaceParent returns the parent of boundary face f, or -1 for roots of
// face trees.  (Face parents are implicit in BFaceChild; an inverted
// index is cached and rebuilt when the face count changes.)
func (m *Mesh) BFaceParent(f int32) int32 { return m.bfaceParent(f) }

// bfaceParent implements BFaceParent.
func (m *Mesh) bfaceParent(f int32) int32 {
	if m.bfaceParentCache == nil || len(m.bfaceParentCache) != len(m.BFaceVerts) {
		m.bfaceParentCache = make([]int32, len(m.BFaceVerts))
		for i := range m.bfaceParentCache {
			m.bfaceParentCache[i] = -1
		}
		for p := range m.BFaceVerts {
			for _, c := range m.BFaceChild[p] {
				m.bfaceParentCache[c] = int32(p)
			}
		}
	}
	return m.bfaceParentCache[f]
}

// RemoveFamily deletes root's entire element family (and its boundary
// faces), purging edges and vertices that become unreferenced.
func (m *Mesh) RemoveFamily(root int32) { m.RemoveFamilies([]int32{root}) }

// RemoveFamilies deletes the element families (and boundary faces) of
// every root in roots, then purges the edges and vertices that became
// unreferenced in one pass.  Used when families migrate to other
// processors.  The purge is a monotone fixpoint, so the result is
// identical to removing the families one at a time.
func (m *Mesh) RemoveFamilies(roots []int32) {
	if len(roots) == 0 {
		return
	}
	leaving := make([]bool, len(m.ElemVerts))
	var fam []int32
	for _, root := range roots {
		if m.ElemParent[root] != -1 {
			panic(fmt.Sprintf("adapt: RemoveFamily(%d): not a root element", root))
		}
		leaving[root] = true
		fam = m.AppendFamilyElems(fam[:0], root)
		for _, e := range fam {
			m.ElemAlive[e] = false
		}
		m.ElemChild[root] = nil
	}
	for f := range m.BFaceVerts {
		if m.BFaceAlive[f] && leaving[m.BFaceRoot[f]] {
			m.BFaceAlive[f] = false
			m.BFaceChild[f] = nil
		}
	}
	m.bfaceParentCache = nil
	m.purgeAll()
}

// purgeAll is purge without the initial-mesh edge/vertex protection:
// in a distributed submesh any object can become unreferenced when its
// family leaves.
func (m *Mesh) purgeAll() {
	saveE, saveV := m.NInitEdges, m.NInitVerts
	m.NInitEdges, m.NInitVerts = 0, 0
	m.purge()
	m.NInitEdges, m.NInitVerts = saveE, saveV
}
