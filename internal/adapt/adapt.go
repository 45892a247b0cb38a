package adapt

import (
	"fmt"

	"plum/internal/mesh"
)

// Mesh is an adapted tetrahedral mesh with full refinement history.
type Mesh struct {
	// Vertices.
	Coords    []mesh.Vec3
	VertGID   []uint64
	VertAlive []bool
	gidVert   map[uint64]int32

	// Solution field: NComp float64 values per vertex, linearly
	// interpolated onto bisection midpoints.  May be empty (NComp == 0).
	NComp int
	Sol   []float64

	// Edges.  EdgeV pairs are canonical (lo < hi by local vertex id).
	EdgeV      [][2]int32
	EdgeChild  [][2]int32 // child halves, {-1,-1} if leaf
	EdgeParent []int32    // -1 for initial and element-interior edges
	EdgeMid    []int32    // bisection midpoint vertex, -1 if leaf
	EdgeAlive  []bool
	EdgeMark   []bool // refinement marks for the current pass
	edgeByPair map[[2]int32]int32

	// Elements.
	ElemVerts  [][4]int32
	ElemEdges  [][6]int32
	ElemParent []int32
	ElemChild  [][]int32 // nil if leaf
	ElemRoot   []int32   // initial-mesh element this descends from
	ElemAlive  []bool

	// Boundary faces (forest mirroring element refinement, but driven
	// purely by edge bisection state).
	BFaceVerts [][3]int32
	BFaceEdges [][3]int32
	BFaceChild [][]int32
	BFaceAlive []bool
	BFaceRoot  []int32 // initial-mesh element owning the initial face

	// Edge -> active elements incidence, ascending element ids per edge
	// (nil for an edge no active element uses).  Every topology change
	// sets it to nil; read it through EnsureEdgeElems.
	EdgeElems [][]int32

	// bfaceParentCache inverts BFaceChild; rebuilt on demand.
	bfaceParentCache []int32

	// Immutable initial-mesh sizes (objects below these indices are
	// permanent: "edges cannot be coarsened beyond the initial mesh").
	NRootElems int
	NInitEdges int
	NInitVerts int
}

// hashGID mixes two sorted vertex gids into the gid of their midpoint
// (splitmix64-style finalizer over the combined words).
func hashGID(a, b uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	x := a*0x9E3779B97F4A7C15 ^ (b + 0xBF58476D1CE4E5B9)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	// Avoid colliding with initial vertex ids (< 2^32 in practice).
	return x | (1 << 63)
}

// MidpointGID returns the global id a bisection midpoint of the edge with
// endpoint gids a and b receives, on any processor.
func MidpointGID(a, b uint64) uint64 { return hashGID(a, b) }

// FromMesh builds an adapted mesh (level 0, nothing refined) from an
// initial mesh, with ncomp solution components per vertex (all zero).
func FromMesh(m *mesh.Mesh, ncomp int) *Mesh {
	if m.ElemEdges == nil {
		m.BuildDerived()
	}
	a := &Mesh{
		NComp:      ncomp,
		gidVert:    make(map[uint64]int32, len(m.Coords)*2),
		edgeByPair: make(map[[2]int32]int32, len(m.Edges)*2),
		NRootElems: len(m.Elems),
		NInitEdges: len(m.Edges),
		NInitVerts: len(m.Coords),
	}
	a.Coords = append(a.Coords, m.Coords...)
	a.VertGID = make([]uint64, len(m.Coords))
	a.VertAlive = make([]bool, len(m.Coords))
	for v := range m.Coords {
		a.VertGID[v] = uint64(v)
		a.VertAlive[v] = true
		a.gidVert[uint64(v)] = int32(v)
	}
	a.Sol = make([]float64, ncomp*len(m.Coords))

	a.EdgeV = append(a.EdgeV, m.Edges...)
	n := len(m.Edges)
	a.EdgeChild = make([][2]int32, n)
	a.EdgeParent = make([]int32, n)
	a.EdgeMid = make([]int32, n)
	a.EdgeAlive = make([]bool, n)
	a.EdgeMark = make([]bool, n)
	for e := 0; e < n; e++ {
		a.EdgeChild[e] = [2]int32{-1, -1}
		a.EdgeParent[e] = -1
		a.EdgeMid[e] = -1
		a.EdgeAlive[e] = true
		a.edgeByPair[m.Edges[e]] = int32(e)
	}

	a.ElemVerts = append(a.ElemVerts, m.Elems...)
	a.ElemEdges = append(a.ElemEdges, m.ElemEdges...)
	ne := len(m.Elems)
	a.ElemParent = make([]int32, ne)
	a.ElemChild = make([][]int32, ne)
	a.ElemRoot = make([]int32, ne)
	a.ElemAlive = make([]bool, ne)
	for e := 0; e < ne; e++ {
		a.ElemParent[e] = -1
		a.ElemRoot[e] = int32(e)
		a.ElemAlive[e] = true
	}

	for i, bf := range m.BFaces {
		var edges [3]int32
		pairs := [3][2]int32{{bf[0], bf[1]}, {bf[0], bf[2]}, {bf[1], bf[2]}}
		for j, p := range pairs {
			id, ok := a.edgeByPair[canonPair(p[0], p[1])]
			if !ok {
				panic("adapt: boundary face edge missing from edge table")
			}
			edges[j] = id
		}
		a.BFaceVerts = append(a.BFaceVerts, bf)
		a.BFaceEdges = append(a.BFaceEdges, edges)
		a.BFaceChild = append(a.BFaceChild, nil)
		a.BFaceAlive = append(a.BFaceAlive, true)
		a.BFaceRoot = append(a.BFaceRoot, m.BFaceElem[i])
	}
	return a
}

func canonPair(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// ElemActive reports whether element e is a leaf of the refinement forest
// (i.e. part of the current computational mesh).
func (m *Mesh) ElemActive(e int32) bool {
	return m.ElemAlive[e] && m.ElemChild[e] == nil
}

// EdgeLeaf reports whether edge id is unbisected.
func (m *Mesh) EdgeLeaf(id int32) bool { return m.EdgeChild[id][0] < 0 }

// BFaceActive reports whether boundary face f is a leaf.
func (m *Mesh) BFaceActive(f int32) bool {
	return m.BFaceAlive[f] && m.BFaceChild[f] == nil
}

// Counts summarizes the current computational mesh (the quantities of the
// paper's Table 1).
type Counts struct {
	Verts, Elems, Edges, BFaces int
}

// ActiveCounts returns the sizes of the current computational mesh:
// alive vertices, active elements, alive leaf edges, active boundary
// faces.
func (m *Mesh) ActiveCounts() Counts {
	var c Counts
	for v := range m.VertAlive {
		if m.VertAlive[v] {
			c.Verts++
		}
	}
	for e := range m.ElemVerts {
		if m.ElemActive(int32(e)) {
			c.Elems++
		}
	}
	for id := range m.EdgeV {
		if m.EdgeAlive[id] && m.EdgeLeaf(int32(id)) {
			c.Edges++
		}
	}
	for f := range m.BFaceVerts {
		if m.BFaceActive(int32(f)) {
			c.BFaces++
		}
	}
	return c
}

// BuildEdgeElems rebuilds the edge -> active elements incidence used by
// marking propagation and coarsening.  The lists are capacity-capped
// windows of one flat array (counted, prefix-summed, then filled in
// ascending element id), so a rebuild costs three allocations whatever
// the mesh size.
func (m *Mesh) BuildEdgeElems() {
	start := make([]int32, len(m.EdgeV)+1)
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		for _, id := range m.ElemEdges[e] {
			start[id+1]++
		}
	}
	for id := range m.EdgeV {
		start[id+1] += start[id]
	}
	flat := make([]int32, start[len(m.EdgeV)])
	m.EdgeElems = make([][]int32, len(m.EdgeV))
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		for _, id := range m.ElemEdges[e] {
			flat[start[id]] = int32(e)
			start[id]++
		}
	}
	// start[id] now holds the end of edge id's window, which is where
	// edge id+1's window begins.
	lo := int32(0)
	for id, hi := range start[:len(m.EdgeV)] {
		if hi > lo {
			m.EdgeElems[id] = flat[lo:hi:hi]
		}
		lo = hi
	}
}

// EnsureEdgeElems builds the edge -> active elements incidence if a
// topology change has invalidated it since the last build.
func (m *Mesh) EnsureEdgeElems() {
	if m.EdgeElems == nil {
		m.BuildEdgeElems()
	}
}

// RootWeights returns the two dual-graph vertex weights per initial
// element (paper Section 4.1): wcomp[r] is the number of active (leaf)
// elements in root r's refinement tree — only those participate in the
// flow computation — and wremap[r] is the total number of alive elements
// in the tree, since all descendants move with the root during remapping.
// Both are indexed by root element id (see rootSpan).
func (m *Mesh) RootWeights() (wcomp, wremap []int64) {
	wcomp = make([]int64, m.rootSpan())
	wremap = make([]int64, len(wcomp))
	for e := range m.ElemVerts {
		if !m.ElemAlive[e] {
			continue
		}
		r := m.ElemRoot[e]
		wremap[r]++
		if m.ElemChild[e] == nil {
			wcomp[r]++
		}
	}
	return wcomp, wremap
}

// rootSpan returns the length of a table indexed by root element id:
// NRootElems, or more once a migrated family has appended its root
// element past them.
func (m *Mesh) rootSpan() int {
	for e := len(m.ElemVerts) - 1; e >= m.NRootElems; e-- {
		if m.ElemAlive[e] && m.ElemParent[e] < 0 {
			return e + 1
		}
	}
	return m.NRootElems
}

// getOrCreateEdge returns the id of the edge (a,b), creating it (as an
// element-interior or face edge, parent -1) if it does not exist.
func (m *Mesh) getOrCreateEdge(a, b int32) int32 {
	k := canonPair(a, b)
	if id, ok := m.edgeByPair[k]; ok {
		if !m.EdgeAlive[id] {
			// Revive a purged slot rather than growing the tables.
			m.EdgeAlive[id] = true
			m.EdgeChild[id] = [2]int32{-1, -1}
			m.EdgeMid[id] = -1
			m.EdgeParent[id] = -1
			m.EdgeMark[id] = false
			m.EdgeElems = nil
		}
		return id
	}
	m.EdgeElems = nil
	id := int32(len(m.EdgeV))
	m.EdgeV = append(m.EdgeV, k)
	m.EdgeChild = append(m.EdgeChild, [2]int32{-1, -1})
	m.EdgeParent = append(m.EdgeParent, -1)
	m.EdgeMid = append(m.EdgeMid, -1)
	m.EdgeAlive = append(m.EdgeAlive, true)
	m.EdgeMark = append(m.EdgeMark, false)
	m.edgeByPair[k] = id
	return id
}

// EdgeByPair returns the id of the alive edge with the given endpoint
// vertices, or -1.
func (m *Mesh) EdgeByPair(a, b int32) int32 {
	if id, ok := m.edgeByPair[canonPair(a, b)]; ok && m.EdgeAlive[id] {
		return id
	}
	return -1
}

// VertByGID returns the local vertex with global id gid, or -1.
func (m *Mesh) VertByGID(gid uint64) int32 {
	if v, ok := m.gidVert[gid]; ok && m.VertAlive[v] {
		return v
	}
	return -1
}

// String summarizes the mesh for debugging.
func (m *Mesh) String() string {
	c := m.ActiveCounts()
	return fmt.Sprintf("adapt.Mesh{verts=%d elems=%d edges=%d bfaces=%d (storage %d/%d/%d)}",
		c.Verts, c.Elems, c.Edges, c.BFaces, len(m.Coords), len(m.ElemVerts), len(m.EdgeV))
}
