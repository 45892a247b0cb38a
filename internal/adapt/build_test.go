package adapt

import (
	"reflect"
	"testing"

	"plum/internal/mesh"
)

func TestNewEmptyAndManualConstruction(t *testing.T) {
	m := NewEmpty(1)
	// Build a single tetrahedron by hand.
	v := [4]int32{}
	coords := []mesh.Vec3{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i, c := range coords {
		v[i] = m.AddVertex(uint64(i), c, []float64{float64(i)})
	}
	root := m.AddRootElem(v)
	if !m.ElemActive(root) {
		t.Fatal("root not active")
	}
	c := m.ActiveCounts()
	if c.Verts != 4 || c.Elems != 1 || c.Edges != 6 {
		t.Fatalf("counts %+v", c)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Refine it isotropically via the public marking API.
	m.BuildEdgeElems()
	for _, id := range m.ElemEdges[root] {
		m.MarkEdge(id)
	}
	m.Propagate()
	m.Refine()
	if got := m.ActiveCounts().Elems; got != 8 {
		t.Errorf("children = %d, want 8", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddVertexRefreshesExisting(t *testing.T) {
	m := NewEmpty(2)
	v1 := m.AddVertex(7, mesh.Vec3{1, 2, 3}, []float64{4, 5})
	v2 := m.AddVertex(7, mesh.Vec3{1, 2, 3}, []float64{6, 7})
	if v1 != v2 {
		t.Fatal("same gid created two vertices")
	}
	if m.Sol[int(v1)*2] != 6 || m.Sol[int(v1)*2+1] != 7 {
		t.Error("solution not refreshed")
	}
	// nil solution keeps existing values.
	m.AddVertex(7, mesh.Vec3{1, 2, 3}, nil)
	if m.Sol[int(v1)*2] != 6 {
		t.Error("nil solution overwrote values")
	}
}

func TestEnsureBisectedIdempotent(t *testing.T) {
	m := FromMesh(mesh.Box(1, 1, 1, 1, 1, 1), 0)
	id := int32(0)
	m.EnsureBisected(id)
	mid := m.EdgeMid[id]
	m.EnsureBisected(id)
	if m.EdgeMid[id] != mid {
		t.Error("second bisection changed the midpoint")
	}
	nEdges := len(m.EdgeV)
	m.EnsureBisected(id)
	if len(m.EdgeV) != nEdges {
		t.Error("repeated bisection grew the edge table")
	}
}

func TestFamilyElemsBFS(t *testing.T) {
	m := FromMesh(mesh.Box(1, 1, 1, 1, 1, 1), 0)
	m.BuildEdgeElems()
	for _, id := range m.ElemEdges[0] {
		m.MarkEdge(id)
	}
	m.Propagate()
	m.Refine()
	fam := m.AppendFamilyElems(nil, 0)
	if fam[0] != 0 {
		t.Fatal("family must start at the root")
	}
	// Parent precedes children in BFS order.
	pos := make(map[int32]int)
	for i, e := range fam {
		pos[e] = i
	}
	for _, e := range fam {
		if p := m.ElemParent[e]; p >= 0 {
			if pos[p] >= pos[e] {
				t.Fatalf("child %d precedes parent %d", e, p)
			}
		}
	}
	wc, wr := m.RootWeights()
	if wc[0] != 8 || wr[0] != 9 {
		t.Errorf("family weights (%d,%d), want (8,9)", wc[0], wr[0])
	}
}

func TestRemoveFamily(t *testing.T) {
	m := FromMesh(mesh.Box(2, 1, 1, 2, 1, 1), 0)
	m.BuildEdgeElems()
	for _, id := range m.ElemEdges[0] {
		m.MarkEdge(id)
	}
	m.Propagate()
	m.Refine()
	before := m.ActiveCounts()
	m.RemoveFamily(0)
	after := m.ActiveCounts()
	if after.Elems >= before.Elems {
		t.Fatal("family not removed")
	}
	// The rest of the mesh must stay structurally valid (conformity is
	// intentionally broken at the hole's surface, so only check the
	// remaining elements' internal consistency).
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		for _, id := range m.ElemEdges[e] {
			if !m.EdgeAlive[id] {
				t.Fatalf("active element %d references dead edge after RemoveFamily", e)
			}
		}
	}
	// Removing a non-root must panic.
	defer func() {
		if recover() == nil {
			t.Error("RemoveFamily accepted a non-root element")
		}
	}()
	var child int32 = -1
	for e := m.NRootElems; e < len(m.ElemVerts); e++ {
		if m.ElemAlive[e] {
			child = int32(e)
			break
		}
	}
	if child < 0 {
		t.Skip("no child element to test with")
	}
	m.RemoveFamily(child)
}

func TestMidpointGIDNoCollisionsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("collision scan in -short mode")
	}
	// One full refinement of a moderately large mesh: every midpoint
	// gid must be unique and distinct from the initial ids.
	m := FromMesh(mesh.Box(6, 6, 6, 1, 1, 1), 0)
	m.BuildEdgeElems()
	for _, id := range m.activeLeafEdges() {
		m.MarkEdge(id)
	}
	m.Propagate()
	m.Refine()
	seen := make(map[uint64]int32)
	for v := range m.Coords {
		if !m.VertAlive[v] {
			continue
		}
		if prev, ok := seen[m.VertGID[v]]; ok {
			t.Fatalf("gid collision between vertices %d and %d", prev, v)
		}
		seen[m.VertGID[v]] = int32(v)
	}
}

// adaptedBox is a refined-then-partly-coarsened mesh: two refinement
// levels around one corner, then coarsening around another, so it holds
// multi-level families, dead slots, and purged-then-kept edges.
func adaptedBox() *Mesh {
	a := FromMesh(mesh.Box(3, 3, 3, 3, 3, 3), 1)
	for v := range a.Coords {
		a.Sol[v] = a.Coords[v][0] - 2*a.Coords[v][2]
	}
	ind := SphericalIndicator(mesh.Vec3{1, 1, 1}, 1.2, 0.5)
	for level := 0; level < 2; level++ {
		a.MarkTopFraction(a.EdgeErrorGeometric(ind), 0.3)
		a.Propagate()
		a.Refine()
	}
	moved := SphericalIndicator(mesh.Vec3{0, 0, 0}, 0.8, 0.4)
	a.Coarsen(a.TargetCoarsenEdges(a.EdgeErrorGeometric(moved), 0.5))
	return a
}

// requireSameMesh fails unless a and b hold identical state: every
// exported field, the gid lookup table, what the edge index resolves,
// and every root's boundary-face family.
func requireSameMesh(t *testing.T, stage string, a, b *Mesh) {
	t.Helper()
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if f.IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("%s: field %s differs", stage, f.Name)
		}
	}
	if !reflect.DeepEqual(a.gidVert, b.gidVert) {
		t.Errorf("%s: gid lookup tables differ", stage)
	}
	// The edge index is compared by what it resolves: the same id for
	// every pair, each alive edge by its own pair, no dead edge at all.
	for id, p := range a.EdgeV {
		x, y := a.EdgeByPair(p[0], p[1]), b.EdgeByPair(p[0], p[1])
		if x != y {
			t.Errorf("%s: EdgeByPair(%d,%d) = %d vs %d", stage, p[0], p[1], x, y)
		}
		if x >= 0 && !a.EdgeAlive[x] {
			t.Errorf("%s: EdgeByPair(%d,%d) reaches dead edge %d", stage, p[0], p[1], x)
		}
		if a.EdgeAlive[id] && x != int32(id) {
			t.Errorf("%s: alive edge %d resolves to %d", stage, id, x)
		}
	}
	for _, g := range a.VertGID {
		if x, y := a.VertByGID(g), b.VertByGID(g); x != y {
			t.Errorf("%s: VertByGID(%d) = %d vs %d", stage, g, x, y)
		}
	}
	for r := int32(0); r < int32(a.NRootElems); r++ {
		if x, y := a.FamilyBFaces(r), b.FamilyBFaces(r); !reflect.DeepEqual(x, y) {
			t.Errorf("%s: FamilyBFaces(%d) = %v vs %v", stage, r, x, y)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// packedFamily is what migration ships for one family, as ids of the
// mesh it was taken from: elements in BFS order, the edges they use
// with their bisected/marked state, and the boundary faces with their
// parents.
type packedFamily struct {
	elems, verts, edges, bfaces []int32
	bisected, marked            []bool
	bfaceParent                 []int32
}

func packFamily(m *Mesh, root int32) packedFamily {
	var p packedFamily
	p.elems = m.AppendFamilyElems(nil, root)
	seenV, seenE := map[int32]bool{}, map[int32]bool{}
	for _, e := range p.elems {
		for _, v := range m.ElemVerts[e] {
			if !seenV[v] {
				seenV[v] = true
				p.verts = append(p.verts, v)
			}
		}
		for _, id := range m.ElemEdges[e] {
			if !seenE[id] {
				seenE[id] = true
				p.edges = append(p.edges, id)
				p.bisected = append(p.bisected, !m.EdgeLeaf(id))
				p.marked = append(p.marked, m.EdgeMark[id])
			}
		}
	}
	p.bfaces = m.FamilyBFaces(root)
	for _, f := range p.bfaces {
		p.bfaceParent = append(p.bfaceParent, m.BFaceParent(f))
	}
	return p
}

// unpackFamily rebuilds p (taken from src) into m with the construction
// calls, in the order, that pmesh's migration unpacker makes.
func unpackFamily(m, src *Mesh, p packedFamily) {
	lv, le, lf := map[int32]int32{}, map[int32]int32{}, map[int32]int32{}
	for _, v := range p.verts {
		lv[v] = m.AddVertex(src.VertGID[v], src.Coords[v], src.Sol[int(v)*src.NComp:int(v+1)*src.NComp])
	}
	root := int32(-1)
	for _, e := range p.elems {
		var ev [4]int32
		for k, v := range src.ElemVerts[e] {
			ev[k] = lv[v]
		}
		if par := src.ElemParent[e]; par < 0 {
			root = m.AddRootElem(ev)
			le[e] = root
		} else {
			le[e] = m.AddChildElem(le[par], ev)
		}
	}
	for i, id := range p.edges {
		nid := m.EnsureEdge(lv[src.EdgeV[id][0]], lv[src.EdgeV[id][1]])
		if p.bisected[i] {
			m.EnsureBisected(nid)
		}
		if p.marked[i] {
			m.MarkEdge(nid)
		}
	}
	for i, f := range p.bfaces {
		var fv [3]int32
		for k, v := range src.BFaceVerts[f] {
			fv[k] = lv[v]
		}
		if par := p.bfaceParent[i]; par < 0 {
			lf[f] = m.AddRootBFace(fv, root)
		} else {
			lf[f] = m.AddChildBFace(lf[par], fv)
		}
	}
}

// TestRemoveFamiliesMatchesSequential: removing a set of families in one
// purge pass leaves exactly the state that removing them one at a time
// does, and unpacking the same families afterwards revives identical ids.
func TestRemoveFamiliesMatchesSequential(t *testing.T) {
	orig, seq, batch := adaptedBox(), adaptedBox(), adaptedBox()
	requireSameMesh(t, "built", seq, batch)
	var roots []int32
	refined := 0
	for r := int32(0); r < int32(orig.NRootElems); r += 5 {
		roots = append(roots, r)
		if orig.ElemChild[r] != nil {
			refined++
		}
	}
	if refined == 0 {
		t.Fatal("no refined family among the removed roots")
	}
	packed := make([]packedFamily, len(roots))
	for i, r := range roots {
		packed[i] = packFamily(orig, r)
	}

	for _, r := range roots {
		seq.RemoveFamily(r)
	}
	batch.RemoveFamilies(roots)
	requireSameMesh(t, "removed", seq, batch)

	for _, p := range packed {
		unpackFamily(seq, orig, p)
		unpackFamily(batch, orig, p)
	}
	requireSameMesh(t, "revived", seq, batch)
	if got, want := batch.ActiveCounts(), orig.ActiveCounts(); got != want {
		t.Errorf("revived counts %+v, want the original %+v", got, want)
	}
	if err := batch.CheckInvariants(); err != nil {
		t.Errorf("revived mesh: %v", err)
	}
}
