package adapt

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"plum/internal/mesh"
)

func newBoxAdapt(t *testing.T, nx, ny, nz int) *Mesh {
	t.Helper()
	m := mesh.Box(nx, ny, nz, float64(nx), float64(ny), float64(nz))
	a := FromMesh(m, 1)
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("initial mesh invalid: %v", err)
	}
	return a
}

func TestFromMeshCounts(t *testing.T) {
	m := mesh.Box(2, 2, 2, 1, 1, 1)
	a := FromMesh(m, 0)
	c := a.ActiveCounts()
	if c.Verts != m.NumVerts() || c.Elems != m.NumElems() ||
		c.Edges != m.NumEdges() || c.BFaces != m.NumBFaces() {
		t.Errorf("counts %+v do not match source mesh (%d,%d,%d,%d)",
			c, m.NumVerts(), m.NumElems(), m.NumEdges(), m.NumBFaces())
	}
}

func TestUpgradePatternTable(t *testing.T) {
	for p := 0; p < 64; p++ {
		up := UpgradePattern(uint8(p))
		if up&uint8(p) != uint8(p) {
			t.Errorf("pattern %06b upgraded to %06b loses marks", p, up)
		}
		if !ValidPattern(up) {
			t.Errorf("upgrade of %06b gives invalid %06b", p, up)
		}
		n := bits.OnesCount8(up)
		if n != 0 && n != 1 && n != 3 && n != 6 {
			t.Errorf("upgrade of %06b has %d bits", p, n)
		}
		if n == 3 {
			found := false
			for _, fm := range faceMasks {
				if up == fm {
					found = true
				}
			}
			if !found {
				t.Errorf("3-bit upgrade %06b is not a face", up)
			}
		}
	}
}

func TestUpgradePatternSpecificCases(t *testing.T) {
	// Two edges sharing a vertex lie on one face: edges 0 (v0v1) and
	// 1 (v0v2) share v0, common face (0,1,2) = edges {0,1,3}.
	if got := UpgradePattern(1<<0 | 1<<1); got != faceMasks[0] {
		t.Errorf("edges {0,1} upgraded to %06b, want face mask %06b", got, faceMasks[0])
	}
	// Opposite edges (0: v0v1 and 5: v2v3) share no vertex -> 1:8.
	if got := UpgradePattern(1<<0 | 1<<5); got != FullPattern {
		t.Errorf("opposite edges upgraded to %06b, want full", got)
	}
	// Three edges not forming a face -> 1:8.
	if got := UpgradePattern(1<<0 | 1<<1 | 1<<2); got != FullPattern {
		t.Errorf("vertex-star edges upgraded to %06b, want full", got)
	}
	// A face triple stays.
	for f, fm := range faceMasks {
		if got := UpgradePattern(fm); got != fm {
			t.Errorf("face %d mask changed: %06b -> %06b", f, fm, got)
		}
	}
}

func TestSubdivisionArity(t *testing.T) {
	if SubdivisionArity(0) != 0 {
		t.Error("empty pattern arity != 0")
	}
	if SubdivisionArity(1<<2) != 2 {
		t.Error("single-edge arity != 2")
	}
	if SubdivisionArity(faceMasks[1]) != 4 {
		t.Error("face arity != 4")
	}
	if SubdivisionArity(FullPattern) != 8 {
		t.Error("full arity != 8")
	}
}

func TestRefineIsotropicSingleElement(t *testing.T) {
	a := newBoxAdapt(t, 1, 1, 1)
	before := a.ActiveCounts()
	// Mark all edges of element 0.
	a.BuildEdgeElems()
	for _, id := range a.ElemEdges[0] {
		a.MarkEdge(id)
	}
	a.Propagate()
	st := a.Refine()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := a.ActiveCounts()
	if after.Elems <= before.Elems {
		t.Errorf("no growth: %d -> %d", before.Elems, after.Elems)
	}
	if st.ElemsSubdivided == 0 || st.EdgesBisected == 0 {
		t.Errorf("stats empty: %+v", st)
	}
}

func TestRefineVolumeConserved(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	want := a.TotalActiveVolume()
	a.BuildEdgeElems()
	for _, id := range a.ElemEdges[3] {
		a.MarkEdge(id)
	}
	a.Propagate()
	a.Refine()
	got := a.TotalActiveVolume()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("volume %v -> %v", want, got)
	}
}

func TestRefineSingleEdge12(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	a.BuildEdgeElems()
	// Mark one edge; propagation keeps 1:2 patterns on its sharers (a
	// single marked edge is a valid pattern).
	id := a.ElemEdges[0][0]
	nshare := len(a.EdgeElems[id])
	before := a.ActiveCounts()
	a.MarkEdge(id)
	newly := a.Propagate()
	if len(newly) != 0 {
		t.Errorf("single-edge mark propagated %d extra edges", len(newly))
	}
	st := a.Refine()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.ElemsSubdivided != nshare {
		t.Errorf("subdivided %d elements, want %d (sharers of edge)", st.ElemsSubdivided, nshare)
	}
	after := a.ActiveCounts()
	// Each sharer becomes 2 children: net +nshare elements; one new vertex.
	if after.Elems != before.Elems+nshare {
		t.Errorf("elems %d -> %d, want +%d", before.Elems, after.Elems, nshare)
	}
	if after.Verts != before.Verts+1 {
		t.Errorf("verts %d -> %d, want +1", before.Verts, after.Verts)
	}
}

func TestRefineFullMeshOneLevel(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	before := a.ActiveCounts()
	a.BuildEdgeElems()
	for _, id := range a.activeLeafEdges() {
		a.MarkEdge(id)
	}
	a.Propagate()
	a.Refine()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := a.ActiveCounts()
	if after.Elems != 8*before.Elems {
		t.Errorf("full refinement: %d -> %d elems, want 8x", before.Elems, after.Elems)
	}
	if after.BFaces != 4*before.BFaces {
		t.Errorf("full refinement: %d -> %d bfaces, want 4x", before.BFaces, after.BFaces)
	}
}

func TestPropagationProducesValidPatterns(t *testing.T) {
	a := newBoxAdapt(t, 3, 3, 3)
	a.BuildEdgeElems()
	// Mark an adversarial scatter of edges.
	for id := 0; id < len(a.EdgeV); id += 7 {
		a.MarkEdge(int32(id))
	}
	a.Propagate()
	for e := range a.ElemVerts {
		if !a.ElemActive(int32(e)) {
			continue
		}
		if p := a.ElemPattern(int32(e)); !ValidPattern(p) {
			t.Fatalf("element %d pattern %06b invalid after propagation", e, p)
		}
	}
	a.Refine()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPredictRefineExact(t *testing.T) {
	a := newBoxAdapt(t, 3, 2, 2)
	a.BuildEdgeElems()
	for id := 0; id < len(a.EdgeV); id += 5 {
		a.MarkEdge(int32(id))
	}
	a.Propagate()
	pred := a.PredictRefine()
	a.Refine()
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := a.ActiveCounts()
	if int64(got.Elems) != pred.TotalActive {
		t.Errorf("prediction %d != actual %d active elements", pred.TotalActive, got.Elems)
	}
	wcomp, _ := a.RootWeights()
	for r, w := range wcomp {
		if w != pred.LeavesPerRoot[r] {
			t.Errorf("root %d predicted %d leaves, got %d", r, pred.LeavesPerRoot[r], w)
		}
	}
}

func TestRootWeights(t *testing.T) {
	a := newBoxAdapt(t, 1, 1, 1)
	wc, wr := a.RootWeights()
	for r := range wc {
		if wc[r] != 1 || wr[r] != 1 {
			t.Fatalf("initial weights root %d = (%d,%d), want (1,1)", r, wc[r], wr[r])
		}
	}
	// Isotropically refine element 0 only.
	a.BuildEdgeElems()
	for _, id := range a.ElemEdges[0] {
		a.MarkEdge(id)
	}
	a.Propagate()
	a.Refine()
	wc, wr = a.RootWeights()
	if wc[0] != 8 || wr[0] != 9 {
		t.Errorf("refined root 0 weights (%d,%d), want (8,9)", wc[0], wr[0])
	}
	var totalLeaves int64
	for _, w := range wc {
		totalLeaves += w
	}
	if int(totalLeaves) != a.ActiveCounts().Elems {
		t.Errorf("sum of wcomp %d != active elems %d", totalLeaves, a.ActiveCounts().Elems)
	}
}

func TestTwoLevelRefinement(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	for level := 0; level < 2; level++ {
		a.BuildEdgeElems()
		ind := SphericalIndicator(mesh.Vec3{1, 1, 1}, 0.8, 0.4)
		err := a.EdgeErrorGeometric(ind)
		a.MarkTopFraction(err, 0.2)
		a.Propagate()
		a.Refine()
		if e := a.CheckInvariants(); e != nil {
			t.Fatalf("level %d: %v", level, e)
		}
	}
	if a.ActiveCounts().Elems <= 48 {
		t.Error("two-level refinement did not grow the mesh")
	}
}

func TestSolutionInterpolation(t *testing.T) {
	m := mesh.Box(1, 1, 1, 1, 1, 1)
	a := FromMesh(m, 1)
	// Linear field u = x + 2y + 3z is reproduced exactly by midpoint
	// interpolation.
	for v := range a.Coords {
		c := a.Coords[v]
		a.Sol[v] = c[0] + 2*c[1] + 3*c[2]
	}
	a.BuildEdgeElems()
	for _, id := range a.activeLeafEdges() {
		a.MarkEdge(id)
	}
	a.Propagate()
	a.Refine()
	for v := range a.Coords {
		if !a.VertAlive[v] {
			continue
		}
		c := a.Coords[v]
		want := c[0] + 2*c[1] + 3*c[2]
		if math.Abs(a.Sol[v]-want) > 1e-12 {
			t.Fatalf("vertex %d sol %v, want %v", v, a.Sol[v], want)
		}
	}
}

func TestCoarsenRoundTrip(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	before := a.ActiveCounts()
	// Refine everything one level.
	a.BuildEdgeElems()
	for _, id := range a.activeLeafEdges() {
		a.MarkEdge(id)
	}
	a.Propagate()
	a.Refine()
	mid := a.ActiveCounts()
	if mid.Elems != 8*before.Elems {
		t.Fatalf("refine: %d elems, want %d", mid.Elems, 8*before.Elems)
	}
	// Coarsen everything: target every leaf edge.
	coarsen := make([]bool, len(a.EdgeV))
	for _, id := range a.activeLeafEdges() {
		coarsen[id] = true
	}
	st := a.Coarsen(coarsen)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := a.ActiveCounts()
	if after != before {
		t.Errorf("coarsen did not restore initial mesh: %+v -> %+v -> %+v (stats %+v)",
			before, mid, after, st)
	}
}

func TestCoarsenRespectsInitialMesh(t *testing.T) {
	a := newBoxAdapt(t, 1, 1, 1)
	before := a.ActiveCounts()
	// Coarsening an unrefined mesh must be a no-op: edges cannot be
	// coarsened beyond the initial mesh.
	coarsen := make([]bool, len(a.EdgeV))
	for i := range coarsen {
		coarsen[i] = true
	}
	st := a.Coarsen(coarsen)
	if st.FamiliesCollapsed != 0 || st.ElemsRemoved != 0 {
		t.Errorf("coarsening initial mesh did something: %+v", st)
	}
	if a.ActiveCounts() != before {
		t.Errorf("counts changed: %+v", a.ActiveCounts())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenSiblingConstraint(t *testing.T) {
	a := newBoxAdapt(t, 1, 1, 1)
	a.BuildEdgeElems()
	for _, id := range a.activeLeafEdges() {
		a.MarkEdge(id)
	}
	a.Propagate()
	a.Refine()
	mid := a.ActiveCounts()
	// Target exactly one child half of one bisected edge: the sibling
	// constraint must block all coarsening.
	var half int32 = -1
	for id := range a.EdgeV {
		if a.EdgeAlive[id] && !a.EdgeLeaf(int32(id)) {
			half = a.EdgeChild[id][0]
			break
		}
	}
	if half < 0 {
		t.Fatal("no bisected edge found")
	}
	coarsen := make([]bool, len(a.EdgeV))
	coarsen[half] = true
	st := a.Coarsen(coarsen)
	if st.FamiliesCollapsed != 0 {
		t.Errorf("sibling constraint violated: %+v", st)
	}
	if a.ActiveCounts() != mid {
		t.Errorf("mesh changed: %+v -> %+v", mid, a.ActiveCounts())
	}
}

func TestCoarsenPartial(t *testing.T) {
	// Refine a localized region two levels, then coarsen the finest
	// level; the mesh must stay valid and shrink.
	a := newBoxAdapt(t, 2, 2, 2)
	ind := SphericalIndicator(mesh.Vec3{0.5, 0.5, 0.5}, 0.5, 0.5)
	for level := 0; level < 2; level++ {
		a.BuildEdgeElems()
		err := a.EdgeErrorGeometric(ind)
		a.MarkTopFraction(err, 0.3)
		a.Propagate()
		a.Refine()
		if e := a.CheckInvariants(); e != nil {
			t.Fatalf("refine level %d: %v", level, e)
		}
	}
	peak := a.ActiveCounts()
	// The shock moves away: error at the previously refined region drops,
	// so it is targeted for coarsening (the unsteady-flow scenario the
	// paper's framework is built for).
	moved := SphericalIndicator(mesh.Vec3{1.7, 1.7, 1.7}, 0.2, 0.2)
	errv := a.EdgeErrorGeometric(moved)
	coarsen := a.TargetCoarsenEdges(errv, 0.5)
	a.Coarsen(coarsen)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := a.ActiveCounts()
	if after.Elems >= peak.Elems {
		t.Errorf("coarsening did not shrink: %d -> %d", peak.Elems, after.Elems)
	}
	if math.Abs(a.TotalActiveVolume()-8.0) > 1e-9 {
		t.Errorf("volume not conserved: %v", a.TotalActiveVolume())
	}
}

func TestMarkTopFraction(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	errv := make([]float64, len(a.EdgeV))
	for i := range errv {
		errv[i] = float64(i)
	}
	n := a.MarkTopFraction(errv, 0.25)
	wantN := int(0.25*float64(len(a.activeLeafEdges())) + 0.5)
	if n != wantN {
		t.Errorf("marked %d, want %d", n, wantN)
	}
	marked := a.MarkedEdges()
	if len(marked) != n {
		t.Errorf("MarkedEdges returned %d, want %d", len(marked), n)
	}
	// The marked edges must be the top-n by error (here: largest ids).
	min := int32(len(a.EdgeV) - n)
	for _, id := range marked {
		if id < min {
			t.Errorf("edge %d marked but not in top fraction", id)
		}
	}
}

func TestMidpointGIDDeterministic(t *testing.T) {
	prop := func(a, b uint64) bool {
		return MidpointGID(a, b) == MidpointGID(b, a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if MidpointGID(1, 2) == MidpointGID(1, 3) {
		t.Error("distinct edges hash equal")
	}
}

func TestChildTetsVolumeProperty(t *testing.T) {
	// For every valid pattern, the child tets partition the parent.
	m := mesh.Box(1, 1, 1, 1, 1, 1)
	for _, pat := range []uint8{1 << 0, 1 << 3, 1 << 5, faceMasks[0], faceMasks[2], FullPattern} {
		a := FromMesh(m, 0)
		a.BuildEdgeElems()
		for le := 0; le < 6; le++ {
			if pat&(1<<uint(le)) != 0 {
				a.MarkEdge(a.ElemEdges[2][le])
			}
		}
		a.Propagate()
		a.Refine()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("pattern %06b: %v", pat, err)
		}
		if math.Abs(a.TotalActiveVolume()-1.0) > 1e-9 {
			t.Errorf("pattern %06b: volume %v", pat, a.TotalActiveVolume())
		}
	}
}

func TestRefineQuickCheckRandomMarks(t *testing.T) {
	// Property: any random set of marked edges, after propagation and
	// refinement, yields a valid conforming mesh with conserved volume.
	prop := func(seeds []uint16) bool {
		a := FromMesh(mesh.Box(2, 2, 1, 2, 2, 1), 0)
		a.BuildEdgeElems()
		leaf := a.activeLeafEdges()
		for _, s := range seeds {
			a.MarkEdge(leaf[int(s)%len(leaf)])
		}
		a.Propagate()
		a.Refine()
		if err := a.CheckInvariants(); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		return math.Abs(a.TotalActiveVolume()-4.0) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestActiveLeafEdgesSorted(t *testing.T) {
	a := newBoxAdapt(t, 2, 2, 2)
	edges := a.activeLeafEdges()
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatal("activeLeafEdges not strictly ascending")
		}
	}
}

// TestBuildEdgeElemsFlat: the incidence is three allocations per build
// on the initial and on an adapted mesh, and equals, order included, the
// per-edge append construction it replaced.  Every list is capacity-
// capped, so appending to one cannot overwrite the next.
func TestBuildEdgeElemsFlat(t *testing.T) {
	check := func(stage string, a *Mesh) {
		t.Helper()
		if n := testing.AllocsPerRun(5, a.BuildEdgeElems); n > 3 {
			t.Errorf("%s: BuildEdgeElems made %.0f allocations, want at most 3", stage, n)
		}
		want := make([][]int32, len(a.EdgeV))
		for e := range a.ElemVerts {
			if a.ElemActive(int32(e)) {
				for _, id := range a.ElemEdges[e] {
					want[id] = append(want[id], int32(e))
				}
			}
		}
		if !reflect.DeepEqual(a.EdgeElems, want) {
			t.Fatalf("%s: incidence differs from the per-edge append reference", stage)
		}
		for id, l := range a.EdgeElems {
			if cap(l) != len(l) {
				t.Fatalf("%s: edge %d list has cap %d > len %d", stage, id, cap(l), len(l))
			}
		}
	}
	check("initial", FromMesh(mesh.Box(3, 3, 3, 3, 3, 3), 1))
	check("adapted", adaptedBox())
}

// TestCheckInvariantsRejectsCorruptEdgeIndex: CheckInvariants rejects an
// edge index that misses an alive edge, reaches a dead one, or loops.
func TestCheckInvariantsRejectsCorruptEdgeIndex(t *testing.T) {
	if err := adaptedBox().CheckInvariants(); err != nil {
		t.Fatalf("uncorrupted mesh: %v", err)
	}
	// firstChain returns the lowest vertex with a non-empty chain.
	firstChain := func(m *Mesh) int32 {
		for v, id := range m.edgeHead {
			if id >= 0 {
				return int32(v)
			}
		}
		t.Fatal("edge index is empty")
		return -1
	}
	corruptions := map[string]func(m *Mesh){
		"drop alive edge": func(m *Mesh) {
			v := firstChain(m)
			m.edgeHead[v] = m.edgeNext[m.edgeHead[v]]
		},
		"link dead edge": func(m *Mesh) {
			for id, alive := range m.EdgeAlive {
				if !alive {
					lo := m.EdgeV[id][0]
					m.edgeNext[id], m.edgeHead[lo] = m.edgeHead[lo], int32(id)
					return
				}
			}
			t.Fatal("mesh has no dead edge")
		},
		"close cycle": func(m *Mesh) {
			head := m.edgeHead[firstChain(m)]
			tail := head
			for m.edgeNext[tail] >= 0 {
				tail = m.edgeNext[tail]
			}
			m.edgeNext[tail] = head
		},
	}
	for name, corrupt := range corruptions {
		m := adaptedBox()
		corrupt(m)
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants accepted the corrupt index", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestCheckInvariantsRejectsDeadVertexGID: the gid map holds alive
// vertices only, so CheckInvariants rejects a map that still names a
// vertex coarsening purged.
func TestCheckInvariantsRejectsDeadVertexGID(t *testing.T) {
	m := adaptedBox()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("uncorrupted mesh: %v", err)
	}
	for v, alive := range m.VertAlive {
		if !alive {
			m.gidVert[m.VertGID[v]] = int32(v)
			if err := m.CheckInvariants(); err == nil {
				t.Errorf("CheckInvariants accepted dead vertex %d in the gid map", v)
			} else {
				t.Logf("dead vertex %d planted: %v", v, err)
			}
			return
		}
	}
	t.Fatal("mesh has no dead vertex")
}
