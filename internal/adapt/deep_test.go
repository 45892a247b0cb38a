package adapt

import (
	"math"
	"testing"

	"plum/internal/mesh"
)

// TestThreeLevelLocalizedRefinement drives three successive refinements
// concentrated at a corner, producing steep level gradients (1:2/1:4
// "green" elements buffering the isotropic region at every level).
func TestThreeLevelLocalizedRefinement(t *testing.T) {
	a := FromMesh(mesh.Box(2, 2, 2, 1, 1, 1), 0)
	ind := SphericalIndicator(mesh.Vec3{0, 0, 0}, 0.3, 0.25)
	prev := a.ActiveCounts().Elems
	for level := 0; level < 3; level++ {
		a.BuildEdgeElems()
		errv := a.EdgeErrorGeometric(ind)
		a.MarkTopFraction(errv, 0.15)
		a.Propagate()
		a.Refine()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		cur := a.ActiveCounts().Elems
		if cur <= prev {
			t.Fatalf("level %d: no growth (%d)", level, cur)
		}
		prev = cur
	}
	if math.Abs(a.TotalActiveVolume()-1.0) > 1e-9 {
		t.Errorf("volume %v after 3 levels", a.TotalActiveVolume())
	}
	// Subdivision arity distribution: deep local refinement must have
	// produced green (1:2 or 1:4) elements as buffers, not only 1:8.
	counts := map[int]int{}
	for e := range a.ElemVerts {
		if m := a.ElemChild[e]; a.ElemAlive[e] && m != nil {
			counts[len(m)]++
		}
	}
	if counts[8] == 0 {
		t.Error("no isotropic subdivisions at all")
	}
	if counts[2] == 0 && counts[4] == 0 {
		t.Error("no green (1:2/1:4) buffer elements — propagation suspicious")
	}
}

// TestAnisotropicChain: repeatedly bisecting the same single edge family
// exercises 1:2 children of 1:2 children (the anisotropic capability the
// edge data structure exists for).
func TestAnisotropicChain(t *testing.T) {
	a := FromMesh(mesh.Box(1, 1, 1, 1, 1, 1), 0)
	for level := 0; level < 3; level++ {
		a.BuildEdgeElems()
		// Find the longest active leaf edge and bisect only it.
		best, bl := int32(-1), -1.0
		for _, id := range a.activeLeafEdges() {
			v := a.EdgeV[id]
			l := a.Coords[v[0]].Sub(a.Coords[v[1]]).Norm()
			if l > bl {
				best, bl = id, l
			}
		}
		a.MarkEdge(best)
		a.Propagate()
		a.Refine()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
	if math.Abs(a.TotalActiveVolume()-1.0) > 1e-9 {
		t.Errorf("volume %v", a.TotalActiveVolume())
	}
}

// TestRefineCoarsenOscillation alternates refinement and full coarsening
// several times: storage may grow (dead slots) but the active mesh must
// return to the initial one every time.
func TestRefineCoarsenOscillation(t *testing.T) {
	a := FromMesh(mesh.Box(2, 2, 1, 2, 2, 1), 0)
	initial := a.ActiveCounts()
	for round := 0; round < 3; round++ {
		a.BuildEdgeElems()
		for _, id := range a.activeLeafEdges() {
			a.MarkEdge(id)
		}
		a.Propagate()
		a.Refine()
		coarsen := make([]bool, len(a.EdgeV))
		for _, id := range a.activeLeafEdges() {
			coarsen[id] = true
		}
		a.Coarsen(coarsen)
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := a.ActiveCounts(); got != initial {
			t.Fatalf("round %d: counts %+v != initial %+v", round, got, initial)
		}
	}
}
