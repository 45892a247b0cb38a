package partition

import (
	"testing"

	"plum/internal/dual"
)

// pathGraph builds a weighted path 0-1-2-...-(n-1).
func pathGraph(n int, vw []int64) *dual.Graph {
	g := &dual.Graph{
		Xadj:   make([]int32, n+1),
		WComp:  make([]int64, n),
		WRemap: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		deg := 2
		if v == 0 || v == n-1 {
			deg = 1
		}
		g.Xadj[v+1] = g.Xadj[v] + int32(deg)
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	g.AdjWgt = make([]int64, g.Xadj[n])
	pos := 0
	for v := 0; v < n; v++ {
		if v > 0 {
			g.Adjncy[pos] = int32(v - 1)
			g.AdjWgt[pos] = 1
			pos++
		}
		if v < n-1 {
			g.Adjncy[pos] = int32(v + 1)
			g.AdjWgt[pos] = 1
			pos++
		}
		g.WComp[v] = 1
		g.WRemap[v] = 1
	}
	if vw != nil {
		copy(g.WComp, vw)
	}
	return g
}

func TestRebalanceFixesGrossImbalance(t *testing.T) {
	g := pathGraph(16, nil)
	// Everything on part 0.
	part := make([]int32, 16)
	if Imbalance(g, part, 4) < 3.9 {
		t.Fatal("setup not imbalanced")
	}
	rebalance(g, part, 4, Options{})
	if imb := Imbalance(g, part, 4); imb > 1.3 {
		t.Errorf("rebalance left imbalance %.2f", imb)
	}
}

func TestRefineImprovesCutOnPath(t *testing.T) {
	g := pathGraph(16, nil)
	// Interleaved assignment: worst possible cut (15).
	part := make([]int32, 16)
	for v := range part {
		part[v] = int32(v % 2)
	}
	before := EdgeCut(g, part)
	refine(g, part, 2, Options{})
	after := EdgeCut(g, part)
	if after >= before {
		t.Errorf("refinement did not improve cut: %d -> %d", before, after)
	}
	if imb := Imbalance(g, part, 2); imb > 1.2 {
		t.Errorf("refinement broke balance: %.2f", imb)
	}
}

func TestRefineRespectsBalanceBound(t *testing.T) {
	// A path where all the cut gain is in making one part huge; the
	// balance constraint must prevent it.
	g := pathGraph(8, nil)
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	refine(g, part, 2, Options{})
	if imb := Imbalance(g, part, 2); imb > 1.3 {
		t.Errorf("refine produced imbalance %.2f", imb)
	}
}

func TestConnectivity(t *testing.T) {
	g := pathGraph(4, nil)
	part := []int32{0, 0, 1, 1}
	parts, conn := connectivity(g, part, 1, []int32{7}, []int64{9})
	if parts[0] != 7 || conn[0] != 9 {
		t.Fatalf("connectivity clobbered the scratch prefix: %v %v", parts, conn)
	}
	parts, conn = parts[1:], conn[1:]
	// Vertex 1 neighbours: 0 (part 0), 2 (part 1).
	sum := map[int32]int64{}
	for i, p := range parts {
		sum[p] += conn[i]
	}
	if sum[0] != 1 || sum[1] != 1 {
		t.Errorf("connectivity = %v %v", parts, conn)
	}
}

func TestPartWeightsAndMax(t *testing.T) {
	g := pathGraph(6, []int64{5, 1, 1, 1, 1, 7})
	part := []int32{0, 0, 0, 1, 1, 1}
	w := PartWeights(g, part, 2)
	if w[0] != 7 || w[1] != 9 {
		t.Errorf("weights = %v", w)
	}
	if MaxPartWeight(g, part, 2) != 9 {
		t.Error("max weight wrong")
	}
}
