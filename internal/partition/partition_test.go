package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
)

func boxGraph(nx, ny, nz int) *dual.Graph {
	return dual.FromMesh(mesh.Box(nx, ny, nz, float64(nx), float64(ny), float64(nz)))
}

func checkPartition(t *testing.T, g *dual.Graph, part []int32, k int, tol float64) {
	t.Helper()
	if len(part) != g.NumVerts() {
		t.Fatalf("partition length %d != %d", len(part), g.NumVerts())
	}
	for v, p := range part {
		if p < 0 || int(p) >= k {
			t.Fatalf("vertex %d assigned to invalid part %d", v, p)
		}
	}
	if imb := Imbalance(g, part, k); imb > tol {
		t.Errorf("imbalance %.3f exceeds tolerance %.3f", imb, tol)
	}
}

func TestPartitionBalanced(t *testing.T) {
	g := boxGraph(6, 6, 6) // 1296 vertices
	for _, k := range []int{2, 4, 8, 16} {
		part := Partition(g, k, Options{})
		checkPartition(t, g, part, k, 1.10)
	}
}

func TestPartitionCutBeatsRandom(t *testing.T) {
	g := boxGraph(6, 6, 6)
	k := 8
	part := Partition(g, k, Options{})
	cut := EdgeCut(g, part)
	// Striped assignment as a baseline.
	striped := make([]int32, g.NumVerts())
	for v := range striped {
		striped[v] = int32(v % k)
	}
	stripedCut := EdgeCut(g, striped)
	if cut >= stripedCut {
		t.Errorf("multilevel cut %d not better than striped %d", cut, stripedCut)
	}
}

func TestPartitionK1(t *testing.T) {
	g := boxGraph(2, 2, 2)
	part := Partition(g, 1, Options{})
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
}

func TestPartitionWeighted(t *testing.T) {
	g := boxGraph(4, 4, 4)
	// Heavily skewed weights: one corner region 10x heavier.
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		if v < g.NumVerts()/8 {
			wc[v] = 10
		} else {
			wc[v] = 1
		}
		wr[v] = wc[v]
	}
	g.SetWeights(wc, wr)
	part := Partition(g, 4, Options{})
	checkPartition(t, g, part, 4, 1.15)
}

func TestRepartitionStaysClose(t *testing.T) {
	g := boxGraph(5, 5, 5)
	k := 8
	part := Partition(g, k, Options{})
	// Perturb the weights moderately (simulating adaption).
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		wc[v] = 1
		if part[v] == 0 {
			wc[v] = 3 // part 0's region became heavier
		}
		wr[v] = wc[v]
	}
	g.SetWeights(wc, wr)
	reseeded := Repartition(g, k, part, Options{})
	checkPartition(t, g, reseeded, k, 1.12)
	scratch := Partition(g, k, Options{})
	checkPartition(t, g, scratch, k, 1.12)
	// The repartition must keep more vertices in place than a scratch
	// partition does (the parallel-MeTiS remapping-cost advantage).
	same := func(a []int32) int {
		n := 0
		for v := range a {
			if a[v] == part[v] {
				n++
			}
		}
		return n
	}
	if same(reseeded) <= same(scratch) {
		t.Errorf("repartition kept %d vertices, scratch kept %d — seeding gives no benefit",
			same(reseeded), same(scratch))
	}
	if same(reseeded) < g.NumVerts()/2 {
		t.Errorf("repartition moved more than half the mesh (%d/%d kept)", same(reseeded), g.NumVerts())
	}
}

func TestRepartitionFixesImbalance(t *testing.T) {
	g := boxGraph(5, 5, 5)
	k := 4
	part := Partition(g, k, Options{})
	// Make part 2's region extremely heavy.
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		wc[v] = 1
		if part[v] == 2 {
			wc[v] = 8
		}
		wr[v] = 1
	}
	g.SetWeights(wc, wr)
	if Imbalance(g, part, k) < 1.5 {
		t.Skip("perturbation did not create imbalance")
	}
	newPart := Repartition(g, k, part, Options{})
	checkPartition(t, g, newPart, k, 1.12)
}

func TestEdgeCutSymmetricAndExact(t *testing.T) {
	g := boxGraph(2, 2, 2)
	part := make([]int32, g.NumVerts())
	for v := range part {
		part[v] = int32(v % 2)
	}
	cut := EdgeCut(g, part)
	// Brute-force count.
	var want int64
	for v := int32(0); v < int32(g.NumVerts()); v++ {
		wts := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if u > v && part[u] != part[v] {
				want += wts[i]
			}
		}
	}
	if cut != want {
		t.Errorf("EdgeCut = %d, want %d", cut, want)
	}
}

func TestImbalancePerfect(t *testing.T) {
	g := boxGraph(2, 2, 1) // 24 elements
	part := make([]int32, g.NumVerts())
	for v := range part {
		part[v] = int32(v / 6) // 4 parts of 6
	}
	if imb := Imbalance(g, part, 4); imb != 1.0 {
		t.Errorf("perfect split imbalance = %v", imb)
	}
}

func TestHeavyEdgeMatchingValid(t *testing.T) {
	g := boxGraph(3, 3, 3)
	cmap := make([]int32, g.NumVerts())
	nc := heavyEdgeMatching(g, make([]int32, g.NumVerts()), cmap)
	if nc >= g.NumVerts() {
		t.Fatalf("matching made no progress: %d -> %d", g.NumVerts(), nc)
	}
	// Each coarse vertex has 1 or 2 fine constituents, and pairs are
	// adjacent.
	groups := make(map[int32][]int32)
	for v, cv := range cmap {
		groups[cv] = append(groups[cv], int32(v))
	}
	if len(groups) != nc {
		t.Fatalf("cmap uses %d ids, nc=%d", len(groups), nc)
	}
	for cv, vs := range groups {
		if len(vs) > 2 {
			t.Fatalf("coarse vertex %d has %d constituents", cv, len(vs))
		}
		if len(vs) == 2 {
			adjacent := false
			for _, u := range g.Neighbors(vs[0]) {
				if u == vs[1] {
					adjacent = true
				}
			}
			if !adjacent {
				t.Fatalf("matched pair %v not adjacent", vs)
			}
		}
	}
}

func TestGreedyGrowCoversAllParts(t *testing.T) {
	g := boxGraph(4, 4, 4)
	for _, k := range []int{2, 3, 7} {
		part := greedyGrow(g, k, nil)
		seen := make(map[int32]bool)
		for _, p := range part {
			seen[p] = true
		}
		if len(seen) != k {
			t.Errorf("k=%d: only %d parts used", k, len(seen))
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := boxGraph(4, 4, 4)
	a := Partition(g, 8, Options{})
	b := Partition(g, 8, Options{})
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("Partition is not deterministic")
		}
	}
}

func TestPartitionPropertyRandomWeights(t *testing.T) {
	prop := func(seeds []uint8) bool {
		g := boxGraph(3, 3, 3)
		wc := make([]int64, g.NumVerts())
		wr := make([]int64, g.NumVerts())
		for v := range wc {
			wc[v] = 1
			wr[v] = 1
		}
		for i, s := range seeds {
			if i >= len(wc) {
				break
			}
			wc[i] = int64(s%16) + 1
		}
		g.SetWeights(wc, wr)
		part := Partition(g, 6, Options{})
		for _, p := range part {
			if p < 0 || p >= 6 {
				return false
			}
		}
		return Imbalance(g, part, 6) < 1.5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestParallelRepartitionMatchesConstraints(t *testing.T) {
	g := boxGraph(4, 4, 4)
	for _, p := range []int{1, 2, 4, 8} {
		var result []int32
		msg.Run(p, func(c *msg.Comm) {
			res := ParallelRepartition(c, g, 8, nil, Options{})
			if c.Rank() == 0 {
				result = res.Part
			}
			// All ranks must agree.
			h := int64(0)
			for _, x := range res.Part {
				h = h*31 + int64(x)
			}
			if c.AllreduceInt64(h, msg.MaxInt64) != c.AllreduceInt64(h, func(a, b int64) int64 {
				if a < b {
					return a
				}
				return b
			}) {
				t.Errorf("p=%d: ranks disagree on the partition", p)
			}
		})
		checkPartition(t, g, result, 8, 1.15)
	}
}

func TestParallelRepartitionSeeded(t *testing.T) {
	g := boxGraph(4, 4, 4)
	prev := Partition(g, 4, Options{})
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		wc[v] = 1
		if prev[v] == 1 {
			wc[v] = 4
		}
		wr[v] = 1
	}
	g.SetWeights(wc, wr)
	var part []int32
	msg.Run(4, func(c *msg.Comm) {
		res := ParallelRepartition(c, g, 4, prev, Options{})
		if c.Rank() == 0 {
			part = res.Part
		}
	})
	checkPartition(t, g, part, 4, 1.2)
	kept := 0
	for v := range part {
		if part[v] == prev[v] {
			kept++
		}
	}
	if kept < g.NumVerts()/3 {
		t.Errorf("seeded parallel repartition kept only %d/%d vertices", kept, g.NumVerts())
	}
}

func TestBlockRange(t *testing.T) {
	n, p := 103, 8
	covered := 0
	for r := 0; r < p; r++ {
		lo, hi := blockRange(n, p, r)
		covered += hi - lo
		if lo > hi {
			t.Fatalf("rank %d: lo %d > hi %d", r, lo, hi)
		}
	}
	if covered != n {
		t.Errorf("blocks cover %d vertices, want %d", covered, n)
	}
}
