package partition

import (
	"math/rand"
	"slices"
	"testing"

	"plum/internal/dual"
)

// refLocalMultilevelCoarsen is the slice-per-vertex, map-deduplicated
// local coarsening that localMultilevelCoarsen replaced.  It is kept as
// the reference the CSR version must match bit for bit.
func refLocalMultilevelCoarsen(g *dual.Graph, lo, hi, target int) (cmap []int32, work float64) {
	nloc := hi - lo
	cmap = make([]int32, nloc)
	for i := range cmap {
		cmap[i] = int32(i)
	}
	if nloc == 0 {
		return cmap, 0
	}
	type adj struct {
		nbr []int32
		wgt []int64
	}
	cur := make([]adj, nloc)
	for v := lo; v < hi; v++ {
		nbs := g.Neighbors(int32(v))
		wts := g.EdgeWeights(int32(v))
		for i, u := range nbs {
			if int(u) >= lo && int(u) < hi {
				cur[v-lo].nbr = append(cur[v-lo].nbr, u-int32(lo))
				cur[v-lo].wgt = append(cur[v-lo].wgt, wts[i])
			}
		}
	}
	ncur := nloc
	for ncur > target {
		match := make([]int32, ncur)
		for i := range match {
			match[i] = -1
		}
		for v := 0; v < ncur; v++ {
			work += float64(len(cur[v].nbr))
			if match[v] >= 0 {
				continue
			}
			best := int32(-1)
			var bestW int64 = -1
			for i, u := range cur[v].nbr {
				if match[u] >= 0 || u == int32(v) {
					continue
				}
				if cur[v].wgt[i] > bestW || (cur[v].wgt[i] == bestW && u < best) {
					best, bestW = u, cur[v].wgt[i]
				}
			}
			if best >= 0 {
				match[v] = best
				match[best] = int32(v)
			} else {
				match[v] = int32(v)
			}
		}
		lmap := make([]int32, ncur)
		for i := range lmap {
			lmap[i] = -1
		}
		var nc int32
		for v := 0; v < ncur; v++ {
			if lmap[v] >= 0 {
				continue
			}
			lmap[v] = nc
			if match[v] != int32(v) {
				lmap[match[v]] = nc
			}
			nc++
		}
		if float64(nc) > 0.85*float64(ncur) {
			break
		}
		next := make([]adj, nc)
		type ce struct{ a, b int32 }
		seen := make(map[ce]int, ncur)
		for v := 0; v < ncur; v++ {
			cv := lmap[v]
			for i, u := range cur[v].nbr {
				cu := lmap[u]
				if cu == cv {
					continue
				}
				key := ce{cv, cu}
				if idx, ok := seen[key]; ok {
					next[cv].wgt[idx] += cur[v].wgt[i]
				} else {
					seen[key] = len(next[cv].nbr)
					next[cv].nbr = append(next[cv].nbr, cu)
					next[cv].wgt = append(next[cv].wgt, cur[v].wgt[i])
				}
				work += 0.5
			}
		}
		for i := range cmap {
			cmap[i] = lmap[cmap[i]]
		}
		cur = next
		ncur = int(nc)
	}
	return cmap, work
}

// graphFromEdges builds a symmetric CSR graph with unit vertex weights
// from undirected edges (u, v, w); neighbour order is insertion order.
func graphFromEdges(n int, edges [][3]int64) *dual.Graph {
	nbr := make([][]int32, n)
	wgt := make([][]int64, n)
	for _, e := range edges {
		u, v := int32(e[0]), int32(e[1])
		nbr[u], wgt[u] = append(nbr[u], v), append(wgt[u], e[2])
		nbr[v], wgt[v] = append(nbr[v], u), append(wgt[v], e[2])
	}
	g := &dual.Graph{Xadj: make([]int32, 1, n+1), WComp: make([]int64, n), WRemap: make([]int64, n)}
	for v := 0; v < n; v++ {
		g.Adjncy = append(g.Adjncy, nbr[v]...)
		g.AdjWgt = append(g.AdjWgt, wgt[v]...)
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
		g.WComp[v], g.WRemap[v] = 1, 1
	}
	return g
}

// randomGraph returns a connected-ish random graph: a shuffled path plus
// extra random edges, weights in [1, maxW] (small maxW forces ties).
func randomGraph(rng *rand.Rand, n, extra int, maxW int64) *dual.Graph {
	type pair struct{ a, b int64 }
	seen := map[pair]bool{}
	var edges [][3]int64
	add := func(a, b int64) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return
		}
		seen[pair{a, b}] = true
		edges = append(edges, [3]int64{a, b, 1 + rng.Int63n(maxW)})
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(int64(perm[i-1]), int64(perm[i]))
	}
	for i := 0; i < extra; i++ {
		add(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
	}
	return graphFromEdges(n, edges)
}

// starGraph is a hub joined to n-1 leaves: strict matching absorbs one
// leaf per level, so coarsening stalls at the 0.85 reduction break.
func starGraph(n int) *dual.Graph {
	var edges [][3]int64
	for v := 1; v < n; v++ {
		edges = append(edges, [3]int64{0, int64(v), 1})
	}
	return graphFromEdges(n, edges)
}

func TestLocalCoarsenMatchesReference(t *testing.T) {
	type tc struct {
		name           string
		g              *dual.Graph
		lo, hi, target int
	}
	box := boxGraph(6, 6, 6)
	weighted := boxGraph(5, 5, 5)
	rng := rand.New(rand.NewSource(7))
	for v := int32(0); v < int32(weighted.NumVerts()); v++ {
		for i, u := range weighted.Neighbors(v) {
			if u > v {
				w := 1 + rng.Int63n(4)
				weighted.EdgeWeights(v)[i] = w
				for j, x := range weighted.Neighbors(u) {
					if x == v {
						weighted.EdgeWeights(u)[j] = w
					}
				}
			}
		}
	}
	cases := []tc{
		{"box whole", box, 0, box.NumVerts(), 32},
		{"box middle block", box, 300, 700, 32},
		{"box target above block", box, 10, 40, 32},
		{"weighted box block", weighted, 100, 600, 16},
		{"empty block", box, 50, 50, 32},
		{"single vertex", box, 50, 51, 0},
		{"stalled star", starGraph(200), 0, 200, 4},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		g := randomGraph(rng, n, rng.Intn(3*n), 1+rng.Int63n(5))
		lo := rng.Intn(n / 2)
		hi := lo + rng.Intn(n-lo) + 1
		cases = append(cases, tc{"random", g, lo, hi, rng.Intn(40)})
	}
	stalled := false
	for _, c := range cases {
		want, wantWork := refLocalMultilevelCoarsen(c.g, c.lo, c.hi, c.target)
		got, gotWork := localMultilevelCoarsen(c.g, c.lo, c.hi, c.target)
		if !slices.Equal(got, want) || gotWork != wantWork {
			t.Errorf("%s [%d,%d) target %d: work %v cmap %v, reference work %v cmap %v",
				c.name, c.lo, c.hi, c.target, gotWork, got, wantWork, want)
		}
		if c.name == "stalled star" {
			nc := int(slices.Max(want)) + 1
			stalled = nc > c.target && wantWork > 0
		}
	}
	if !stalled {
		t.Error("the star case did not stop at the reduction break")
	}
}

// TestLocalCoarsenAllocsFlat: the CSR levels are allocated once per call
// at the block's size, so an 8k-vertex block allocates no more often
// than a 1k-vertex block.
func TestLocalCoarsenAllocsFlat(t *testing.T) {
	g := boxGraph(12, 12, 12) // 10,368 vertices
	allocs := func(hi int) float64 {
		return testing.AllocsPerRun(5, func() { localMultilevelCoarsen(g, 0, hi, 32) })
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("allocations per call: %v at 1k vertices, %v at 8k", small, large)
	if large > small {
		t.Errorf("coarsening an 8k block makes %v allocations, a 1k block %v: they must not grow with the block", large, small)
	}
}
