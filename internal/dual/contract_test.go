package dual

import (
	"math/rand"
	"slices"
	"testing"

	"plum/internal/mesh"
)

// refContract is the map-based contraction that Contract replaced: one
// map sums parallel edge weights, a second emits each coarse edge at its
// first occurrence while fine vertices are walked in ascending id.  It
// is kept as the reference Contract must match array for array.
func refContract(g *Graph, cmap []int32, nc int) *Graph {
	cg := &Graph{
		Xadj:   make([]int32, nc+1),
		WComp:  make([]int64, nc),
		WRemap: make([]int64, nc),
	}
	type edge struct {
		u, v int32
	}
	wmap := make(map[edge]int64)
	for v := int32(0); v < int32(len(cmap)); v++ {
		cv := cmap[v]
		cg.WComp[cv] += g.WComp[v]
		cg.WRemap[cv] += g.WRemap[v]
		wts := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if cu := cmap[u]; cu != cv {
				wmap[edge{cv, cu}] += wts[i]
			}
		}
	}
	deg := make([]int32, nc)
	for e := range wmap {
		deg[e.u]++
	}
	for c := 0; c < nc; c++ {
		cg.Xadj[c+1] = cg.Xadj[c] + deg[c]
	}
	cg.Adjncy = make([]int32, cg.Xadj[nc])
	cg.AdjWgt = make([]int64, cg.Xadj[nc])
	pos := slices.Clone(cg.Xadj[:nc])
	seen := make(map[edge]bool, len(wmap))
	for v := int32(0); v < int32(len(cmap)); v++ {
		cv := cmap[v]
		for _, u := range g.Neighbors(v) {
			cu := cmap[u]
			e := edge{cv, cu}
			if cu == cv || seen[e] {
				continue
			}
			seen[e] = true
			cg.Adjncy[pos[cv]] = cu
			cg.AdjWgt[pos[cv]] = wmap[e]
			pos[cv]++
		}
	}
	return cg
}

// weighted gives g random symmetric edge weights in [1,5] and random
// vertex weights, so the contraction's sums are exercised.
func weighted(g *Graph, rng *rand.Rand) *Graph {
	for v := int32(0); v < int32(g.NumVerts()); v++ {
		g.WComp[v], g.WRemap[v] = 1+rng.Int63n(9), 1+rng.Int63n(20)
		for i, u := range g.Neighbors(v) {
			if u > v {
				w := 1 + rng.Int63n(5)
				g.EdgeWeights(v)[i] = w
				g.EdgeWeights(u)[slices.Index(g.Neighbors(u), v)] = w
			}
		}
	}
	return g
}

// TestContractMatchesReference: on the harness's reduced and
// paper-scale duals, for random cluster maps and for Agglomerate's
// clusters, Contract returns the reference's arrays exactly, whether it
// allocates the coarse graph or reuses a buffer holding a previous,
// larger contraction.
func TestContractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"reduced", weighted(FromMesh(mesh.Box(12, 9, 6, 4.7, 1.8, 1.2)), rng)},
		{"paper", weighted(FromMesh(mesh.PaperScaleBox()), rng)},
	}
	same := func(name string, got, want *Graph) {
		t.Helper()
		if !slices.Equal(got.Xadj, want.Xadj) || !slices.Equal(got.Adjncy, want.Adjncy) ||
			!slices.Equal(got.AdjWgt, want.AdjWgt) || !slices.Equal(got.WComp, want.WComp) ||
			!slices.Equal(got.WRemap, want.WRemap) {
			t.Errorf("%s: contraction differs from the reference", name)
		}
	}
	for _, gr := range graphs {
		g, n := gr.g, gr.g.NumVerts()
		var into Graph
		check := func(name string, cmap []int32, nc int) {
			t.Helper()
			want := refContract(g, cmap, nc)
			var folded int
			for v := int32(0); v < int32(n); v++ {
				for _, u := range g.Neighbors(v) {
					if cmap[u] != cmap[v] {
						folded++
					}
				}
			}
			got, gotFolded := Contract(g, cmap, nc, nil)
			same(gr.name+" "+name, got, want)
			if gotFolded != folded {
				t.Errorf("%s %s: %d entries folded, want %d", gr.name, name, gotFolded, folded)
			}
			reused, _ := Contract(g, cmap, nc, &into)
			same(gr.name+" "+name+" into a reused buffer", reused, want)
		}
		for _, nc := range []int{n / 2, n / 7, 64, 1} {
			cmap := make([]int32, n)
			for v := range cmap {
				cmap[v] = int32(rng.Intn(nc))
			}
			check("random cmap", cmap, nc)
		}
		for _, size := range []int{2, 5, 16} {
			cg, cmap := Agglomerate(g, size)
			nc := cg.NumVerts()
			same(gr.name+" Agglomerate", cg, refContract(g, cmap, nc))
			check("Agglomerate clusters", cmap, nc)
		}
	}
}
