package dual

import (
	"fmt"

	"plum/internal/mesh"
)

// Graph is an undirected vertex- and edge-weighted graph in CSR form.
type Graph struct {
	Xadj   []int32 // offsets into Adjncy, len n+1
	Adjncy []int32 // concatenated neighbour lists
	AdjWgt []int64 // edge weights, parallel to Adjncy
	WComp  []int64 // computational weight per vertex
	WRemap []int64 // remapping weight per vertex

	scratch []int32 // Contract's workspace while this graph is its target
}

// NumVerts returns the number of graph vertices.
func (g *Graph) NumVerts() int { return len(g.Xadj) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adjncy) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns the adjacency slice of vertex v (do not modify).
func (g *Graph) Neighbors(v int32) []int32 { return g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] }

// EdgeWeights returns the edge-weight slice of vertex v, parallel to
// Neighbors(v).
func (g *Graph) EdgeWeights(v int32) []int64 { return g.AdjWgt[g.Xadj[v]:g.Xadj[v+1]] }

// TotalWComp returns the sum of computational weights.
func (g *Graph) TotalWComp() int64 {
	var t int64
	for _, w := range g.WComp {
		t += w
	}
	return t
}

// FromMesh builds the dual graph of a mesh via its face adjacency, with
// unit vertex and edge weights.
func FromMesh(m *mesh.Mesh) *Graph {
	adj := m.FaceAdjacency()
	n := len(adj)
	g := &Graph{
		Xadj:   make([]int32, n+1),
		WComp:  make([]int64, n),
		WRemap: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		for _, nb := range adj[v] {
			if nb >= 0 {
				g.Xadj[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] += g.Xadj[v]
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	g.AdjWgt = make([]int64, g.Xadj[n])
	pos := make([]int32, n)
	copy(pos, g.Xadj[:n])
	for v := 0; v < n; v++ {
		g.WComp[v] = 1
		g.WRemap[v] = 1
		for _, nb := range adj[v] {
			if nb >= 0 {
				g.Adjncy[pos[v]] = nb
				g.AdjWgt[pos[v]] = 1
				pos[v]++
			}
		}
	}
	return g
}

// SetWeights installs new per-root weights (from adapt.Mesh.RootWeights
// or a refinement prediction).  Slices must have NumVerts entries.
func (g *Graph) SetWeights(wcomp, wremap []int64) {
	if len(wcomp) != g.NumVerts() || len(wremap) != g.NumVerts() {
		panic(fmt.Sprintf("dual: weight lengths (%d,%d) != vertices %d", len(wcomp), len(wremap), g.NumVerts()))
	}
	copy(g.WComp, wcomp)
	copy(g.WRemap, wremap)
}

// WithWeights returns a view of g sharing its (immutable) topology but
// carrying its own weight arrays.  The PLUM drivers replicate one dual
// graph across ranks; per-rank weight views keep SetWeights race-free.
func (g *Graph) WithWeights(wcomp, wremap []int64) *Graph {
	ng := &Graph{Xadj: g.Xadj, Adjncy: g.Adjncy, AdjWgt: g.AdjWgt,
		WComp: make([]int64, g.NumVerts()), WRemap: make([]int64, g.NumVerts())}
	ng.SetWeights(wcomp, wremap)
	return ng
}

// Check validates CSR structure: symmetric adjacency with matching
// weights and no self-loops.
func (g *Graph) Check() error {
	n := g.NumVerts()
	if len(g.Adjncy) != len(g.AdjWgt) {
		return fmt.Errorf("dual: adjncy/adjwgt length mismatch")
	}
	for v := int32(0); v < int32(n); v++ {
		nbs := g.Neighbors(v)
		wts := g.EdgeWeights(v)
		for i, u := range nbs {
			if u == v {
				return fmt.Errorf("dual: self loop at %d", v)
			}
			if u < 0 || int(u) >= n {
				return fmt.Errorf("dual: vertex %d has out-of-range neighbour %d", v, u)
			}
			// find reverse edge
			found := false
			back := g.Neighbors(u)
			bwts := g.EdgeWeights(u)
			for j, w := range back {
				if w == v {
					if bwts[j] != wts[i] {
						return fmt.Errorf("dual: asymmetric edge weight %d-%d", v, u)
					}
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("dual: edge %d->%d has no reverse", v, u)
			}
		}
	}
	return nil
}

// Agglomerate groups vertices into clusters of roughly the given size
// (breadth-first, contiguous) and returns the coarse graph together with
// the fine-to-coarse map.  The paper suggests this for "extremely large
// initial meshes [where] the partitioning time will be excessive":
// superelements keep the dual graph tractable.
func Agglomerate(g *Graph, size int) (*Graph, []int32) {
	if size <= 1 {
		cmap := make([]int32, g.NumVerts())
		for i := range cmap {
			cmap[i] = int32(i)
		}
		return g, cmap
	}
	n := g.NumVerts()
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	queue := make([]int32, 0, size)
	for start := int32(0); start < int32(n); start++ {
		if cmap[start] >= 0 {
			continue
		}
		// Grow a cluster by BFS from start.
		queue = queue[:0]
		queue = append(queue, start)
		cmap[start] = nc
		count := 1
		for qi := 0; qi < len(queue) && count < size; qi++ {
			for _, nb := range g.Neighbors(queue[qi]) {
				if cmap[nb] < 0 {
					cmap[nb] = nc
					queue = append(queue, nb)
					count++
					if count >= size {
						break
					}
				}
			}
		}
		nc++
	}
	cg, _ := Contract(g, cmap, int(nc), nil)
	return cg, cmap
}

// Contract builds the coarse graph induced by cmap, which maps each of
// g's vertices to one of nc coarse vertices: vertex weights and parallel
// edge weights are summed and self-loops dropped.  Coarse vertex cv's
// row is built from its fine members in ascending id (a counting sort by
// cmap), listing each coarse neighbour where it first occurs; parallel
// edges merge there through a per-coarse-vertex slot array, so no hash
// table is needed.  It returns the coarse graph and the number of fine
// adjacency entries folded into it (those joining two different coarse
// vertices).
//
// into, when non-nil, receives the coarse graph, its slices reused where
// their capacity allows: a caller alternating two buffers coarsens level
// after level without allocating.  into must not share storage with g.
func Contract(g *Graph, cmap []int32, nc int, into *Graph) (*Graph, int) {
	cg := into
	if cg == nil {
		cg = &Graph{}
	}
	n := len(cmap)
	cg.scratch = resize(cg.scratch, n+2*nc)
	end, members, slot := cg.scratch[:nc], cg.scratch[nc:nc+n], cg.scratch[nc+n:]
	// Counting sort: end[cv] first holds where cv's members start, then,
	// once they are placed, where they end.
	clear(end)
	for _, cv := range cmap {
		end[cv]++
	}
	var at int32
	for cv, cnt := range end {
		end[cv], at = at, at+cnt
	}
	for v, cv := range cmap {
		members[end[cv]] = int32(v)
		end[cv]++
	}
	for i := range slot {
		slot[i] = -1
	}

	cg.Xadj = resize(cg.Xadj, nc+1)
	cg.WComp, cg.WRemap = resize(cg.WComp, nc), resize(cg.WRemap, nc)
	if cap(cg.Adjncy) < len(g.Adjncy) {
		cg.Adjncy, cg.AdjWgt = make([]int32, 0, len(g.Adjncy)), make([]int64, 0, len(g.Adjncy))
	}
	adj, wgt := cg.Adjncy[:0], cg.AdjWgt[:0]
	folded := 0
	first := int32(0)
	cg.Xadj[0] = 0
	for cv := int32(0); cv < int32(nc); cv++ {
		// Slots written for earlier rows point below this row's start,
		// so they need no clearing between rows.
		rowStart := int32(len(adj))
		var wc, wr int64
		for _, f := range members[first:end[cv]] {
			wc += g.WComp[f]
			wr += g.WRemap[f]
			wts := g.EdgeWeights(f)
			for i, u := range g.Neighbors(f) {
				cu := cmap[u]
				if cu == cv {
					continue
				}
				folded++
				if s := slot[cu]; s >= rowStart {
					wgt[s] += wts[i]
				} else {
					slot[cu] = int32(len(adj))
					adj = append(adj, cu)
					wgt = append(wgt, wts[i])
				}
			}
		}
		first = end[cv]
		cg.WComp[cv], cg.WRemap[cv] = wc, wr
		cg.Xadj[cv+1] = int32(len(adj))
	}
	cg.Adjncy, cg.AdjWgt = adj, wgt
	return cg, folded
}

// resize returns s with length n, reusing its storage when the capacity
// allows (the contents are then stale).
func resize[T int32 | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ProjectPartition maps a coarse partition back to fine vertices through
// cmap.
func ProjectPartition(cpart []int32, cmap []int32) []int32 {
	part := make([]int32, len(cmap))
	for v, cv := range cmap {
		part[v] = cpart[cv]
	}
	return part
}
