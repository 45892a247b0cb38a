package pmesh

import (
	"fmt"
	"slices"
	"sort"

	"plum/internal/adapt"
	"plum/internal/mesh"
	"plum/internal/msg"
)

// Work-unit cost constants (charged to the simulated clock; one unit is
// roughly one element-sized operation).
const (
	workMarkPerEdge     = 0.2
	workRefinePerElem   = 1.0
	workPackPerElem     = 0.6
	workUnpackPerElem   = 0.9
	workSolvePerElem    = 1.0
	workPartitionFactor = 0.5
)

// DistMesh is one rank's view of the distributed adaptive mesh.
type DistMesh struct {
	C      *msg.Comm
	Global *mesh.Mesh  // replicated initial mesh (fixed for the run)
	M      *adapt.Mesh // local adapted submesh

	// RootOwner is replicated: the current owner rank of every global
	// initial element (dual-graph vertex).
	RootOwner []int32

	// localRoot maps a global root id to the local root element id;
	// globalRoot is the inverse (local root element id -> global id).
	localRoot  map[int32]int32
	globalRoot map[int32]int32

	// VertSPL maps a local vertex to the sorted list of *other* ranks
	// that (potentially) share it.  Absent means interior.
	VertSPL map[int32][]int32

	// neighbors is the sorted union of all SPL entries: the ranks this
	// one exchanges shared-object traffic with.  On a well-partitioned
	// mesh it is O(1) in size regardless of P, which is what keeps the
	// marking propagation and ownership protocols scalable.
	neighbors []int32

	// vertElems[vertElemStart[v]:vertElemStart[v+1]] are the elements of
	// the replicated initial mesh incident to its vertex v, ascending.
	// UpdateSPLs derives initial-vertex SPLs from it and RootOwner.
	vertElemStart, vertElems []int32
}

// New distributes the global initial mesh according to part (global root
// element -> rank) and returns each rank's DistMesh.  Collective: every
// rank calls it with identical arguments.
func New(c *msg.Comm, global *mesh.Mesh, part []int32, ncomp int) *DistMesh {
	if len(part) != global.NumElems() {
		panic(fmt.Sprintf("pmesh: partition has %d entries for %d elements", len(part), global.NumElems()))
	}
	d := &DistMesh{
		C:          c,
		Global:     global,
		RootOwner:  append([]int32(nil), part...),
		localRoot:  make(map[int32]int32),
		globalRoot: make(map[int32]int32),
	}
	me := int32(c.Rank())

	// Collect local roots in global order.
	var roots []int32
	for g, p := range part {
		if p == me {
			roots = append(roots, int32(g))
		}
	}

	// Build the local sub-mesh with renumbered vertices.
	vmap := make(map[int32]int32) // global vertex -> local vertex
	local := &mesh.Mesh{}
	var gids []uint64
	for _, g := range roots {
		var ev [4]int32
		for i, gv := range global.Elems[g] {
			lv, ok := vmap[gv]
			if !ok {
				lv = int32(len(local.Coords))
				vmap[gv] = lv
				local.Coords = append(local.Coords, global.Coords[gv])
				gids = append(gids, uint64(gv))
			}
			ev[i] = lv
		}
		local.Elems = append(local.Elems, ev)
	}
	local.BuildDerived()
	// BuildDerived marks partition-boundary faces as boundary; replace
	// with the true external boundary faces owned by local elements.
	local.BFaces = nil
	local.BFaceElem = nil
	localElemOf := make(map[int32]int32, len(roots))
	for li, g := range roots {
		localElemOf[g] = int32(li)
	}
	for i, bf := range global.BFaces {
		owner := global.BFaceElem[i]
		if part[owner] != me {
			continue
		}
		local.BFaces = append(local.BFaces, [3]int32{vmap[bf[0]], vmap[bf[1]], vmap[bf[2]]})
		local.BFaceElem = append(local.BFaceElem, localElemOf[owner])
	}

	d.M = adapt.FromMeshGIDs(local, ncomp, gids)
	for li, g := range roots {
		d.localRoot[g] = int32(li)
		d.globalRoot[int32(li)] = g
	}
	d.buildVertElems()
	d.UpdateSPLs()
	return d
}

// buildVertElems builds the initial mesh's vertex -> element incidence.
func (d *DistMesh) buildVertElems() {
	verts := make([]int32, 0, 4*d.Global.NumElems())
	elems := make([]int32, 0, 4*d.Global.NumElems())
	for e, ev := range d.Global.Elems {
		for _, v := range ev {
			verts, elems = append(verts, v), append(elems, int32(e))
		}
	}
	d.vertElemStart, d.vertElems = bucket(verts, elems, d.Global.NumVerts())
}

// bucket groups vals by keys (each in [0, n)) with a stable counting
// sort: the values of key k are flat[start[k]:start[k+1]], in input
// order.
func bucket(keys, vals []int32, n int) (start, flat []int32) {
	start = make([]int32, n+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	next := append([]int32(nil), start[:n]...)
	flat = make([]int32, len(vals))
	for i, k := range keys {
		flat[next[k]] = vals[i]
		next[k]++
	}
	return start, flat
}

// LocalRootIDs returns the global ids of the roots owned by this rank,
// sorted ascending.
func (d *DistMesh) LocalRootIDs() []int32 {
	out := make([]int32, 0, len(d.localRoot))
	for g := range d.localRoot {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LocalRootElem returns the local root element id for global root g, or
// -1 if not owned here.
func (d *DistMesh) LocalRootElem(g int32) int32 {
	if l, ok := d.localRoot[g]; ok {
		return l
	}
	return -1
}

// GlobalRootID returns the global id of a local root element.
func (d *DistMesh) GlobalRootID(local int32) int32 { return d.globalRoot[local] }

// UpdateSPLs recomputes the shared-processor lists: initial vertices are
// shared by the ranks owning any element incident to them (derived from
// the replicated initial mesh and RootOwner); a bisection midpoint's SPL
// is the intersection of its parent edge endpoints' SPLs (conservative —
// a receiver that does not actually hold a shared object simply ignores
// messages about it).  Every list is a capacity-capped window of one
// arena allocated per call.
func (d *DistMesh) UpdateSPLs() {
	me := int32(d.C.Rank())
	m := d.M
	arena := make([]int32, 0, 4*len(d.VertSPL)+16)
	d.VertSPL = make(map[int32][]int32, len(d.VertSPL))
	carve := func(v int32, start int) {
		if len(arena) > start {
			d.VertSPL[v] = arena[start:len(arena):len(arena)]
		}
	}
	nInitVerts := uint64(d.Global.NumVerts())
	// Initial vertices present locally: the other owners of the initial
	// elements incident to them.
	for v := range m.Coords {
		gid := m.VertGID[v]
		if !m.VertAlive[v] || gid >= nInitVerts {
			continue
		}
		start := len(arena)
		for _, g := range d.vertElems[d.vertElemStart[gid]:d.vertElemStart[gid+1]] {
			if o := d.RootOwner[g]; o != me {
				arena = append(arena, o)
			}
		}
		slices.Sort(arena[start:])
		arena = arena[:start+len(slices.Compact(arena[start:]))]
		carve(int32(v), start)
	}
	// Midpoints, in edge id order (parents precede derived midpoints).
	for id := range m.EdgeV {
		if !m.EdgeAlive[id] || m.EdgeLeaf(int32(id)) {
			continue
		}
		a, b := m.EdgeV[id][0], m.EdgeV[id][1]
		start := len(arena)
		arena = appendIntersect(arena, d.VertSPL[a], d.VertSPL[b])
		carve(m.EdgeMid[id], start)
	}
	// The arena holds exactly the SPL entries, so their union is the
	// neighbour set.
	isNeighbor := make([]bool, d.C.Size())
	for _, r := range arena {
		isNeighbor[r] = true
	}
	d.neighbors = nil
	for r, ok := range isNeighbor {
		if ok {
			d.neighbors = append(d.neighbors, int32(r))
		}
	}
}

// NeighborRanks returns the sorted ranks this one shares mesh objects
// with.  The neighbour relation is symmetric (SPLs on both sides derive
// from the same replicated ownership data), so pairwise exchanges using
// this set are deadlock-free.
func (d *DistMesh) NeighborRanks() []int32 { return d.neighbors }

// exchangeWithNeighbors sends words[r] to each neighbour rank r and
// returns the vectors received from them (keyed by rank).  Non-neighbour
// entries of words are ignored.  Collective among neighbours.
func (d *DistMesh) exchangeWithNeighbors(tag int, words map[int32][]int64) map[int32][]int64 {
	for _, r := range d.neighbors {
		d.C.SendInts(int(r), tag, words[r])
	}
	out := make(map[int32][]int64, len(d.neighbors))
	for _, r := range d.neighbors {
		out[r] = d.C.RecvInts(int(r), tag)
	}
	return out
}

// Dedicated point-to-point tags for the neighbour protocols.
const (
	tagMarkExchange    = 1001
	tagOwnership       = 1002
	tagCoarsenStatus   = 1003
	tagMigrationCounts = 1004
	tagMigrationData   = 1005
)

// IsMigrationTag reports whether tag belongs to the data-remapping
// protocol (Migrate's count and payload messages).  The profile
// aggregator uses it to attribute traced receive waits to the migration
// bucket.
func IsMigrationTag(tag int) bool {
	return tag == tagMigrationCounts || tag == tagMigrationData
}

// appendEdgeSPL appends to dst the ranks that potentially share edge id
// (the intersection of its endpoints' SPLs).  Loops over edges pass one
// scratch buffer, dst[:0], so the lists cost no allocation per edge.
func (d *DistMesh) appendEdgeSPL(dst []int32, id int32) []int32 {
	a, b := d.M.EdgeV[id][0], d.M.EdgeV[id][1]
	return appendIntersect(dst, d.VertSPL[a], d.VertSPL[b])
}

// appendIntersect appends the ranks common to the sorted lists a and b
// to dst.
func appendIntersect(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// GatherWeights assembles the replicated per-global-root dual-graph
// weights from each rank's local families (collective).
func (d *DistMesh) GatherWeights() (wcomp, wremap []int64) {
	lc, lr := d.M.FamilyWeights()
	return d.gatherRootValues(lc, lr)
}

// GatherPredictedWeights assembles per-global-root (predicted Wcomp,
// current Wremap) — the weight pair the load balancer uses when
// remapping *before* subdivision: the computational weight reflects the
// mesh as it will be after refinement, while the remapping weight
// reflects the data that actually moves now (paper Section 4.6).
// Call after marks have been propagated.
func (d *DistMesh) GatherPredictedWeights() (wcomp, wremap []int64) {
	pred := d.M.PredictLeavesByRoot()
	_, lr := d.M.FamilyWeights()
	return d.gatherRootValues(pred, lr)
}

// gatherRootValues allgathers two per-local-root maps into replicated
// per-global-root arrays.
func (d *DistMesh) gatherRootValues(a, b map[int32]int64) ([]int64, []int64) {
	words := make([]int64, 0, 3*len(a))
	for lroot, av := range a {
		g := d.globalRoot[lroot]
		words = append(words, int64(g), av, b[lroot])
	}
	// Deterministic order within the rank's contribution.
	sortTriples(words)
	parts := d.C.Allgather(msg.PutInts(words))
	wa := make([]int64, d.Global.NumElems())
	wb := make([]int64, d.Global.NumElems())
	for _, p := range parts {
		vals := msg.GetInts(p)
		for i := 0; i+2 < len(vals); i += 3 {
			wa[vals[i]] = vals[i+1]
			wb[vals[i]] = vals[i+2]
		}
	}
	return wa, wb
}

func sortTriples(words []int64) {
	n := len(words) / 3
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return words[3*idx[i]] < words[3*idx[j]] })
	out := make([]int64, len(words))
	for k, i := range idx {
		copy(out[3*k:3*k+3], words[3*i:3*i+3])
	}
	copy(words, out)
}

// GlobalCounts returns the sizes of the distributed computational mesh,
// counting each shared vertex/edge exactly once.  Because SPLs are
// conservative (they may list ranks that do not actually hold an
// object), ownership for counting is resolved exactly: ranks exchange
// the ids of their potentially shared objects and the lowest rank that
// actually holds an object counts it.  Collective.
func (d *DistMesh) GlobalCounts() adapt.Counts {
	me := int32(d.C.Rank())
	var c adapt.Counts

	// Interior objects count locally; potentially-shared ones are
	// resolved below.  A vertex is encoded by its gid, an edge by its
	// two endpoint gids.
	var sharedWords []int64
	for v := range d.M.Coords {
		if !d.M.VertAlive[v] {
			continue
		}
		if len(d.VertSPL[int32(v)]) == 0 {
			c.Verts++
		} else {
			sharedWords = append(sharedWords, 1, int64(d.M.VertGID[v]), 0)
		}
	}
	d.M.EnsureEdgeElems()
	var spl []int32
	for id := range d.M.EdgeV {
		if !d.M.EdgeAlive[id] || !d.M.EdgeLeaf(int32(id)) || len(d.M.EdgeElems[id]) == 0 {
			continue
		}
		if spl = d.appendEdgeSPL(spl[:0], int32(id)); len(spl) == 0 {
			c.Edges++
		} else {
			a, b := d.M.EdgeV[id][0], d.M.EdgeV[id][1]
			ga, gb := d.M.VertGID[a], d.M.VertGID[b]
			if ga > gb {
				ga, gb = gb, ga
			}
			sharedWords = append(sharedWords, 2, int64(ga), int64(gb))
		}
	}
	parts := d.C.Allgather(msg.PutInts(sharedWords))
	type key struct {
		kind   int64
		ga, gb int64
	}
	minHolder := make(map[key]int32)
	for r := 0; r < d.C.Size(); r++ {
		vals := msg.GetInts(parts[r])
		for i := 0; i+2 < len(vals); i += 3 {
			k := key{vals[i], vals[i+1], vals[i+2]}
			if _, ok := minHolder[k]; !ok {
				minHolder[k] = int32(r)
			}
		}
	}
	for i := 0; i+2 < len(sharedWords); i += 3 {
		k := key{sharedWords[i], sharedWords[i+1], sharedWords[i+2]}
		if minHolder[k] == me {
			if k.kind == 1 {
				c.Verts++
			} else {
				c.Edges++
			}
		}
	}

	for e := range d.M.ElemVerts {
		if d.M.ElemActive(int32(e)) {
			c.Elems++
		}
	}
	for f := range d.M.BFaceVerts {
		if d.M.BFaceActive(int32(f)) {
			c.BFaces++
		}
	}
	sum := func(x int) int {
		return int(d.C.AllreduceInt64(int64(x), msg.SumInt64))
	}
	return adapt.Counts{Verts: sum(c.Verts), Elems: sum(c.Elems), Edges: sum(c.Edges), BFaces: sum(c.BFaces)}
}

// Refine subdivides the local mesh (marks must already be globally
// propagated via PropagateParallel), charges the simulated clock, and
// refreshes the SPLs.  Collective only in that all ranks should call it.
func (d *DistMesh) Refine() adapt.RefineStats {
	st := d.M.Refine()
	d.C.Compute(workRefinePerElem * float64(st.ElemsCreated+st.EdgesBisected))
	d.UpdateSPLs()
	return st
}
