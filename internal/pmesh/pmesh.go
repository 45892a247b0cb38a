package pmesh

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

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

	// localRoot[g] is the local element id of global root g, -1 when
	// another rank owns it; globalRoot is the inverse over local element
	// ids, -1 for an element that is not a root (elements past its end
	// are refinement children).
	localRoot  []int32
	globalRoot []int32

	// VertSPL[v] is the sorted list of *other* ranks that (potentially)
	// share local vertex v; nil means interior.
	VertSPL [][]int32

	// neighbors is the sorted union of all SPL entries: the ranks this
	// one exchanges shared-object traffic with.  On a well-partitioned
	// mesh it is O(1) in size regardless of P, which is what keeps the
	// marking propagation and ownership protocols scalable.
	neighbors []int32

	// vertElems[vertElemStart[v]:vertElemStart[v+1]] are the elements of
	// the replicated initial mesh incident to its vertex v, ascending.
	// UpdateSPLs derives initial-vertex SPLs from it and RootOwner.
	vertElemStart, vertElems []int32

	// Scratch kept across calls so the balance step allocates per call,
	// not per object: family packing and unpacking, the sorted (kind or
	// root, id, id) triples GlobalCounts and gatherRootValues send, their
	// encoding, and the Allgather result slots.
	pack    familyPacker
	unpack  unpackScratch
	triples [][3]int64
	wire    []byte
	parts   [][]byte
}

// New distributes the global initial mesh according to part (global root
// element -> rank) and returns each rank's DistMesh.  Collective: every
// rank calls it with identical arguments.
func New(c *msg.Comm, global *mesh.Mesh, part []int32, ncomp int) *DistMesh {
	if len(part) != global.NumElems() {
		panic(fmt.Sprintf("pmesh: partition has %d entries for %d elements", len(part), global.NumElems()))
	}
	d := &DistMesh{
		C:         c,
		Global:    global,
		RootOwner: append([]int32(nil), part...),
		localRoot: make([]int32, len(part)),
	}
	me := int32(c.Rank())

	// Number the local roots in global order.
	for g, p := range part {
		d.localRoot[g] = -1
		if p == me {
			d.localRoot[g] = int32(len(d.globalRoot))
			d.globalRoot = append(d.globalRoot, int32(g))
		}
	}

	// Build the local sub-mesh with renumbered vertices.
	vmap := make(map[int32]int32) // global vertex -> local vertex
	local := &mesh.Mesh{}
	var gids []uint64
	for _, g := range d.globalRoot {
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
	for i, bf := range global.BFaces {
		owner := global.BFaceElem[i]
		if part[owner] != me {
			continue
		}
		local.BFaces = append(local.BFaces, [3]int32{vmap[bf[0]], vmap[bf[1]], vmap[bf[2]]})
		local.BFaceElem = append(local.BFaceElem, d.localRoot[owner])
	}

	d.M = adapt.FromMeshGIDs(local, ncomp, gids)
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
	var out []int32
	for g, l := range d.localRoot {
		if l >= 0 {
			out = append(out, int32(g))
		}
	}
	return out
}

// LocalRootElem returns the local root element id for global root g, or
// -1 if not owned here.
func (d *DistMesh) LocalRootElem(g int32) int32 { return d.localRoot[g] }

// GlobalRootID returns the global id of a local root element, or -1 for
// any other element.
func (d *DistMesh) GlobalRootID(local int32) int32 {
	if int(local) < len(d.globalRoot) {
		return d.globalRoot[local]
	}
	return -1
}

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
	shared := 0
	for _, l := range d.VertSPL {
		if l != nil {
			shared++
		}
	}
	arena := make([]int32, 0, 4*shared+16)
	d.VertSPL = make([][]int32, len(m.Coords))
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
// returns the vectors received from them, indexed by rank.  Non-neighbour
// entries of words are ignored.  Collective among neighbours.
func (d *DistMesh) exchangeWithNeighbors(tag int, words [][]int64) [][]int64 {
	for _, r := range d.neighbors {
		d.C.SendInts(int(r), tag, words[r])
	}
	out := make([][]int64, d.C.Size())
	for _, r := range d.neighbors {
		out[r] = d.C.RecvInts(int(r), tag)
	}
	return out
}

// Dedicated point-to-point tags for the neighbour protocols.
const (
	tagMarkExchange  = 1001
	tagOwnership     = 1002
	tagCoarsenStatus = 1003
	tagMigrationData = 1005
)

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
	return d.gatherRootValues(d.M.RootWeights())
}

// GatherPredictedWeights assembles per-global-root (predicted Wcomp,
// current Wremap) — the weight pair the load balancer uses when
// remapping *before* subdivision: the computational weight reflects the
// mesh as it will be after refinement, while the remapping weight
// reflects the data that actually moves now (paper Section 4.6).
// Call after marks have been propagated.
func (d *DistMesh) GatherPredictedWeights() (wcomp, wremap []int64) {
	_, lr := d.M.RootWeights()
	return d.gatherRootValues(d.M.PredictRefine().LeavesPerRoot, lr)
}

// gatherRootValues allgathers two tables indexed by local root element
// id into replicated per-global-root arrays.  Each rank contributes one
// (global root, a, b) triple per local root, in ascending global root
// order.
func (d *DistMesh) gatherRootValues(a, b []int64) ([]int64, []int64) {
	words := d.triples[:0]
	for g, l := range d.localRoot {
		if l >= 0 {
			words = append(words, [3]int64{int64(g), a[l], b[l]})
		}
	}
	d.triples = words
	parts := d.allgatherTriples(words)
	wa := make([]int64, d.Global.NumElems())
	wb := make([]int64, d.Global.NumElems())
	for _, p := range parts {
		for i := range len(p) / 24 {
			t := tripleAt(p, i)
			wa[t[0]] = t[1]
			wb[t[0]] = t[2]
		}
	}
	d.C.ReleaseAllgather(parts)
	return wa, wb
}

// allgatherTriples encodes ts into the mesh's wire scratch and
// allgathers it into the mesh's result slots; the caller hands the
// parts back with ReleaseAllgather.  Collective.
func (d *DistMesh) allgatherTriples(ts [][3]int64) [][]byte {
	d.wire = appendTriples(d.wire[:0], ts)
	if len(d.parts) != d.C.Size() {
		d.parts = make([][]byte, d.C.Size())
	}
	return d.C.Allgather(d.wire, d.parts)
}

// cmpTriple orders triples lexicographically.
func cmpTriple(a, b [3]int64) int {
	for k := range a {
		if a[k] != b[k] {
			return cmp.Compare(a[k], b[k])
		}
	}
	return 0
}

// appendTriples appends triples to dst exactly as msg.PutInts encodes
// their words laid end to end.
func appendTriples(dst []byte, ts [][3]int64) []byte {
	for _, t := range ts {
		for _, w := range t {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(w))
		}
	}
	return dst
}

// tripleAt decodes the i-th triple of an appendTriples payload, leaving the
// rest undecoded.
func tripleAt(p []byte, i int) [3]int64 {
	p = p[24*i : 24*i+24]
	return [3]int64{
		int64(binary.LittleEndian.Uint64(p)),
		int64(binary.LittleEndian.Uint64(p[8:])),
		int64(binary.LittleEndian.Uint64(p[16:])),
	}
}

// dropHeld removes from the sorted list mine, in place, every triple the
// sorted appendTriples payload theirs also holds.
func dropHeld(mine [][3]int64, theirs []byte) [][3]int64 {
	n := len(theirs) / 24
	keep := mine[:0]
	j := 0
	for _, t := range mine {
		for j < n && cmpTriple(tripleAt(theirs, j), t) < 0 {
			j++
		}
		if j < n && tripleAt(theirs, j) == t {
			continue
		}
		keep = append(keep, t)
	}
	return keep
}

// GlobalCounts returns the sizes of the distributed computational mesh,
// counting each shared vertex/edge exactly once.  Because SPLs are
// conservative (they may list ranks that do not actually hold an
// object), ownership for counting is resolved exactly: ranks allgather
// the sorted ids of their potentially shared objects and the lowest rank
// that actually holds an object counts it, which each rank decides by
// merging its own list against the lists of its lower neighbours.
// Collective.
func (d *DistMesh) GlobalCounts() adapt.Counts {
	var c adapt.Counts

	// Interior objects count locally; potentially-shared ones are
	// resolved below.  A vertex is encoded (1, gid, 0), an edge (2, ga,
	// gb) by its endpoint gids.
	shared := d.triples[:0]
	for v := range d.M.Coords {
		if !d.M.VertAlive[v] {
			continue
		}
		if len(d.VertSPL[v]) == 0 {
			c.Verts++
		} else {
			shared = append(shared, [3]int64{1, int64(d.M.VertGID[v]), 0})
		}
	}
	d.M.EnsureEdgeElems()
	var spl []int32
	for id := range d.M.EdgeV {
		if !d.M.ActiveEdge(int32(id)) {
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
			shared = append(shared, [3]int64{2, int64(ga), int64(gb)})
		}
	}
	d.triples = shared
	slices.SortFunc(shared, cmpTriple)
	parts := d.allgatherTriples(shared)
	// A rank that holds one of these objects is in its SPL, so only
	// lower neighbour ranks can hold them too.
	for _, r := range d.neighbors {
		if int(r) >= d.C.Rank() || len(shared) == 0 {
			break
		}
		shared = dropHeld(shared, parts[r])
	}
	d.C.ReleaseAllgather(parts)
	for _, t := range shared {
		if t[0] == 1 {
			c.Verts++
		} else {
			c.Edges++
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
