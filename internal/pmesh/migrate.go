package pmesh

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"plum/internal/adapt"
	"plum/internal/msg"
)

// Data remapping (paper Section 4.6): when the load balancer adopts a new
// partition-to-processor assignment, every element family whose dual
// vertex moved is packed — the complete refinement tree, because "all
// descendants of the root element must move with it" — shipped to its new
// owner, and unpacked there, merging with the receiver's existing shared
// objects via global ids.

// MigrateStats reports one remapping step.
type MigrateStats struct {
	FamiliesSent int
	ElemsSent    int   // alive elements packed (the Wremap volume)
	BytesSent    int64 // payload bytes leaving this rank
	MsgsSent     int   // destinations receiving a non-empty message
	FamiliesRecv int
	ElemsRecv    int
}

// Migrate moves local families to their new owners according to newOwner
// (global root id -> rank) and installs newOwner as the replicated
// ownership.  Collective.  Migrate stamps no trace phase of its own:
// callers run it under event.PhaseMigrate, or its waits count as other.
func (d *DistMesh) Migrate(newOwner []int32) MigrateStats {
	if len(newOwner) != d.Global.NumElems() {
		panic(fmt.Sprintf("pmesh: newOwner has %d entries for %d roots", len(newOwner), d.Global.NumElems()))
	}
	me := int32(d.C.Rank())
	p := d.C.Size()
	var st MigrateStats

	// Pack departing families per destination, in ascending global
	// root order.
	bufs := make([][]int64, p)
	var departing []int32 // local root element ids
	faceStart, faceRoots := faceTreeRoots(d.M)
	for g, r := range d.localRoot {
		if r < 0 || newOwner[g] == me {
			continue
		}
		n := d.packFamily(&bufs[newOwner[g]], int32(g), faceRoots[faceStart[r]:faceStart[r+1]])
		st.FamiliesSent++
		st.ElemsSent += n
		departing = append(departing, r)
	}
	d.C.Compute(workPackPerElem * float64(st.ElemsSent))

	// Remove departing families before unpacking arrivals (so purged
	// shared objects can be revived cleanly by the unpacker), all in one
	// purge pass.
	for _, r := range departing {
		d.localRoot[d.globalRoot[r]] = -1
		d.globalRoot[r] = -1
	}
	d.M.RemoveFamilies(departing)

	// Exchange: migration destinations are arbitrary ranks, so the
	// incoming message count per rank is agreed via a tree-summed
	// indicator vector, then only the real transfers travel ("each set
	// of elements that is moved from one processor to another" is one
	// message — the N of the cost model).
	indicator := make([]int64, p)
	for r := 0; r < p; r++ {
		if len(bufs[r]) > 0 && r != int(me) {
			indicator[r] = 1
		}
	}
	incoming := d.C.ReduceIntsSum(indicator)[me]
	for r := 0; r < p; r++ {
		if len(bufs[r]) == 0 || r == int(me) {
			continue
		}
		payload := msg.PutInts(bufs[r])
		d.C.Send(r, tagMigrationData, payload)
		st.MsgsSent++
		st.BytesSent += int64(len(payload))
	}

	// Unpack arrivals in sender-rank order for determinism.
	arrivals := make([]*msg.Message, 0, incoming)
	for i := int64(0); i < incoming; i++ {
		arrivals = append(arrivals, d.C.Recv(msg.AnySource, tagMigrationData))
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Src < arrivals[j].Src })
	for _, m := range arrivals {
		words := msg.GetInts(m.Data)
		for pos := 0; pos < len(words); {
			var n int
			n, pos = d.unpackFamily(words, pos)
			st.FamiliesRecv++
			st.ElemsRecv += n
		}
	}
	d.C.Compute(workUnpackPerElem * float64(st.ElemsRecv))

	d.RootOwner = append(d.RootOwner[:0], newOwner...)
	d.UpdateSPLs()
	return st
}

// faceTreeRoots buckets the alive boundary-face tree roots by the local
// element root that owns them: root r's are flat[start[r]:start[r+1]],
// in ascending face id, the order FamilyBFaces lists them.  One pass
// serves every family packed from an unchanged mesh.
func faceTreeRoots(m *adapt.Mesh) (start, flat []int32) {
	var roots, faces []int32
	for f := range m.BFaceVerts {
		if m.BFaceAlive[f] && m.BFaceParent(int32(f)) < 0 {
			roots = append(roots, m.BFaceRoot[f])
			faces = append(faces, int32(f))
		}
	}
	return bucket(roots, faces, len(m.ElemVerts))
}

// familyPacker is packFamily's scratch, owned by the DistMesh and reused
// across families and calls: one index per kind of object in the family
// being packed.
type familyPacker struct {
	elems, verts, edges, faces index
}

// index lists objects and numbers them by list position: pos[id] is
// id's position in list, -1 for an object not listed.  reset restores
// pos by visiting only the listed objects, so a warm index costs
// O(family) per use whatever the mesh size.
type index struct {
	list, pos []int32
}

// grow makes pos cover ids [0, n).
func (x *index) grow(n int) {
	for len(x.pos) < n {
		x.pos = append(x.pos, -1)
	}
}

// add lists id unless it is listed already.
func (x *index) add(id int32) {
	if x.pos[id] < 0 {
		x.pos[id] = int32(len(x.list))
		x.list = append(x.list, id)
	}
}

// set makes list, whose ids are distinct, the index's contents.
func (x *index) set(list []int32) {
	x.list = list
	for i, id := range list {
		x.pos[id] = int32(i)
	}
}

func (x *index) reset() {
	for _, id := range x.list {
		x.pos[id] = -1
	}
	x.list = x.list[:0]
}

// packFamily serializes global root g's family into buf; faceRoots are
// the family's boundary-face tree roots (see faceTreeRoots).  Layout
// (int64 words; floats as IEEE bits):
//
//	globalRoot
//	nverts, then per vertex: gid, x, y, z, sol[NComp]
//	nelems, then per element (BFS order): parentPos (-1 root), 4 vertex positions
//	nedges, then per edge: posA, posB, bisected(0/1)
//	nbfaces, then per face (tree order): parentPos (-1 root), 3 vertex positions
//
// Returns the number of elements packed.
func (d *DistMesh) packFamily(buf *[]int64, g int32, faceRoots []int32) int {
	m := d.M
	elems, verts, edges, faces := &d.pack.elems, &d.pack.verts, &d.pack.edges, &d.pack.faces
	elems.grow(len(m.ElemVerts))
	verts.grow(len(m.Coords))
	edges.grow(len(m.EdgeV))
	faces.grow(len(m.BFaceVerts))
	elems.set(m.AppendFamilyElems(elems.list, d.localRoot[g]))

	// Vertex closure: corners of every family element (midpoints of
	// bisected family edges are corners of child elements, so they are
	// covered).
	for _, e := range elems.list {
		for _, v := range m.ElemVerts[e] {
			verts.add(v)
		}
		for _, id := range m.ElemEdges[e] {
			edges.add(id)
		}
	}
	faces.set(m.AppendFaceTrees(faces.list, faceRoots))

	out := *buf
	out = append(out, int64(g))
	out = append(out, int64(len(verts.list)))
	for _, v := range verts.list {
		out = append(out, int64(m.VertGID[v]))
		c := m.Coords[v]
		out = append(out, int64(math.Float64bits(c[0])), int64(math.Float64bits(c[1])), int64(math.Float64bits(c[2])))
		for k := 0; k < m.NComp; k++ {
			out = append(out, int64(math.Float64bits(m.Sol[int(v)*m.NComp+k])))
		}
	}
	out = append(out, int64(len(elems.list)))
	for _, e := range elems.list {
		pp := int64(-1)
		if par := m.ElemParent[e]; par >= 0 {
			pp = int64(elems.pos[par])
		}
		out = append(out, pp)
		for _, v := range m.ElemVerts[e] {
			out = append(out, int64(verts.pos[v]))
		}
	}
	out = append(out, int64(len(edges.list)))
	for _, id := range edges.list {
		var flags int64
		if !m.EdgeLeaf(id) {
			flags |= 1
		}
		if m.EdgeMark[id] {
			flags |= 2 // refinement marks travel with the mesh, so the
			// remap-before-subdivision ordering needs no re-marking
		}
		out = append(out, int64(verts.pos[m.EdgeV[id][0]]), int64(verts.pos[m.EdgeV[id][1]]), flags)
	}
	out = append(out, int64(len(faces.list)))
	for _, f := range faces.list {
		pp := int64(-1)
		if par := m.BFaceParent(f); par >= 0 {
			pp = int64(faces.pos[par])
		}
		out = append(out, pp)
		for _, v := range m.BFaceVerts[f] {
			out = append(out, int64(verts.pos[v]))
		}
	}
	*buf = out
	n := len(elems.list)
	elems.reset()
	verts.reset()
	edges.reset()
	faces.reset()
	return n
}

// unpackFamily reconstructs one family from words starting at pos,
// merging shared objects with the existing local mesh and updating the
// root bookkeeping.  Returns the element count and the next read
// position.
func (d *DistMesh) unpackFamily(words []int64, pos int) (int, int) {
	g, rootLocal, n, next := unpackFamilyInto(d.M, words, pos, &d.unpack)
	for len(d.globalRoot) <= int(rootLocal) {
		d.globalRoot = append(d.globalRoot, -1)
	}
	d.localRoot[g], d.globalRoot[rootLocal] = rootLocal, g
	return n, next
}

// unpackScratch holds unpackFamilyInto's per-family tables (packed
// position -> local id, and one vertex's solution values), reused across
// families by the caller.
type unpackScratch struct {
	verts, elems, faces []int32
	sol                 []float64
}

// unpackFamilyInto reconstructs one serialized family into an arbitrary
// adapted mesh (the migration target or the finalization host mesh).
func unpackFamilyInto(m *adapt.Mesh, words []int64, pos int, sc *unpackScratch) (g, rootLocal int32, nelems, next int) {
	g = int32(words[pos])
	pos++

	nverts := int(words[pos])
	pos++
	sc.verts = slices.Grow(sc.verts[:0], nverts)[:nverts]
	sc.sol = slices.Grow(sc.sol[:0], m.NComp)[:m.NComp]
	lverts, sol := sc.verts, sc.sol
	for i := 0; i < nverts; i++ {
		gid := uint64(words[pos])
		x := math.Float64frombits(uint64(words[pos+1]))
		y := math.Float64frombits(uint64(words[pos+2]))
		z := math.Float64frombits(uint64(words[pos+3]))
		pos += 4
		for k := 0; k < m.NComp; k++ {
			sol[k] = math.Float64frombits(uint64(words[pos]))
			pos++
		}
		lverts[i] = m.AddVertex(gid, [3]float64{x, y, z}, sol)
	}

	nelems = int(words[pos])
	pos++
	sc.elems = slices.Grow(sc.elems[:0], nelems)[:nelems]
	lelems := sc.elems
	rootLocal = -1
	for i := 0; i < nelems; i++ {
		pp := words[pos]
		var ev [4]int32
		for k := 0; k < 4; k++ {
			ev[k] = lverts[words[pos+1+k]]
		}
		pos += 5
		if pp < 0 {
			rootLocal = m.AddRootElem(ev)
			lelems[i] = rootLocal
		} else {
			lelems[i] = m.AddChildElem(lelems[pp], ev)
		}
	}

	nedges := int(words[pos])
	pos++
	for i := 0; i < nedges; i++ {
		va := lverts[words[pos]]
		vb := lverts[words[pos+1]]
		flags := words[pos+2]
		pos += 3
		id := m.EnsureEdge(va, vb)
		if flags&1 != 0 {
			m.EnsureBisected(id)
		}
		if flags&2 != 0 {
			m.MarkEdge(id)
		}
	}

	nbf := int(words[pos])
	pos++
	sc.faces = slices.Grow(sc.faces[:0], nbf)[:nbf]
	lfaces := sc.faces
	for i := 0; i < nbf; i++ {
		pp := words[pos]
		var fv [3]int32
		for k := 0; k < 3; k++ {
			fv[k] = lverts[words[pos+1+k]]
		}
		pos += 4
		if pp < 0 {
			lfaces[i] = m.AddRootBFace(fv, rootLocal)
		} else {
			lfaces[i] = m.AddChildBFace(lfaces[pp], fv)
		}
	}
	return g, rootLocal, nelems, pos
}
