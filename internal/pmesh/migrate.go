package pmesh

import (
	"fmt"
	"math"
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
// ownership.  Collective.
func (d *DistMesh) Migrate(newOwner []int32) MigrateStats {
	if len(newOwner) != d.Global.NumElems() {
		panic(fmt.Sprintf("pmesh: newOwner has %d entries for %d roots", len(newOwner), d.Global.NumElems()))
	}
	me := int32(d.C.Rank())
	p := d.C.Size()
	var st MigrateStats

	// Pack departing families per destination.
	bufs := make([][]int64, p)
	var departing []int32 // global ids
	for _, g := range d.LocalRootIDs() {
		dst := newOwner[g]
		if dst == me {
			continue
		}
		n := d.packFamily(&bufs[dst], g)
		st.FamiliesSent++
		st.ElemsSent += n
		departing = append(departing, g)
	}
	d.C.Compute(workPackPerElem * float64(st.ElemsSent))

	// Remove departing families before unpacking arrivals (so purged
	// shared objects can be revived cleanly by the unpacker), all in one
	// purge pass.
	roots := make([]int32, len(departing))
	for i, g := range departing {
		roots[i] = d.localRoot[g]
		delete(d.globalRoot, roots[i])
		delete(d.localRoot, g)
	}
	d.M.RemoveFamilies(roots)

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
			var g int32
			var n int
			g, n, pos = d.unpackFamily(words, pos)
			st.FamiliesRecv++
			st.ElemsRecv += n
			_ = g
		}
	}
	d.C.Compute(workUnpackPerElem * float64(st.ElemsRecv))

	d.RootOwner = append(d.RootOwner[:0], newOwner...)
	d.UpdateSPLs()
	return st
}

// packFamily serializes global root g's family into buf.  Layout (int64
// words; floats as IEEE bits):
//
//	globalRoot
//	nverts, then per vertex: gid, x, y, z, sol[NComp]
//	nelems, then per element (BFS order): parentPos (-1 root), 4 vertex positions
//	nedges, then per edge: posA, posB, bisected(0/1)
//	nbfaces, then per face (tree order): parentPos (-1 root), 3 vertex positions
//
// Returns the number of elements packed.
func (d *DistMesh) packFamily(buf *[]int64, g int32) int {
	m := d.M
	root := d.localRoot[g]
	elems := m.FamilyElems(root)

	// Vertex closure: corners of every family element (midpoints of
	// bisected family edges are corners of child elements, so they are
	// covered).
	vpos := make(map[int32]int32)
	var verts []int32
	addV := func(v int32) int32 {
		if p, ok := vpos[v]; ok {
			return p
		}
		p := int32(len(verts))
		vpos[v] = p
		verts = append(verts, v)
		return p
	}
	epos := make(map[int32]bool)
	var edges []int32
	for _, e := range elems {
		for _, v := range m.ElemVerts[e] {
			addV(v)
		}
		for _, id := range m.ElemEdges[e] {
			if !epos[id] {
				epos[id] = true
				edges = append(edges, id)
			}
		}
	}
	bfaces := m.FamilyBFaces(root)

	out := *buf
	out = append(out, int64(g))
	out = append(out, int64(len(verts)))
	for _, v := range verts {
		out = append(out, int64(m.VertGID[v]))
		c := m.Coords[v]
		out = append(out, int64(math.Float64bits(c[0])), int64(math.Float64bits(c[1])), int64(math.Float64bits(c[2])))
		for k := 0; k < m.NComp; k++ {
			out = append(out, int64(math.Float64bits(m.Sol[int(v)*m.NComp+k])))
		}
	}
	out = append(out, int64(len(elems)))
	eIdx := make(map[int32]int32, len(elems))
	for i, e := range elems {
		eIdx[e] = int32(i)
	}
	for _, e := range elems {
		pp := int64(-1)
		if par := m.ElemParent[e]; par >= 0 {
			pp = int64(eIdx[par])
		}
		out = append(out, pp)
		for _, v := range m.ElemVerts[e] {
			out = append(out, int64(vpos[v]))
		}
	}
	out = append(out, int64(len(edges)))
	for _, id := range edges {
		var flags int64
		if !m.EdgeLeaf(id) {
			flags |= 1
		}
		if m.EdgeMark[id] {
			flags |= 2 // refinement marks travel with the mesh, so the
			// remap-before-subdivision ordering needs no re-marking
		}
		out = append(out, int64(vpos[m.EdgeV[id][0]]), int64(vpos[m.EdgeV[id][1]]), flags)
	}
	out = append(out, int64(len(bfaces)))
	fIdx := make(map[int32]int32, len(bfaces))
	for i, f := range bfaces {
		fIdx[f] = int32(i)
	}
	for _, f := range bfaces {
		pp := int64(-1)
		if par := d.bfaceParentOf(f); par >= 0 {
			pp = int64(fIdx[par])
		}
		out = append(out, pp)
		for _, v := range m.BFaceVerts[f] {
			out = append(out, int64(vpos[v]))
		}
	}
	*buf = out
	return len(elems)
}

// bfaceParentOf returns the parent of boundary face f, or -1.
func (d *DistMesh) bfaceParentOf(f int32) int32 { return d.M.BFaceParent(f) }

// unpackFamily reconstructs one family from words starting at pos,
// merging shared objects with the existing local mesh and updating the
// root bookkeeping.  Returns the global root id, the element count, and
// the next read position.
func (d *DistMesh) unpackFamily(words []int64, pos int) (int32, int, int) {
	g, rootLocal, n, next := unpackFamilyInto(d.M, words, pos)
	d.localRoot[g] = rootLocal
	d.globalRoot[rootLocal] = g
	return g, n, next
}

// unpackFamilyInto reconstructs one serialized family into an arbitrary
// adapted mesh (the migration target or the finalization host mesh).
func unpackFamilyInto(m *adapt.Mesh, words []int64, pos int) (g, rootLocal int32, nelems, next int) {
	g = int32(words[pos])
	pos++

	nverts := int(words[pos])
	pos++
	lverts := make([]int32, nverts)
	sol := make([]float64, m.NComp)
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
	lelems := make([]int32, nelems)
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
	lfaces := make([]int32, nbf)
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
