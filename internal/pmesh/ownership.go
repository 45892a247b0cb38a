package pmesh

import (
	"cmp"
	"slices"
)

// Exact shared-object resolution.  SPLs are conservative (complete but
// possibly over-approximate), which is fine for marking propagation —
// receivers ignore unknown objects — but the flow solver needs exact
// ownership so each edge's flux is computed exactly once and shared
// vertex accumulators are combined exactly.  One collective resolves
// them: every rank announces the potentially shared edges and vertices
// it actually holds; the lowest-numbered actual holder owns each.

// Ownership is the exact sharing state of the local mesh: the one
// statement of which ranks hold, and which rank owns, each shared edge
// and vertex.
type Ownership struct {
	// Owned[id] is true when this rank computes edge id (interior edges
	// and shared edges where this rank is the lowest actual holder).
	Owned []bool
	// Owner[v] is the lowest actual holder of local vertex v (this rank
	// for interior vertices), -1 when v is not alive.
	Owner []int32
	// Shared[r] lists the alive local vertices that rank r also holds,
	// in ascending gid.  SPLs are complete, so holding is symmetric:
	// rank r's Shared[me] names the same vertices in the same order, and
	// the two ranks' exchanges over a shared vertex pair up by position.
	Shared [][]int32
}

// ResolveOwnership exchanges shared-object ids with the neighbour ranks
// and returns the exact ownership tables for the current topology.
// Collective.
func (d *DistMesh) ResolveOwnership() *Ownership {
	me := int32(d.C.Rank())
	d.M.EnsureEdgeElems()

	// Announce potentially shared edges (by endpoint gids) and vertices
	// (by gid) to their SPL ranks.
	send := make([][]int64, d.C.Size())
	var spl []int32
	for id := range d.M.EdgeV {
		if !d.M.ActiveEdge(int32(id)) {
			continue
		}
		spl = d.appendEdgeSPL(spl[:0], int32(id))
		if len(spl) == 0 {
			continue
		}
		a, b := d.M.EdgeV[id][0], d.M.EdgeV[id][1]
		ga, gb := d.M.VertGID[a], d.M.VertGID[b]
		for _, r := range spl {
			send[r] = append(send[r], 2, int64(ga), int64(gb))
		}
	}
	for v, spl := range d.VertSPL {
		if spl == nil || !d.M.VertAlive[v] {
			continue
		}
		for _, r := range spl {
			send[r] = append(send[r], 1, int64(d.M.VertGID[v]), 0)
		}
	}
	recv := d.exchangeWithNeighbors(tagOwnership, send)

	own := &Ownership{
		Owned:  make([]bool, len(d.M.EdgeV)),
		Owner:  make([]int32, len(d.M.Coords)),
		Shared: make([][]int32, d.C.Size()),
	}
	for id := range own.Owned {
		own.Owned[id] = d.M.ActiveEdge(int32(id))
	}
	for v, alive := range d.M.VertAlive {
		own.Owner[v] = -1
		if alive {
			own.Owner[v] = me
		}
	}
	// An edge a lower rank holds is that rank's to compute; a vertex is
	// the lowest announcer's or this rank's.
	for _, r := range d.neighbors {
		vals := recv[r]
		for i := 0; i+2 < len(vals); i += 3 {
			switch vals[i] {
			case 2:
				if r > me {
					continue
				}
				va := d.M.VertByGID(uint64(vals[i+1]))
				vb := d.M.VertByGID(uint64(vals[i+2]))
				if va < 0 || vb < 0 {
					continue
				}
				if id := d.M.EdgeByPair(va, vb); id >= 0 {
					own.Owned[id] = false
				}
			case 1:
				v := d.M.VertByGID(uint64(vals[i+1]))
				if v < 0 {
					continue
				}
				own.Shared[r] = append(own.Shared[r], v)
				own.Owner[v] = min(own.Owner[v], r)
			}
		}
		slices.SortFunc(own.Shared[r], func(a, b int32) int { return cmp.Compare(d.M.VertGID[a], d.M.VertGID[b]) })
	}
	return own
}
