package pmesh

import "slices"

// Exact shared-object resolution.  SPLs are conservative (complete but
// possibly over-approximate), which is fine for marking propagation —
// receivers ignore unknown objects — but the flow solver needs exact
// ownership so each edge's flux is computed exactly once and shared
// vertex accumulators are combined exactly.  One collective resolves
// them: every rank announces the potentially shared edges it actually
// holds; a rank owns an edge when it is the lowest-numbered actual
// holder.

// EdgeOwnership describes the exact sharing state of the local edges.
type EdgeOwnership struct {
	// Owned[id] is true when this rank computes edge id (interior edges
	// and shared edges where this rank is the lowest actual holder).
	Owned []bool
	// Sharers[id] lists the other ranks that actually hold edge id (nil
	// for interior edges).
	Sharers [][]int32
	// VertSharers[v] lists the other ranks that actually hold vertex v
	// (nil for interior vertices).
	VertSharers [][]int32
}

// ResolveOwnership exchanges shared-object ids with the neighbour ranks
// and returns the exact ownership tables for the current topology.
// Collective.
func (d *DistMesh) ResolveOwnership() *EdgeOwnership {
	me := d.C.Rank()
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

	// (object, sharer rank) pairs, grouped per object below.
	var edgeIDs, edgeRanks, vertIDs, vertRanks []int32
	for _, r := range d.neighbors {
		vals := recv[r]
		for i := 0; i+2 < len(vals); i += 3 {
			switch vals[i] {
			case 2:
				va := d.M.VertByGID(uint64(vals[i+1]))
				vb := d.M.VertByGID(uint64(vals[i+2]))
				if va < 0 || vb < 0 {
					continue
				}
				id := d.M.EdgeByPair(va, vb)
				if id < 0 || !d.M.EdgeLeaf(id) {
					continue
				}
				edgeIDs, edgeRanks = append(edgeIDs, id), append(edgeRanks, r)
			case 1:
				v := d.M.VertByGID(uint64(vals[i+1]))
				if v < 0 {
					continue
				}
				vertIDs, vertRanks = append(vertIDs, v), append(vertRanks, r)
			}
		}
	}
	own := &EdgeOwnership{
		Owned:       make([]bool, len(d.M.EdgeV)),
		Sharers:     groupRanks(edgeIDs, edgeRanks, len(d.M.EdgeV)),
		VertSharers: groupRanks(vertIDs, vertRanks, len(d.M.Coords)),
	}
	for id := range d.M.EdgeV {
		if !d.M.ActiveEdge(int32(id)) {
			continue
		}
		sh := own.Sharers[id]
		own.Owned[id] = len(sh) == 0 || int32(me) < sh[0]
	}
	return own
}

// groupRanks returns, per object id in [0, n), the sorted distinct ranks
// paired with it in (ids[i], ranks[i]), nil for an object paired with
// none; every list is a capacity-capped window of one arena.
func groupRanks(ids, ranks []int32, n int) [][]int32 {
	start, arena := bucket(ids, ranks, n)
	out := make([][]int32, n)
	for id := range out {
		if lo, hi := start[id], start[id+1]; hi > lo {
			l := arena[lo:hi]
			slices.Sort(l)
			l = slices.Compact(l)
			out[id] = l[:len(l):len(l)]
		}
	}
	return out
}
