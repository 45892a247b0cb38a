package pmesh

import (
	"plum/internal/adapt"
	"plum/internal/mesh"
)

// Parallel mesh coarsening (paper Section 3): "the coarsening phase
// purges the data structures of all edges that are removed, as well as
// their associated vertices, elements, and boundary faces...  The
// refinement routine is then invoked to generate a valid mesh from the
// vertices left after the coarsening."
//
// Element families never span processors, so the collapse itself is
// local.  Cross-partition consistency has exactly one failure mode: a
// shared edge un-bisects on the rank whose families all collapsed while
// a neighbouring rank keeps it bisected (its families survived).  One
// status exchange repairs it — every rank announces its still-bisected
// shared edges; a rank holding such an edge as a leaf re-marks it for
// refinement — and the usual globally-propagated re-refinement then
// restores a conforming distributed mesh.

// ParallelCoarsen coarsens edges whose indicator value falls below lo,
// then re-refines to validity.  Collective.
func (d *DistMesh) ParallelCoarsen(f func(mesh.Vec3) float64, lo float64) adapt.CoarsenStats {
	errv := d.M.EdgeErrorGeometric(f)
	flags := d.M.TargetCoarsenEdges(errv, lo)
	return d.ParallelCoarsenFlags(flags)
}

// ParallelCoarsenFlags is ParallelCoarsen with explicit per-edge flags
// (indexed by local edge id).  Collective.
func (d *DistMesh) ParallelCoarsenFlags(flags []bool) adapt.CoarsenStats {
	st := d.M.CollapsePhase(flags)
	d.C.Compute(workRefinePerElem * float64(st.ElemsRemoved+1))
	d.UpdateSPLs() // midpoints may have been purged

	// Status exchange with the neighbour ranks: announce still-bisected
	// shared edges.
	send := make(map[int32][]int64)
	var spl []int32
	for id := range d.M.EdgeV {
		if !d.M.EdgeAlive[id] || d.M.EdgeLeaf(int32(id)) {
			continue
		}
		spl = d.appendEdgeSPL(spl[:0], int32(id))
		if len(spl) == 0 {
			continue
		}
		a, b := d.M.EdgeV[id][0], d.M.EdgeV[id][1]
		ga, gb := d.M.VertGID[a], d.M.VertGID[b]
		for _, r := range spl {
			send[r] = append(send[r], int64(ga), int64(gb))
		}
	}
	recv := d.exchangeWithNeighbors(tagCoarsenStatus, send)
	for _, r := range d.neighbors {
		vals := recv[r]
		for i := 0; i+1 < len(vals); i += 2 {
			va := d.M.VertByGID(uint64(vals[i]))
			vb := d.M.VertByGID(uint64(vals[i+1]))
			if va < 0 || vb < 0 {
				continue
			}
			id := d.M.EdgeByPair(va, vb)
			if id >= 0 && d.M.EdgeLeaf(id) {
				// The neighbour kept this edge bisected: our coarsening
				// of it is overruled; re-refine.
				d.M.MarkEdge(id)
			}
		}
	}

	// Globally consistent re-refinement.
	d.M.ForceMarkBisected()
	d.PropagateParallel()
	st.Refine = d.Refine()
	return st
}
