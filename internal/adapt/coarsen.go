package adapt

// Mesh coarsening (paper Section 3):
//
// "If a child element has any edge marked for coarsening, this element
// and its siblings are removed and their parent is reinstated. ...
// Reinstated parent elements have their edge-marking patterns adjusted to
// reflect that some edges have been coarsened.  The parents are then
// subdivided based on their new patterns by invoking the mesh refinement
// procedure."
//
// Constraints honoured here: edges cannot be coarsened beyond the initial
// mesh; edges are coarsened in reverse refinement order (only leaf
// families collapse in one pass); and an edge coarsens only if its
// sibling half is also targeted.

// CoarsenStats reports what a Coarsen pass did.
type CoarsenStats struct {
	FamiliesCollapsed int // element families whose children were removed
	ElemsRemoved      int
	EdgesUnbisected   int
	VertsRemoved      int
	BFacesRemoved     int
	Refine            RefineStats // the re-refinement that restores validity
}

// Coarsen removes refinement according to the per-edge coarsen flags
// (indexed by edge id; only alive leaf edges are considered), then
// re-invokes the refinement procedure so the result is again a valid
// conforming mesh.  One tree level is coarsened per call, matching the
// paper's one-level-per-adaption usage.
func (m *Mesh) Coarsen(coarsen []bool) CoarsenStats {
	st := m.CollapsePhase(coarsen)
	m.ForceMarkBisected()
	m.Propagate()
	st.Refine = m.Refine()
	return st
}

// CollapsePhase performs the destructive half of coarsening — family
// collapse, edge/vertex purge, boundary-face collapse — without the
// re-refinement that restores validity.  The distributed implementation
// (pmesh.ParallelCoarsen) interleaves a shared-edge status exchange
// between this phase and the re-refinement; serial callers should use
// Coarsen.
func (m *Mesh) CollapsePhase(coarsen []bool) CoarsenStats {
	var st CoarsenStats

	// Sibling constraint: a bisected edge qualifies for un-bisection only
	// if both of its leaf children are targeted.  qualChild marks the
	// child halves of qualifying edges.
	qualChild := make([]bool, len(m.EdgeV))
	for id := range m.EdgeV {
		if !m.EdgeAlive[id] || m.EdgeLeaf(int32(id)) {
			continue
		}
		c0, c1 := m.EdgeChild[id][0], m.EdgeChild[id][1]
		if m.EdgeAlive[c0] && m.EdgeAlive[c1] &&
			m.EdgeLeaf(c0) && m.EdgeLeaf(c1) &&
			int(c0) < len(coarsen) && int(c1) < len(coarsen) &&
			coarsen[c0] && coarsen[c1] {
			qualChild[c0] = true
			qualChild[c1] = true
		}
	}

	// Collapse leaf element families containing a targeted edge.
	for p := range m.ElemVerts {
		if !m.ElemAlive[p] || m.ElemChild[p] == nil {
			continue
		}
		leafFamily := true
		for _, c := range m.ElemChild[p] {
			if !m.ElemActive(c) {
				leafFamily = false
				break
			}
		}
		if !leafFamily {
			continue
		}
		hit := false
		for _, c := range m.ElemChild[p] {
			for _, id := range m.ElemEdges[c] {
				if qualChild[id] {
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
		if !hit {
			continue
		}
		for _, c := range m.ElemChild[p] {
			m.ElemAlive[c] = false
			st.ElemsRemoved++
		}
		m.ElemChild[p] = nil
		st.FamiliesCollapsed++
	}

	eRemoved, vRemoved := m.purge()
	st.EdgesUnbisected = eRemoved
	st.VertsRemoved = vRemoved
	st.BFacesRemoved = m.collapseBFaces()
	return st
}

// ForceMarkBisected marks every still-bisected edge of an active
// element for refinement: reinstated parents re-subdivide along the
// edges that could not coarsen, "invoking the mesh refinement
// procedure" as the paper describes.  Call Propagate and Refine after.
func (m *Mesh) ForceMarkBisected() {
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		for _, id := range m.ElemEdges[e] {
			if !m.EdgeLeaf(id) {
				m.EdgeMark[id] = true
			}
		}
	}
}

// purge removes edges no longer referenced by active elements,
// un-bisects parents whose children died, and removes orphaned midpoint
// vertices.  It iterates because un-bisecting one level can orphan the
// next.  Returns (#edges un-bisected, #vertices removed).
func (m *Mesh) purge() (unbisected, vertsRemoved int) {
	for {
		changed := false
		// Usage of each edge by active elements.
		used := make([]bool, len(m.EdgeV))
		for e := range m.ElemVerts {
			if !m.ElemActive(int32(e)) {
				continue
			}
			for _, id := range m.ElemEdges[e] {
				used[id] = true
			}
		}
		// Kill unused, non-initial leaf edges.
		for id := range m.EdgeV {
			if !m.EdgeAlive[id] || !m.EdgeLeaf(int32(id)) || used[id] || id < m.NInitEdges {
				continue
			}
			m.EdgeAlive[id] = false
			m.unlinkEdge(int32(id))
			changed = true
		}
		// Un-bisect parents whose children are both dead.
		for id := range m.EdgeV {
			if !m.EdgeAlive[id] || m.EdgeLeaf(int32(id)) {
				continue
			}
			c0, c1 := m.EdgeChild[id][0], m.EdgeChild[id][1]
			if m.EdgeAlive[c0] || m.EdgeAlive[c1] {
				continue
			}
			m.EdgeChild[id] = [2]int32{-1, -1}
			m.EdgeMid[id] = -1
			unbisected++
			changed = true
		}
		if !changed {
			break
		}
	}
	// Remove vertices no longer referenced by any alive edge (initial
	// vertices are permanent).
	usedV := make([]bool, len(m.Coords))
	for id := range m.EdgeV {
		if !m.EdgeAlive[id] {
			continue
		}
		usedV[m.EdgeV[id][0]] = true
		usedV[m.EdgeV[id][1]] = true
		if mid := m.EdgeMid[id]; mid >= 0 {
			usedV[mid] = true
		}
	}
	for v := m.NInitVerts; v < len(m.Coords); v++ {
		if m.VertAlive[v] && !usedV[v] {
			m.VertAlive[v] = false
			delete(m.gidVert, m.VertGID[v])
			vertsRemoved++
		}
	}
	m.EdgeElems = nil
	return unbisected, vertsRemoved
}

// collapseBFaces removes boundary-face children that reference dead edges
// or vertices (which happens exactly when their element family
// collapsed), iterating for multi-level trees.  Returns the number of
// face children removed.
func (m *Mesh) collapseBFaces() int {
	removed := 0
	for {
		changed := false
		for f := range m.BFaceVerts {
			if !m.BFaceAlive[f] || m.BFaceChild[f] == nil {
				continue
			}
			leafFamily := true
			for _, c := range m.BFaceChild[f] {
				if !m.BFaceActive(c) {
					leafFamily = false
					break
				}
			}
			if !leafFamily {
				continue
			}
			dead := false
			for _, c := range m.BFaceChild[f] {
				for _, id := range m.BFaceEdges[c] {
					if !m.EdgeAlive[id] {
						dead = true
						break
					}
				}
				for _, v := range m.BFaceVerts[c] {
					if !m.VertAlive[v] {
						dead = true
						break
					}
				}
				if dead {
					break
				}
			}
			if !dead {
				continue
			}
			for _, c := range m.BFaceChild[f] {
				m.BFaceAlive[c] = false
				removed++
			}
			m.BFaceChild[f] = nil
			changed = true
		}
		if !changed {
			break
		}
	}
	if removed > 0 {
		m.bfaceParentCache = nil
	}
	return removed
}

// TargetCoarsenEdges returns coarsen flags for every alive leaf edge
// whose error value is below lo.  err is indexed by edge id; edges beyond
// len(err) (created after err was computed) are not targeted.
func (m *Mesh) TargetCoarsenEdges(err []float64, lo float64) []bool {
	flags := make([]bool, len(m.EdgeV))
	for _, id := range m.activeLeafEdges() {
		if int(id) < len(err) && err[id] < lo {
			flags[id] = true
		}
	}
	return flags
}
