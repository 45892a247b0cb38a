package adapt

import "math/bits"

// Edge marking and pattern upgrade (paper Section 3):
//
// "Mesh refinement is performed by first setting a bit flag to one for
// each edge that is targeted for subdivision.  The edge markings for each
// element are then combined to form a 6-bit pattern.  Elements are
// continuously upgraded to valid patterns corresponding to the three
// allowed subdivision types until none of the patterns show any change."
//
// The three allowed patterns are: one marked edge (1:2 subdivision), the
// three edges of one face (1:4), and all six edges (1:8).

// faceMasks[f] is the 6-bit mask of the local edges of local face f.
var faceMasks = [4]uint8{
	1<<0 | 1<<1 | 1<<3, // face (0,1,2): edges 01, 02, 12
	1<<0 | 1<<2 | 1<<4, // face (0,1,3): edges 01, 03, 13
	1<<1 | 1<<2 | 1<<5, // face (0,2,3): edges 02, 03, 23
	1<<3 | 1<<4 | 1<<5, // face (1,2,3): edges 12, 13, 23
}

// FullPattern is the 1:8 isotropic subdivision pattern (all six edges).
const FullPattern uint8 = 0x3F

// UpgradePattern returns the smallest valid pattern containing p:
//
//	0 or 1 bits            -> unchanged (no change / 1:2)
//	2 bits sharing a face  -> that face's 3 edges (1:4)
//	3 bits forming a face  -> unchanged (1:4)
//	anything else          -> all six edges (1:8)
//
// Two distinct edges of a tetrahedron share a face exactly when they share
// a vertex; opposite edge pairs force isotropic subdivision.
func UpgradePattern(p uint8) uint8 {
	switch bits.OnesCount8(p) {
	case 0, 1:
		return p
	case 2:
		for _, fm := range faceMasks {
			if p&fm == p {
				return fm
			}
		}
		return FullPattern
	case 3:
		for _, fm := range faceMasks {
			if p == fm {
				return p
			}
		}
		return FullPattern
	default:
		return FullPattern
	}
}

// ValidPattern reports whether p is one of the allowed subdivision
// patterns (including the empty pattern).
func ValidPattern(p uint8) bool { return UpgradePattern(p) == p }

// SubdivisionArity returns the number of children the pattern produces:
// 0 (no change), 2, 4, or 8.
func SubdivisionArity(p uint8) int {
	switch bits.OnesCount8(p) {
	case 0:
		return 0
	case 1:
		return 2
	case 3:
		return 4
	default:
		return 8
	}
}

// ElemPattern returns the current 6-bit marked-edge pattern of element e.
func (m *Mesh) ElemPattern(e int32) uint8 {
	var p uint8
	for le, id := range m.ElemEdges[e] {
		if m.EdgeMark[id] {
			p |= 1 << uint(le)
		}
	}
	return p
}

// ClearMarks resets all edge refinement marks.
func (m *Mesh) ClearMarks() {
	for i := range m.EdgeMark {
		m.EdgeMark[i] = false
	}
}

// MarkEdge sets the refinement mark on an edge.  Only alive leaf edges
// may be marked.
func (m *Mesh) MarkEdge(id int32) {
	m.EdgeMark[id] = true
}

// TargetEdges marks every alive leaf edge of an active element whose
// error value exceeds hi, and returns the number of edges marked.  err is
// indexed by edge id; entries for inactive edges are ignored.
func (m *Mesh) TargetEdges(err []float64, hi float64) int {
	active := m.activeLeafEdges()
	n := 0
	for _, id := range active {
		if err[id] > hi {
			m.EdgeMark[id] = true
			n++
		}
	}
	return n
}

// MarkTopFraction marks the frac fraction of active leaf edges with the
// largest error values (ties broken by edge id) and returns the number
// marked.  This is how the experiment harness reproduces the paper's
// Real_1/2/3 strategies, which subdivided 5%, 33%, and 60% of the initial
// mesh's edges.
func (m *Mesh) MarkTopFraction(err []float64, frac float64) int {
	active := m.activeLeafEdges()
	k := int(frac*float64(len(active)) + 0.5)
	if k <= 0 {
		return 0
	}
	if k > len(active) {
		k = len(active)
	}
	// Selection by sorting indices on (err desc, id asc).
	idx := append([]int32(nil), active...)
	quickSelectByErr(idx, err, k)
	for i := 0; i < k; i++ {
		m.EdgeMark[idx[i]] = true
	}
	return k
}

// quickSelectByErr partially sorts idx so that the k entries with the
// largest err (ties by smaller id) occupy idx[:k].
func quickSelectByErr(idx []int32, err []float64, k int) {
	less := func(a, b int32) bool { // "a ranks before b"
		if err[a] != err[b] {
			return err[a] > err[b]
		}
		return a < b
	}
	lo, hi := 0, len(idx)-1
	for lo < hi {
		p := idx[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for less(idx[i], p) {
				i++
			}
			for less(p, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}

// activeLeafEdges returns the ids of alive leaf edges referenced by
// active elements, in ascending order.
func (m *Mesh) activeLeafEdges() []int32 {
	used := make([]bool, len(m.EdgeV))
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		for _, id := range m.ElemEdges[e] {
			used[id] = true
		}
	}
	var out []int32
	for id, u := range used {
		if u {
			out = append(out, int32(id))
		}
	}
	return out
}

// Propagate upgrades all element patterns to valid subdivision patterns,
// propagating new edge marks to neighbouring elements until a fixpoint is
// reached.  It returns the ids of edges newly marked during the process
// (used by the distributed implementation to exchange shared-edge marks).
func (m *Mesh) Propagate() []int32 {
	m.EnsureEdgeElems()
	var newly []int32
	// Worklist of elements whose pattern may be invalid.
	var work []int32
	inWork := make([]bool, len(m.ElemVerts))
	for e := range m.ElemVerts {
		if m.ElemActive(int32(e)) {
			work = append(work, int32(e))
			inWork[e] = true
		}
	}
	for len(work) > 0 {
		e := work[0]
		work = work[1:]
		inWork[e] = false
		p := m.ElemPattern(e)
		up := UpgradePattern(p)
		if up == p {
			continue
		}
		for le := 0; le < 6; le++ {
			if up&(1<<uint(le)) == 0 || p&(1<<uint(le)) != 0 {
				continue
			}
			id := m.ElemEdges[e][le]
			if m.EdgeMark[id] {
				continue
			}
			m.EdgeMark[id] = true
			newly = append(newly, id)
			for _, nb := range m.EdgeElems[id] {
				if nb != e && !inWork[nb] && m.ElemActive(nb) {
					work = append(work, nb)
					inWork[nb] = true
				}
			}
		}
	}
	return newly
}

// MarkedEdges returns the ids of all currently marked edges.
func (m *Mesh) MarkedEdges() []int32 {
	var out []int32
	for id, mk := range m.EdgeMark {
		if mk {
			out = append(out, int32(id))
		}
	}
	return out
}

// Prediction describes the mesh that Refine would produce, computed
// before any subdivision takes place.  The paper exploits this ("since
// edges have already been marked for refinement, it is possible to
// exactly predict the new mesh before actually performing the refinement
// step") to let the load balancer run on the pre-refinement mesh.
type Prediction struct {
	// LeavesPerRoot[r] is the number of active elements root r's tree
	// will have after refinement (the new Wcomp), indexed by root
	// element id like RootWeights.
	LeavesPerRoot []int64
	// TotalActive is the predicted number of active elements.
	TotalActive int64
	// GrowthFactor is TotalActive divided by the current active count
	// (the paper's G).
	GrowthFactor float64
}

// PredictRefine computes the post-refinement element counts from the
// current (upgraded) edge marks.  Call after Propagate.
func (m *Mesh) PredictRefine() Prediction {
	pred := Prediction{LeavesPerRoot: make([]int64, m.rootSpan())}
	var current int64
	for e := range m.ElemVerts {
		if !m.ElemActive(int32(e)) {
			continue
		}
		current++
		n := SubdivisionArity(m.ElemPattern(int32(e)))
		if n == 0 {
			n = 1
		}
		pred.LeavesPerRoot[m.ElemRoot[e]] += int64(n)
		pred.TotalActive += int64(n)
	}
	if current > 0 {
		pred.GrowthFactor = float64(pred.TotalActive) / float64(current)
	}
	return pred
}
