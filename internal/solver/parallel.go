package solver

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/pmesh"
)

// Parallel solver: each rank computes fluxes for the edges it owns
// (exact ownership from pmesh.ResolveOwnership), partial vertex
// accumulators for shared vertices are exchanged with the actual
// sharers, combined in rank order for bitwise determinism, and every
// holder applies the identical update.

// PSolver is the distributed solver state bound to a DistMesh.
type PSolver struct {
	D   *pmesh.DistMesh
	own *pmesh.EdgeOwnership
	// sendTo[r] lists, gid-ascending, the local shared vertices whose
	// partials go to rank r.
	sendTo [][]int32
	// shared lists the local vertices that have actual sharers,
	// ascending.
	shared []int32

	// Kernel tables, fixed between Rebuilds and refilled in their own
	// storage by each: edges holds every owned edge in ascending id,
	// and slots[r][i] the local vertex of the i-th partial rank r
	// sends, resolved from its gid on first use.
	edges []ownedEdge
	slots [][]gidSlot

	// Step scratch, kept across steps and regrown with the mesh: the
	// local accumulators (acc, deg), the combined shared-vertex sums
	// (cacc, cdeg; seen marks a vertex combined this step, touched lists
	// them), one outgoing payload per rank, and Alltoall's result slots.
	acc, deg, cacc, cdeg []float64
	seen                 []bool
	touched              []int32
	wire, recv           [][]byte
}

// ownedEdge is one owned edge as Step evaluates it: endpoints oriented
// by OrientEdge and the edge length.
type ownedEdge struct {
	a, b   int32
	length float64
}

// gidSlot caches the local vertex (-1 if not held) of a wire gid.
type gidSlot struct {
	gid uint64
	v   int32
}

// NewParallel builds the solver for the current mesh topology.  Call
// Rebuild after any adaption or migration.  Collective.
func NewParallel(d *pmesh.DistMesh) *PSolver {
	s := &PSolver{D: d}
	s.Rebuild()
	return s
}

// Rebuild refreshes ownership, exchange lists and the kernel tables.
// Collective.
func (s *PSolver) Rebuild() {
	m := s.D.M
	p := s.D.C.Size()
	s.own = s.D.ResolveOwnership()
	if len(s.sendTo) != p {
		s.sendTo = make([][]int32, p)
	}
	for r := range s.sendTo {
		s.sendTo[r] = s.sendTo[r][:0]
	}
	for r := range s.slots {
		s.slots[r] = s.slots[r][:0]
	}
	s.shared = s.shared[:0]
	for v, sharers := range s.own.VertSharers {
		if sharers == nil {
			continue
		}
		s.shared = append(s.shared, int32(v))
		for _, r := range sharers {
			s.sendTo[r] = append(s.sendTo[r], int32(v))
		}
	}
	// Deterministic order: ascending gid per destination.
	gid := m.VertGID
	for _, vs := range s.sendTo {
		slices.SortFunc(vs, func(a, b int32) int { return cmp.Compare(gid[a], gid[b]) })
	}
	// Sized for every edge: one allocation, not one per doubling (the
	// implicit workload builds this solver once and never steps it).
	s.edges = slices.Grow(s.edges[:0], len(s.own.Owned))
	for id, owned := range s.own.Owned {
		if !owned {
			continue
		}
		a, b := OrientEdge(m, int32(id))
		s.edges = append(s.edges, ownedEdge{a, b, m.Coords[a].Sub(m.Coords[b]).Norm()})
	}
}

// Step advances the distributed solution one explicit iteration and
// returns the local number of owned-edge flux evaluations.  Collective.
func (s *PSolver) Step(dt float64) int {
	d := s.D
	m := d.M
	nv := len(m.Coords)
	s.acc = zeroed(s.acc, nv*NComp)
	s.deg = zeroed(s.deg, nv)
	acc, deg := s.acc, s.deg
	var ua, ub, flux [NComp]float64
	for _, e := range s.edges {
		a, b := e.a, e.b
		copy(ua[:], m.Sol[int(a)*NComp:])
		copy(ub[:], m.Sol[int(b)*NComp:])
		edgeFlux(&ua, &ub, e.length, &flux)
		for k := 0; k < NComp; k++ {
			acc[int(a)*NComp+k] -= flux[k]
			acc[int(b)*NComp+k] += flux[k]
		}
		deg[a] += e.length
		deg[b] += e.length
	}
	work := len(s.edges)
	d.C.Compute(float64(work))

	// Ghost accumulation: exchange partial (acc, deg) of shared
	// vertices with their actual sharers; combine in rank order.  The
	// payloads double as Alltoall's parts, which it sends as copies; the
	// received payloads go back to the pool once combined.
	p := d.C.Size()
	me := int32(d.C.Rank())
	if len(s.wire) != p {
		s.wire = make([][]byte, p)
		s.recv = make([][]byte, p)
		s.slots = make([][]gidSlot, p)
	}
	for r, vs := range s.sendTo {
		buf := s.wire[r][:0]
		for _, v := range vs {
			buf = appendFloat(buf, float64(int64(m.VertGID[v]>>32)))
			buf = appendFloat(buf, float64(uint32(m.VertGID[v])))
			for _, x := range acc[int(v)*NComp : int(v)*NComp+NComp] {
				buf = appendFloat(buf, x)
			}
			buf = appendFloat(buf, deg[v])
		}
		s.wire[r] = buf
	}
	recv := d.C.Alltoall(s.wire, s.recv)

	// Deterministic combination: process contributions rank by rank in
	// ascending order, inserting our own partial at rank "me".  Shared
	// accumulators start at zero and sum all partials.
	if len(s.seen) < nv {
		s.seen = make([]bool, nv)
		s.cacc = make([]float64, nv*NComp)
		s.cdeg = make([]float64, nv)
	}
	s.touched = s.touched[:0]
	const stride = 8 * (NComp + 3) // bytes per vertex: gid hi, gid lo, acc, deg
	var a [NComp]float64
	for r := int32(0); r < int32(p); r++ {
		if r == me {
			for _, v := range s.shared {
				s.combine(v, acc[int(v)*NComp:int(v)*NComp+NComp], deg[v])
			}
			continue
		}
		data := recv[r]
		slots := s.slots[r]
		for i, n := 0, 0; i+stride <= len(data); i, n = i+stride, n+1 {
			gid := uint64(int64(floatAt(data, i)))<<32 | uint64(uint32(int64(floatAt(data, i+8))))
			// The gid check re-resolves a slot the sender's order does
			// not match, so a stale table never mis-routes a partial.
			if n == len(slots) {
				slots = append(slots, gidSlot{gid, m.VertByGID(gid)})
			} else if slots[n].gid != gid {
				slots[n] = gidSlot{gid, m.VertByGID(gid)}
			}
			v := slots[n].v
			if v < 0 {
				continue // conservative SPL over-approximation
			}
			for k := range a {
				a[k] = floatAt(data, i+16+8*k)
			}
			s.combine(v, a[:], floatAt(data, i+16+8*NComp))
		}
		s.slots[r] = slots
	}
	d.C.ReleaseParts(recv)
	for _, v := range s.touched {
		copy(acc[int(v)*NComp:int(v)*NComp+NComp], s.cacc[int(v)*NComp:])
		deg[v] = s.cdeg[v]
		s.seen[v] = false
	}
	applyUpdate(m, acc, deg, dt)
	return work
}

// combine adds one rank's partial (a, dg) for shared vertex v to the
// step's combined sums, starting them from zero on the first partial.
func (s *PSolver) combine(v int32, a []float64, dg float64) {
	c := s.cacc[int(v)*NComp : int(v)*NComp+NComp]
	if !s.seen[v] {
		s.seen[v] = true
		s.touched = append(s.touched, v)
		clear(c)
		s.cdeg[v] = 0
	}
	for k := range c {
		c[k] += a[k]
	}
	s.cdeg[v] += dg
}

// zeroed returns buf resized to n with every entry zero, reusing its
// storage when it is large enough.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// appendFloat appends x in the wire encoding of msg.SendFloats
// (little-endian IEEE-754).
func appendFloat(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

// floatAt decodes the appendFloat-encoded value at byte offset i.
func floatAt(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
}

// InitParallel sets the initial condition on the local mesh.
func (s *PSolver) InitParallel(f func(mesh.Vec3) [NComp]float64) {
	InitField(s.D.M, f)
}

// GlobalMass sums the density diagnostic across ranks, counting shared
// vertices once (lowest actual holder).  Collective.
func (s *PSolver) GlobalMass() float64 {
	m := s.D.M
	me := int32(s.D.C.Rank())
	var local float64
	for v := range m.Coords {
		if !m.VertAlive[v] {
			continue
		}
		if sh := s.own.VertSharers[v]; len(sh) > 0 && sh[0] < me {
			continue
		}
		local += m.Sol[v*NComp]
	}
	return s.D.C.AllreduceFloat64(local, msg.SumFloat64)
}
