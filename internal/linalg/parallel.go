package linalg

import (
	"encoding/binary"
	"math"
	"sort"

	"plum/internal/event"
	"plum/internal/msg"
	"plum/internal/pmesh"
)

// Distributed backend: each rank owns the matrix rows of the vertices it
// owns (lowest actual holder, exactly as the explicit solver resolves
// flux ownership), assembled from the edges it owns so every global edge
// contributes exactly once.  Off-rank columns become ghost entries
// refreshed by a halo exchange before every SpMV — the per-iteration
// communication the implicit workload exists to generate — and dot
// products reduce exact per-rank accumulators at the host, so every
// scalar the solver computes is bitwise independent of the partition.

// Point-to-point tags for the linalg protocols (pmesh uses 1001-1005;
// the collectives synthesize tags above 1<<24).
const (
	tagAssemble = 3001
	tagNeeds    = 3002
	tagHalo     = 3003
	tagRows     = 3004
	tagScatter  = 3005
)

// IsHaloTag reports whether tag belongs to the per-iteration halo
// exchange (ghost-value refresh before every SpMV) as opposed to the
// one-time setup protocols.  The profile aggregator uses it to
// attribute traced receive waits to the halo bucket.
func IsHaloTag(tag int) bool { return tag == tagHalo }

// Simulated-machine work charges (abstract units per entry; the explicit
// solver charges 1.0 per ~40-flop edge flux, so per-nonzero SpMV work is
// proportionally smaller).
const (
	workPerNNZ = 0.05
	workPerDot = 0.02
)

// DistSystem is one rank's share of a distributed sparse SPD operator.
type DistSystem struct {
	D *pmesh.DistMesh
	C *msg.Comm

	// A holds the owned rows; columns index the full local vector
	// [owned rows | ghosts], both gid-ascending within their block.
	A *CSR

	// Overlap selects the split execution of every operator application:
	// the halo exchange is posted nonblocking (Send + Irecv), the interior
	// rows — those touching no ghost column — are computed while the
	// messages are in flight, and only the boundary rows wait for the
	// ghost values.  The result vector is bitwise identical to the
	// blocking path (same per-row kernel); only the simulated critical
	// path shortens, because interior compute hides the wire time.
	Overlap bool

	// GhostGID/ghostOwner describe the ghost block, ascending gid.
	GhostGID   []uint64
	ghostOwner []int32

	// rowVert maps each owned row to its local mesh vertex.
	rowVert []int32

	// own is the exact sharing state used for assembly and scatter.
	own *pmesh.EdgeOwnership

	// Halo exchange lists, indexed by rank.  sendRows[r] lists owned row
	// indices whose values rank r needs; recvGhost[r] lists ghost indices
	// (into the ghost block) filled from rank r.  Both are gid-ascending,
	// so the payloads pair up positionally.
	sendRows  [][]int32
	recvGhost [][]int32
	// haloRanks is the sorted set of ranks this one exchanges with.
	haloRanks []int32

	// Interior/boundary row split: boundary rows have at least one ghost
	// column and cannot start before the halo completes; interior rows
	// can.  The nnz counts drive the split compute charges.
	interior, boundary       []int32
	nnzInterior, nnzBoundary int

	full []float64 // scratch: owned values followed by ghosts

	// Per-exchange scratch reused across halo exchanges (one per operator
	// application): the outgoing value gather and the receive requests.
	sendScratch []float64
	reqScratch  []*msg.Request
}

// vertOwner returns the owning rank of local vertex v under the exact
// sharing state (lowest actual holder).
func vertOwner(own *pmesh.EdgeOwnership, me, v int32) int32 {
	if sh := own.VertSharers[v]; len(sh) > 0 && sh[0] < me {
		return sh[0]
	}
	return me
}

// NewDistSystem assembles A = shift*I + scale*L over the distributed
// mesh's active vertices and edges.  Collective.  The resulting global
// operator is entry-for-entry bitwise identical to Assemble on the
// equivalent serial mesh.
func NewDistSystem(d *pmesh.DistMesh, shift, scale float64) *DistSystem {
	s := &DistSystem{D: d, C: d.C}
	s.own = d.ResolveOwnership()
	m := d.M
	me := int32(d.C.Rank())

	// Owned rows, ascending gid.
	var gids []uint64
	vertOf := make(map[uint64]int32)
	for v := range m.Coords {
		if !m.VertAlive[v] || vertOwner(s.own, me, int32(v)) != me {
			continue
		}
		gids = append(gids, m.VertGID[v])
		vertOf[m.VertGID[v]] = int32(v)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	rowOf := make(map[uint64]int32, len(gids))
	s.rowVert = make([]int32, len(gids))
	for i, g := range gids {
		rowOf[g] = int32(i)
		s.rowVert[i] = vertOf[g]
	}

	// Contributions of the edges this rank owns.  Each edge (a,b)
	// contributes to rows a and b; contributions to rows owned
	// elsewhere are forwarded to the owning rank together with the
	// column's owner, which the receiver needs to build its halo.  A
	// column owned elsewhere is a ghost.
	entRows := make([][]entry, len(gids))
	ghostOwnerOf := make(map[uint64]int32)
	addOwned := func(rowGID, colGID uint64, colOwner int32, w float64) {
		i, ok := rowOf[rowGID]
		if !ok {
			panic("linalg: contribution to a row not owned here")
		}
		entRows[i] = append(entRows[i], entry{colGID, w})
		if colOwner != me {
			ghostOwnerOf[colGID] = colOwner
		}
	}
	sendBuf := make([][]int64, d.C.Size())
	add := func(rowGID, colGID uint64, rowOwner, colOwner int32, w float64) {
		if rowOwner == me {
			addOwned(rowGID, colGID, colOwner, w)
			return
		}
		sendBuf[rowOwner] = append(sendBuf[rowOwner],
			int64(rowGID), int64(colGID), int64(colOwner), int64(math.Float64bits(w)))
	}
	for id := range m.EdgeV {
		if !s.own.Owned[id] {
			continue
		}
		a, b := m.EdgeV[id][0], m.EdgeV[id][1]
		w := EdgeWeight(m.Coords[a].Sub(m.Coords[b]).Norm())
		oa, ob := vertOwner(s.own, me, a), vertOwner(s.own, me, b)
		ga, gb := m.VertGID[a], m.VertGID[b]
		add(ga, gb, oa, ob, w)
		add(gb, ga, ob, oa, w)
	}

	// Forward remote contributions.  Destinations are ranks that share
	// a vertex with this one, a subset of the SPL neighbour set, which
	// is symmetric — every rank posts to each neighbour (possibly an
	// empty message) and drains each neighbour, so the exchange cannot
	// deadlock and receives stay deterministic.
	neighbors := d.NeighborRanks()
	for _, r := range neighbors {
		d.C.SendInts(int(r), tagAssemble, sendBuf[r])
	}
	for _, r := range neighbors {
		vals := d.C.RecvInts(int(r), tagAssemble)
		for i := 0; i+3 < len(vals); i += 4 {
			addOwned(uint64(vals[i]), uint64(vals[i+1]), int32(vals[i+2]),
				math.Float64frombits(uint64(vals[i+3])))
		}
	}

	// The ghost block, gid-ascending.
	s.GhostGID = make([]uint64, 0, len(ghostOwnerOf))
	for g := range ghostOwnerOf {
		s.GhostGID = append(s.GhostGID, g)
	}
	sort.Slice(s.GhostGID, func(i, j int) bool { return s.GhostGID[i] < s.GhostGID[j] })
	s.ghostOwner = make([]int32, len(s.GhostGID))
	ghostIdx := make(map[uint64]int32, len(s.GhostGID))
	for i, g := range s.GhostGID {
		s.ghostOwner[i] = ghostOwnerOf[g]
		ghostIdx[g] = int32(i)
	}

	// Build the CSR over [owned | ghost] columns.
	n := len(gids)
	colIdx := func(g uint64) int32 {
		if r, ok := rowOf[g]; ok {
			return r
		}
		return int32(n) + ghostIdx[g]
	}
	s.A = finalizeRows(gids, entRows, colIdx, n+len(s.GhostGID), shift, scale)
	s.full = make([]float64, s.A.NCols)
	s.splitRows()

	s.buildHalo()
	return s
}

// splitRows classifies each owned row as interior (no ghost column) or
// boundary.  The SPAI preconditioner shares A's sparsity pattern, so one
// split serves every operator applied through this system.
func (s *DistSystem) splitRows() {
	n := s.A.NRows
	for i := 0; i < n; i++ {
		lo, hi := s.A.RowPtr[i], s.A.RowPtr[i+1]
		ghosted := false
		for k := lo; k < hi; k++ {
			if int(s.A.Col[k]) >= n {
				ghosted = true
				break
			}
		}
		if ghosted {
			s.boundary = append(s.boundary, int32(i))
			s.nnzBoundary += int(hi - lo)
		} else {
			s.interior = append(s.interior, int32(i))
			s.nnzInterior += int(hi - lo)
		}
	}
}

// buildHalo exchanges need-lists so each rank knows which owned rows to
// ship before every SpMV.  The needs relation is symmetric (the operator
// pattern is symmetric and vertex ownership is globally consistent): the
// ranks this one requests from are exactly the ranks that request from
// it, so pairwise eager sends followed by receives are deadlock-free.
func (s *DistSystem) buildHalo() {
	me := int32(s.C.Rank())
	s.recvGhost = make([][]int32, s.C.Size())
	for i, r := range s.ghostOwner {
		if r == me {
			panic("linalg: ghost owned by self")
		}
		s.recvGhost[r] = append(s.recvGhost[r], int32(i)) // gid-ascending
	}
	s.haloRanks = s.haloRanks[:0]
	for r, ghosts := range s.recvGhost {
		if len(ghosts) > 0 {
			s.haloRanks = append(s.haloRanks, int32(r))
		}
	}

	for _, r := range s.haloRanks {
		need := make([]int64, 0, len(s.recvGhost[r]))
		for _, gi := range s.recvGhost[r] {
			need = append(need, int64(s.GhostGID[gi]))
		}
		s.C.SendInts(int(r), tagNeeds, need)
	}
	s.sendRows = make([][]int32, s.C.Size())
	for _, r := range s.haloRanks {
		req := s.C.RecvInts(int(r), tagNeeds)
		list := make([]int32, len(req))
		for i, g := range req {
			row := s.A.RowOf(uint64(g))
			if row < 0 {
				panic("linalg: halo request for a row not owned here")
			}
			list[i] = int32(row)
		}
		s.sendRows[r] = list
	}
}

// postHalo ships the owned boundary values to every halo neighbour and
// posts the matching receives without waiting for them.  s.full[:NRows]
// must already hold the owned values.  The gather scratch and request
// slice are reused across calls — one halo exchange runs per operator
// application per PCG iteration, so this path must not allocate.
func (s *DistSystem) postHalo() []*msg.Request {
	s.C.PushPhase(event.PhaseHalo)
	defer s.C.PopPhase()
	for _, r := range s.haloRanks {
		list := s.sendRows[r]
		if cap(s.sendScratch) < len(list) {
			s.sendScratch = make([]float64, len(list))
		}
		vals := s.sendScratch[:len(list)]
		for i, row := range list {
			vals[i] = s.full[row]
		}
		s.C.SendFloats(int(r), tagHalo, vals)
	}
	if s.reqScratch == nil {
		s.reqScratch = make([]*msg.Request, len(s.haloRanks))
	}
	reqs := s.reqScratch
	for i, r := range s.haloRanks {
		reqs[i] = s.C.Irecv(int(r), tagHalo)
	}
	return reqs
}

// finishHalo completes the posted receives and installs the ghost
// values, in halo-rank order (the order the blocking exchange uses).
// Ghost values decode straight out of the message payload, which then
// returns to the world's pool.
func (s *DistSystem) finishHalo(reqs []*msg.Request) {
	s.C.PushPhase(event.PhaseHalo)
	defer s.C.PopPhase()
	n := s.A.NRows
	for i, r := range s.haloRanks {
		m := reqs[i].Wait()
		for j, gi := range s.recvGhost[r] {
			s.full[n+int(gi)] = math.Float64frombits(
				binary.LittleEndian.Uint64(m.Data[8*j:]))
		}
		s.C.Release(m)
		reqs[i] = nil
	}
}

// exchangeHalo refreshes s.full's ghost block from the owners of the
// ghost vertices: the blocking exchange, post immediately followed by
// finish (Wait on a posted Irecv is Recv, so the message operations —
// and the simulated clock charges — are exactly the pre-overlap ones).
func (s *DistSystem) exchangeHalo() {
	s.finishHalo(s.postHalo())
}

// Rows returns the number of owned rows.
func (s *DistSystem) Rows() int { return s.A.NRows }

// applyOp computes dst = M*s.full for an operator sharing A's sparsity
// pattern (A itself, or the SPAI preconditioner), refreshing the ghost
// block on the way.  s.full[:NRows] must already hold the owned values.
// With Overlap set, interior rows are computed while the halo messages
// are in flight — the comm/compute overlap that shortens the simulated
// critical path; the floats in dst are bitwise identical either way.
func (s *DistSystem) applyOp(M *CSR, dst []float64) {
	if !s.Overlap {
		s.exchangeHalo()
		M.MulVec(dst, s.full)
		s.C.Compute(workPerNNZ * float64(M.NNZ()))
		return
	}
	reqs := s.postHalo()
	M.MulVecRows(dst, s.full, s.interior)
	s.C.Compute(workPerNNZ * float64(s.nnzInterior))
	s.finishHalo(reqs)
	M.MulVecRows(dst, s.full, s.boundary)
	s.C.Compute(workPerNNZ * float64(s.nnzBoundary))
}

// MulVec computes dst = A*x on the owned rows after refreshing the halo.
// Collective.
func (s *DistSystem) MulVec(dst, x []float64) {
	copy(s.full[:s.A.NRows], x)
	s.applyOp(s.A, dst)
}

// Dot returns the global dot product, exactly rounded.  Per-rank exact
// partial sums are gathered at the host and merged there — merging exact
// accumulators is associative and commutative, so the result does not
// depend on rank count or order — then the rounded float64 is broadcast.
// Collective.
func (s *DistSystem) Dot(x, y []float64) float64 {
	acc := NewAcc()
	acc.AddProducts(x, y)
	s.C.Compute(workPerDot * float64(len(x)))
	parts := s.C.Gather(0, acc.Bytes())
	var v float64
	if s.C.Rank() == 0 {
		total := NewAcc()
		for _, p := range parts {
			total.Merge(AccFromBytes(p))
		}
		v = total.Float64()
	}
	return s.C.BcastFloats(0, []float64{v})[0]
}

// NewPrecond builds the requested preconditioner for the distributed
// system.  Collective for PrecondSPAI (ghost rows of A and of the raw
// SPAI rows are exchanged over the halo lists).
func (s *DistSystem) NewPrecond(kind PrecondKind) Preconditioner {
	switch kind {
	case PrecondJacobi:
		return NewJacobi(s.A.Diag)
	case PrecondSPAI:
		return s.newSPAI()
	default:
		return Identity()
	}
}

// colGIDs returns the gid of every local column: owned rows then ghosts.
func (s *DistSystem) colGIDs() []uint64 {
	out := make([]uint64, 0, s.A.NCols)
	out = append(out, s.A.GID...)
	return append(out, s.GhostGID...)
}

func (s *DistSystem) newSPAI() Preconditioner {
	s.C.PushPhase(event.PhaseSPAI)
	defer s.C.PopPhase()
	colGID := s.colGIDs()

	type row struct {
		gids []uint64
		vals []float64
	}
	// Ship rows of A for the vertices each halo neighbour ghosts, and
	// receive the rows of this rank's ghosts.  Payload per row:
	// gid, ncols, col gids..., value bits...
	packRows := func(source []float64) map[uint64]row {
		for _, r := range s.haloRanks {
			var buf []int64
			for _, ri := range s.sendRows[r] {
				lo, hi := s.A.RowPtr[ri], s.A.RowPtr[ri+1]
				buf = append(buf, int64(s.A.GID[ri]), int64(hi-lo))
				for k := lo; k < hi; k++ {
					buf = append(buf, int64(colGID[s.A.Col[k]]))
				}
				for k := lo; k < hi; k++ {
					buf = append(buf, int64(math.Float64bits(source[k])))
				}
			}
			s.C.SendInts(int(r), tagRows, buf)
		}
		ghost := make(map[uint64]row)
		for _, r := range s.haloRanks {
			vals := s.C.RecvInts(int(r), tagRows)
			for i := 0; i < len(vals); {
				g := uint64(vals[i])
				nc := int(vals[i+1])
				i += 2
				rw := row{gids: make([]uint64, nc), vals: make([]float64, nc)}
				for k := 0; k < nc; k++ {
					rw.gids[k] = uint64(vals[i+k])
				}
				i += nc
				for k := 0; k < nc; k++ {
					rw.vals[k] = math.Float64frombits(uint64(vals[i+k]))
				}
				i += nc
				ghost[g] = rw
			}
		}
		return ghost
	}

	ghostA := packRows(s.A.Val)
	arow := func(gid uint64) ([]uint64, []float64) {
		if i := s.A.RowOf(gid); i >= 0 {
			return rowGids2(s.A, colGID, i), s.A.Val[s.A.RowPtr[i]:s.A.RowPtr[i+1]]
		}
		if rw, ok := ghostA[gid]; ok {
			return rw.gids, rw.vals
		}
		return nil, nil
	}
	raw := spaiRawRows(s.A, colGID, arow)

	ghostM := packRows(raw)
	mrow := func(gid uint64) ([]uint64, []float64) {
		if i := s.A.RowOf(gid); i >= 0 {
			return rowGids2(s.A, colGID, i), raw[s.A.RowPtr[i]:s.A.RowPtr[i+1]]
		}
		if rw, ok := ghostM[gid]; ok {
			return rw.gids, rw.vals
		}
		return nil, nil
	}
	sym := symmetrizeRows(s.A, colGID, raw, mrow)

	M := &CSR{NRows: s.A.NRows, NCols: s.A.NCols, RowPtr: s.A.RowPtr, Col: s.A.Col, Val: sym, GID: s.A.GID}
	return &distMatPrecond{sys: s, M: M}
}

// distMatPrecond applies a halo-refreshing sparse preconditioner: the
// SPAI pattern equals A's pattern, so its ghost needs are A's halo.
type distMatPrecond struct {
	sys *DistSystem
	M   *CSR
}

func (p *distMatPrecond) Apply(dst, r []float64) {
	s := p.sys
	copy(s.full[:s.A.NRows], r)
	s.applyOp(p.M, dst)
}

// rowGids2 is rowGids with an explicit column-gid table (the distributed
// column space includes ghosts).
func rowGids2(A *CSR, colGID []uint64, i int) []uint64 {
	cols, _ := A.Row(i)
	g := make([]uint64, len(cols))
	for k, c := range cols {
		g[k] = colGID[c]
	}
	return g
}

// GatherField extracts b[row] = sol[vert*ncomp+comp] from the local mesh
// for every owned row.
func (s *DistSystem) GatherField(ncomp, comp int) []float64 {
	b := make([]float64, s.A.NRows)
	for i, v := range s.rowVert {
		b[i] = s.D.M.Sol[int(v)*ncomp+comp]
	}
	return b
}

// ScatterField writes owned solution values into the local mesh and
// forwards boundary values to the other actual holders of each shared
// vertex, so every copy of the solution field stays bitwise consistent.
// Collective.
func (s *DistSystem) ScatterField(ncomp, comp int, x []float64) {
	m := s.D.M
	send := make([][]int64, s.C.Size())
	for i, v := range s.rowVert {
		m.Sol[int(v)*ncomp+comp] = x[i]
		for _, r := range s.own.VertSharers[v] {
			send[r] = append(send[r], int64(m.VertGID[v]), int64(math.Float64bits(x[i])))
		}
	}
	neighbors := s.D.NeighborRanks()
	for _, r := range neighbors {
		s.C.SendInts(int(r), tagScatter, send[r])
	}
	for _, r := range neighbors {
		vals := s.C.RecvInts(int(r), tagScatter)
		for i := 0; i+1 < len(vals); i += 2 {
			v := m.VertByGID(uint64(vals[i]))
			if v < 0 {
				continue
			}
			m.Sol[int(v)*ncomp+comp] = math.Float64frombits(uint64(vals[i+1]))
		}
	}
}
