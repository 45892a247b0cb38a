package linalg

import (
	"encoding/binary"
	"math"
	"slices"

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
	reqScratch  []msg.Request

	// Dot's exact accumulators, reset on every call: the local partial
	// sum, and on rank 0 the total and the decoded part being merged.
	// dotWire holds the local sum's encoding and dotParts the gathered
	// encodings, which rank 0 hands back once merged.
	dotLocal, dotTotal, dotPart Acc
	dotWire                     []byte
	dotParts                    [][]byte

	// PCG's workspace, and the right-hand side and iterate GatherField
	// fills: an implicit step solves on this system once per solution
	// component, all in the same storage.
	pcgWork
	rhs, iterate []float64

	// ScatterField's outgoing (gid, value bits) words, per rank.
	scatterSend [][]int64
}

// word decodes the i-th little-endian 64-bit word of a msg payload, the
// encoding of SendInts and SendFloats.
func word(data []byte, i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }

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
	slices.Sort(gids)
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
	// column owned elsewhere is a ghost.  Contributions to owned rows are
	// listed in arrival order and grouped by row once all have arrived.
	rows := make([]int32, 0, 2*len(m.EdgeV))
	ents := make([]entry, 0, 2*len(m.EdgeV))
	ghostOwnerOf := make(map[uint64]int32)
	addOwned := func(rowGID, colGID uint64, colOwner int32, w float64) {
		i, ok := rowOf[rowGID]
		if !ok {
			panic("linalg: contribution to a row not owned here")
		}
		rows = append(rows, i)
		ents = append(ents, entry{colGID, w})
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
		in := d.C.Recv(int(r), tagAssemble)
		for i := 0; i+3 < len(in.Data)/8; i += 4 {
			addOwned(word(in.Data, i), word(in.Data, i+1), int32(word(in.Data, i+2)),
				math.Float64frombits(word(in.Data, i+3)))
		}
		d.C.Release(in)
	}

	// The ghost block, gid-ascending.
	s.GhostGID = make([]uint64, 0, len(ghostOwnerOf))
	for g := range ghostOwnerOf {
		s.GhostGID = append(s.GhostGID, g)
	}
	slices.Sort(s.GhostGID)
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
	ptr, byRow := groupBy(n, rows, ents)
	s.A = finalizeRows(gids, ptr, byRow, colIdx, n+len(s.GhostGID), shift, scale)
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
	p := s.C.Size()
	// Ghost indices grouped by owner; each owner's list stays
	// gid-ascending.
	idx := make([]int32, len(s.ghostOwner))
	for i, r := range s.ghostOwner {
		if r == me {
			panic("linalg: ghost owned by self")
		}
		idx[i] = int32(i)
	}
	start, ghosts := groupBy(p, s.ghostOwner, idx)
	s.recvGhost = make([][]int32, p)
	s.haloRanks = s.haloRanks[:0]
	for r := 0; r < p; r++ {
		s.recvGhost[r] = ghosts[start[r]:start[r+1]:start[r+1]]
		if start[r+1] > start[r] {
			s.haloRanks = append(s.haloRanks, int32(r))
		}
	}

	var need []int64
	for _, r := range s.haloRanks {
		need = need[:0]
		for _, gi := range s.recvGhost[r] {
			need = append(need, int64(s.GhostGID[gi]))
		}
		s.C.SendInts(int(r), tagNeeds, need)
	}
	s.sendRows = make([][]int32, p)
	for _, r := range s.haloRanks {
		req := s.C.Recv(int(r), tagNeeds)
		list := make([]int32, len(req.Data)/8)
		for i := range list {
			row := s.A.RowOf(word(req.Data, i))
			if row < 0 {
				panic("linalg: halo request for a row not owned here")
			}
			list[i] = int32(row)
		}
		s.C.Release(req)
		s.sendRows[r] = list
	}
}

// postHalo ships the owned boundary values to every halo neighbour and
// posts the matching receives without waiting for them.  s.full[:NRows]
// must already hold the owned values.  The gather scratch and request
// slice are reused across calls — one halo exchange runs per operator
// application per PCG iteration, so this path must not allocate.
func (s *DistSystem) postHalo() []msg.Request {
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
		s.reqScratch = make([]msg.Request, len(s.haloRanks))
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
func (s *DistSystem) finishHalo(reqs []msg.Request) {
	s.C.PushPhase(event.PhaseHalo)
	defer s.C.PopPhase()
	n := s.A.NRows
	for i, r := range s.haloRanks {
		m := reqs[i].Wait()
		for j, gi := range s.recvGhost[r] {
			s.full[n+int(gi)] = math.Float64frombits(word(m.Data, j))
		}
		s.C.Release(m)
		reqs[i] = msg.Request{}
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
	s.dotLocal = Acc{}
	s.dotLocal.AddProducts(x, y)
	s.C.Compute(workPerDot * float64(len(x)))
	s.dotWire = s.dotLocal.appendBytes(s.dotWire[:0])
	if s.dotParts == nil {
		s.dotParts = make([][]byte, s.C.Size())
	}
	parts := s.C.Gather(0, s.dotWire, s.dotParts)
	var v float64
	if s.C.Rank() == 0 {
		s.dotTotal = Acc{}
		for _, p := range parts {
			s.dotPart.setBytes(p)
			s.dotTotal.Merge(&s.dotPart)
		}
		s.C.ReleaseParts(parts)
		v = s.dotTotal.Float64()
	}
	return s.C.BcastFloat64(0, v)
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

// colGID returns the gid of local column c: an owned row, then a ghost.
func (s *DistSystem) colGID(c int32) uint64 {
	if n := int32(s.A.NRows); c >= n {
		return s.GhostGID[c-n]
	}
	return s.A.GID[c]
}

// localCol returns the local column index of gid, or -1 when the gid is
// neither an owned row nor a ghost.
func (s *DistSystem) localCol(gid uint64) int32 {
	if i, ok := slices.BinarySearch(s.A.GID, gid); ok {
		return int32(i)
	}
	if g, ok := slices.BinarySearch(s.GhostGID, gid); ok {
		return int32(s.A.NRows + g)
	}
	return -1
}

func (s *DistSystem) newSPAI() Preconditioner {
	s.C.PushPhase(event.PhaseSPAI)
	defer s.C.PopPhase()
	return &distMatPrecond{sys: s, M: spaiMatrix(s.A, s.exchangeRows)}
}

// exchangeRows ships each halo neighbour the owned rows of rows.owned
// that it ghosts, and receives the rows of this rank's ghosts into
// rows.ghost, one flat CSR in receive order: rank by rank, in the order
// of recvGhost[r].  rows.ghostRow maps each ghost index to its row
// there.  Payload per row: gid, ncols, col gids..., value bits...  Each
// message returns to the world's pool as soon as it is decoded.
//
// Received column gids become local column indices; the gids two hops
// out, which no owned row reaches, are numbered in ascending gid order
// from A.NCols up, and rows.ncols grows to cover them.
func (s *DistSystem) exchangeRows(rows *localRows) {
	var buf []int64
	for _, r := range s.haloRanks {
		buf = buf[:0]
		for _, ri := range s.sendRows[r] {
			cc, cv := rows.owned.row(int(ri))
			buf = append(buf, int64(s.A.GID[ri]), int64(len(cc)))
			for _, c := range cc {
				buf = append(buf, int64(s.colGID(c)))
			}
			for _, v := range cv {
				buf = append(buf, int64(math.Float64bits(v)))
			}
		}
		s.C.SendInts(int(r), tagRows, buf)
	}

	g := &rows.ghost
	g.ptr, g.val = append(g.ptr[:0], 0), g.val[:0]
	if rows.ghostRow == nil {
		rows.ghostRow = make([]int32, len(s.GhostGID))
	}
	var gids []uint64
	for _, r := range s.haloRanks {
		m := s.C.Recv(int(r), tagRows)
		i := 0
		for _, gi := range s.recvGhost[r] {
			if word(m.Data, i) != s.GhostGID[gi] {
				panic("linalg: ghost row out of halo order")
			}
			nc := int(word(m.Data, i+1))
			i += 2
			for k := 0; k < nc; k++ {
				gids = append(gids, word(m.Data, i+k))
				g.val = append(g.val, math.Float64frombits(word(m.Data, i+nc+k)))
			}
			i += 2 * nc
			rows.ghostRow[gi] = int32(len(g.ptr) - 1)
			g.ptr = append(g.ptr, int32(len(gids)))
		}
		s.C.Release(m)
	}

	g.col = slices.Grow(g.col[:0], len(gids))[:len(gids)]
	var far []uint64
	for k, gid := range gids {
		if g.col[k] = s.localCol(gid); g.col[k] < 0 {
			far = append(far, gid)
		}
	}
	slices.Sort(far)
	far = slices.Compact(far)
	for k, c := range g.col {
		if c < 0 {
			f, _ := slices.BinarySearch(far, gids[k])
			g.col[k] = int32(s.A.NCols + f)
		}
	}
	rows.ncols = s.A.NCols + len(far)
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

// GatherField extracts b[row] = sol[vert*ncomp+comp] from the local mesh
// for every owned row, and returns it with a copy x for PCG to iterate
// on (u^n is the implicit step's natural initial guess).  Both live in
// the system's storage, valid until the next GatherField.
func (s *DistSystem) GatherField(ncomp, comp int) (b, x []float64) {
	n := s.A.NRows
	s.rhs = slices.Grow(s.rhs[:0], n)[:n]
	for i, v := range s.rowVert {
		s.rhs[i] = s.D.M.Sol[int(v)*ncomp+comp]
	}
	s.iterate = append(s.iterate[:0], s.rhs...)
	return s.rhs, s.iterate
}

// ScatterField writes owned solution values into the local mesh and
// forwards boundary values to the other actual holders of each shared
// vertex, so every copy of the solution field stays bitwise consistent.
// The outgoing words reuse the system's per-rank tables, and received
// values decode straight out of each message, which then returns to the
// world's pool.  Collective.
func (s *DistSystem) ScatterField(ncomp, comp int, x []float64) {
	m := s.D.M
	if s.scatterSend == nil {
		// Sized once per system: two words per owned row per sharer.
		n := make([]int, s.C.Size())
		for _, v := range s.rowVert {
			for _, r := range s.own.VertSharers[v] {
				n[r] += 2
			}
		}
		s.scatterSend = make([][]int64, len(n))
		for r := range n {
			s.scatterSend[r] = make([]int64, 0, n[r])
		}
	}
	send := s.scatterSend
	for r := range send {
		send[r] = send[r][:0]
	}
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
		in := s.C.Recv(int(r), tagScatter)
		for i := 0; i+1 < len(in.Data)/8; i += 2 {
			v := m.VertByGID(word(in.Data, i))
			if v < 0 {
				continue
			}
			m.Sol[int(v)*ncomp+comp] = math.Float64frombits(word(in.Data, i+1))
		}
		s.C.Release(in)
	}
}
