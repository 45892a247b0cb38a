package msg

import (
	"encoding/binary"
	"math"

	"plum/internal/event"
)

// Collective operations.  Every rank in the world must call each
// collective in the same order; a per-rank sequence number synthesizes a
// private tag so that back-to-back collectives and user point-to-point
// traffic cannot interleave incorrectly.
//
// Broadcast and reduce use binomial trees (log P rounds, as a real MPI
// implementation would, which matters for the simulated timing model);
// gather is a rooted linear exchange, matching the paper's description
// of the similarity-matrix gather ("these gather and scatter operations
// require a minuscule amount of time since only one row of the matrix
// needs to be communicated to the host processor").

func (c *Comm) nextCollTag() int {
	t := collectiveTagBase + c.collSeq
	c.collSeq++
	return t
}

// Barrier blocks until every rank has entered it.  Implemented as a
// reduce-to-zero followed by a broadcast.
func (c *Comm) Barrier() {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	if c.rank == 0 {
		for src := 1; src < c.Size(); src++ {
			c.Release(c.Recv(src, tag))
		}
		for dst := 1; dst < c.Size(); dst++ {
			c.Send(dst, tag, nil)
		}
	} else {
		c.Send(0, tag, nil)
		c.Release(c.Recv(0, tag))
	}
	// A barrier synchronizes simulated clocks too: no rank may proceed
	// before the slowest participant under the machine model.
	// (Implemented by the message waits above; the root's replies carry
	// its post-gather clock.)
}

// bcastTree walks the binomial broadcast tree: recv fires once with the
// parent on every non-root rank, then send fires for each child in
// bit order.  It is the single definition of the tree shape — Bcast and
// the scalar bcastWord must keep byte-identical message patterns, so
// they share it.
func (c *Comm) bcastTree(root, tag int, recv func(parent int), send func(child int)) {
	size := c.Size()
	// Relative rank so any root works with the same tree shape.
	rel := (c.rank - root + size) % size
	if rel != 0 {
		// The parent clears the lowest set bit of rel.
		recv((rel&(rel-1) + root) % size)
	}
	// Forward to children: set successively higher bits.
	for bit := 1; bit < size; bit <<= 1 {
		if rel&bit != 0 {
			break // this rank is a leaf at and above this level
		}
		if child := rel | bit; child < size {
			send((child + root) % size)
		}
	}
}

// Bcast broadcasts data from root to all ranks using a binomial tree and
// returns the received (or original, on root) payload.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	c.bcastTree(root, tag,
		func(parent int) {
			// The payload escapes to the caller, so only the message
			// shell goes back to the pool.
			m := c.Recv(parent, tag)
			data = m.Data
			c.world.release(m, false)
		},
		func(child int) { c.Send(child, tag, data) })
	return data
}

// Gather collects each rank's payload at root.  On root the returned slice
// has Size() entries indexed by rank; on other ranks it is nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	if c.rank != root {
		c.Send(root, tag, data)
		return nil
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		m := c.Recv(src, tag)
		out[src] = m.Data
		c.world.release(m, false) // payload escapes in out
	}
	return out
}

// Allgather collects every rank's payload on every rank.
func (c *Comm) Allgather(data []byte) [][]byte {
	parts := c.Gather(0, data)
	if c.rank == 0 {
		flat, lens := flatten(parts)
		// Root already has parts; the broadcasts reconstruct them on the
		// other ranks.
		c.Bcast(0, flat)
		c.BcastInts(0, lens)
		return parts
	}
	flat := c.Bcast(0, nil)
	lens := c.BcastInts(0, nil)
	return unflatten(flat, lens)
}

// BcastInts broadcasts an int64 slice from root.
func (c *Comm) BcastInts(root int, vals []int64) []int64 {
	if c.rank == root {
		c.Bcast(root, PutInts(vals))
		return vals
	}
	return GetInts(c.Bcast(root, nil))
}

// BcastFloats broadcasts a float64 slice from root.
func (c *Comm) BcastFloats(root int, vals []float64) []float64 {
	if c.rank == root {
		c.Bcast(root, PutFloats(vals))
		return vals
	}
	return GetFloats(c.Bcast(root, nil))
}

func flatten(parts [][]byte) (flat []byte, lens []int64) {
	lens = make([]int64, len(parts))
	total := 0
	for i, p := range parts {
		lens[i] = int64(len(p))
		total += len(p)
	}
	flat = make([]byte, 0, total)
	for _, p := range parts {
		flat = append(flat, p...)
	}
	return flat, lens
}

func unflatten(flat []byte, lens []int64) [][]byte {
	parts := make([][]byte, len(lens))
	off := 0
	for i, n := range lens {
		parts[i] = flat[off : off+int(n)]
		off += int(n)
	}
	return parts
}

// allreduceWord is the shared scalar allreduce: a rooted gather of one
// 64-bit word, rank-ordered reduction at the root, and a broadcast of
// the result.  It moves the scalar through pooled 8-byte messages with
// the exact message pattern (tags, sources, sizes, order) of the
// Gather+Bcast composition it replaces, so simulated costs are
// unchanged while the hot reduction loops of the drivers stay off the
// allocator.
func (c *Comm) allreduceWord(w uint64, op func(acc, v uint64) uint64) uint64 {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	if c.rank == 0 {
		for src := 1; src < c.Size(); src++ {
			m := c.Recv(src, tag)
			w = op(w, binary.LittleEndian.Uint64(m.Data))
			c.Release(m)
		}
	} else {
		m := c.world.getMessage(8)
		binary.LittleEndian.PutUint64(m.Data, w)
		c.deliver(0, tag, m)
	}
	return c.bcastWord(0, w)
}

// AllreduceInt64 combines each rank's int64 on every rank (op applied
// in rank order, so non-commutative ops stay deterministic).
func (c *Comm) AllreduceInt64(val int64, op func(a, b int64) int64) int64 {
	return int64(c.allreduceWord(uint64(val), func(acc, v uint64) uint64 {
		return uint64(op(int64(acc), int64(v)))
	}))
}

// AllreduceFloat64 combines each rank's float64 on every rank.
func (c *Comm) AllreduceFloat64(val float64, op func(a, b float64) float64) float64 {
	return math.Float64frombits(c.allreduceWord(math.Float64bits(val), func(acc, v uint64) uint64 {
		return math.Float64bits(op(math.Float64frombits(acc), math.Float64frombits(v)))
	}))
}

// bcastWord broadcasts one 64-bit word from root with the exact message
// pattern of Bcast on an 8-byte payload (same tree via bcastTree).
func (c *Comm) bcastWord(root int, w uint64) uint64 {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	c.bcastTree(root, tag,
		func(parent int) {
			m := c.Recv(parent, tag)
			w = binary.LittleEndian.Uint64(m.Data)
			c.Release(m)
		},
		func(child int) {
			m := c.world.getMessage(8)
			binary.LittleEndian.PutUint64(m.Data, w)
			c.deliver(child, tag, m)
		})
	return w
}

// MaxInt64 and SumInt64 are common reduce operators.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SumInt64 returns a+b; provided for use with the reduce collectives.
func SumInt64(a, b int64) int64 { return a + b }

// MaxFloat64 returns the larger of a and b.
func MaxFloat64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SumFloat64 returns a+b; provided for use with the reduce collectives.
func SumFloat64(a, b float64) float64 { return a + b }

// ReduceIntsSum element-wise sums equal-length int64 vectors at root
// over a binomial tree (log P rounds — the host never touches more than
// log P messages, unlike a flat gather), then broadcasts the result.
// Every rank receives the summed vector.
func (c *Comm) ReduceIntsSum(vals []int64) []int64 {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	size := c.Size()
	acc := append([]int64(nil), vals...)
	// Binomial reduce to rank 0: at round k, ranks with bit k set send
	// to (rank - 2^k) and drop out.
	for bit := 1; bit < size; bit <<= 1 {
		if c.rank&bit != 0 {
			c.SendInts(c.rank-bit, tag, acc)
			break
		}
		if c.rank+bit < size {
			in := c.RecvInts(c.rank+bit, tag)
			for i := range acc {
				acc[i] += in[i]
			}
		}
	}
	return c.BcastInts(0, acc)
}

// Alltoall exchanges parts[i] from this rank to rank i; the result holds
// the payload received from each rank (result[i] came from rank i).
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	size := c.Size()
	if len(parts) != size {
		panic("msg: Alltoall requires exactly one part per rank")
	}
	out := make([][]byte, size)
	for dst := 0; dst < size; dst++ {
		if dst == c.rank {
			out[dst] = append([]byte(nil), parts[dst]...)
			continue
		}
		c.Send(dst, tag, parts[dst])
	}
	for src := 0; src < size; src++ {
		if src == c.rank {
			continue
		}
		m := c.Recv(src, tag)
		out[src] = m.Data
		c.world.release(m, false) // payload escapes in out
	}
	return out
}
