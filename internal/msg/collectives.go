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

// Bcast broadcasts data from root to all ranks using a binomial tree.
// On root it returns data itself; on every other rank it returns a
// pooled payload lent to the caller, who hands it back with ReleaseBcast
// once read.  A forwarding rank has already sent its children their
// copies (Send copies) when Bcast returns, so releasing never races the
// tree.
func (c *Comm) Bcast(root int, data []byte) []byte {
	if c.rank == root {
		c.bcastParts(root, [][]byte{data})
		return data
	}
	return c.bcastParts(root, nil)
}

// bcastParts is Bcast of the concatenation of parts.  The root encodes
// the parts straight into each child's pooled message, so no flat copy
// is built on the host; the message pattern is exactly Bcast's of the
// concatenated payload.  Non-root ranks return the received payload,
// lent to the caller; the root returns nil.
func (c *Comm) bcastParts(root int, parts [][]byte) []byte {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var data []byte
	c.bcastTree(root, tag,
		func(parent int) {
			// Only the shell goes back to the pool: the payload is lent.
			m := c.Recv(parent, tag)
			data = m.Data
			c.world.release(m, false)
		},
		func(child int) {
			if c.rank != root {
				c.Send(child, tag, data)
				return
			}
			m := c.world.getMessage(n)
			off := 0
			for _, p := range parts {
				off += copy(m.Data[off:], p)
			}
			c.deliver(child, tag, m)
		})
	return data
}

// ReleaseBcast hands back the payload a Bcast from root returned on this
// rank.  On root, whose result is its own data, it does nothing.
func (c *Comm) ReleaseBcast(root int, data []byte) {
	if c.rank != root {
		c.world.releaseBuf(data)
	}
}

// Gather collects each rank's payload at root into the caller-owned
// into, which on root must hold Size() slots; other ranks may pass nil.
// On root into[root] aliases data and every other slot is a pooled
// payload lent to the caller, who hands them back with ReleaseParts.
// Gather returns into on root and nil elsewhere.
func (c *Comm) Gather(root int, data []byte, into [][]byte) [][]byte {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	if c.rank != root {
		c.Send(root, tag, data)
		return nil
	}
	if len(into) != c.Size() {
		panic("msg: Gather requires one result slot per rank on root")
	}
	into[root] = data
	for src := 0; src < c.Size(); src++ {
		if src == root {
			continue
		}
		m := c.Recv(src, tag)
		into[src] = m.Data
		c.world.release(m, false) // the payload is lent in into
	}
	return into
}

// ReleaseParts hands back the payloads a Gather (on its root) or an
// Alltoall lent this rank: every slot but the rank's own, which aliases
// the caller's data.  It clears every slot, so a stale part cannot be
// read or released again.  A nil parts releases nothing.
func (c *Comm) ReleaseParts(parts [][]byte) {
	for src, p := range parts {
		if src != c.rank {
			c.world.releaseBuf(p)
		}
	}
	clear(parts)
}

// Allgather collects every rank's payload on every rank into the
// caller-owned into (Size() slots) and returns it; into[Rank()] aliases
// data.  The messages are a Gather at rank 0, a Bcast of the
// concatenated parts and a BcastInts of their lengths.  The other slots
// are lent to the caller, who hands them back with ReleaseAllgather: on
// rank 0 they are the gathered payloads, elsewhere views into the one
// broadcast payload.
func (c *Comm) Allgather(data []byte, into [][]byte) [][]byte {
	if len(into) != c.Size() {
		panic("msg: Allgather requires one result slot per rank")
	}
	if c.rank == 0 {
		c.Gather(0, data, into)
		c.bcastParts(0, into)
		c.lens = c.lens[:0]
		for _, p := range into {
			c.lens = append(c.lens, int64(len(p)))
		}
		c.BcastInts(0, c.lens)
		return into
	}
	c.Gather(0, data, nil)
	flat := c.Bcast(0, nil)
	c.lens = c.BcastInts(0, c.lens)
	off := 0
	for i, n := range c.lens {
		// Slot 0 keeps the payload's full capacity: ReleaseAllgather
		// hands the buffer back through it.
		if i == 0 {
			into[i] = flat[:n]
		} else {
			into[i] = flat[off : off+int(n) : off+int(n)]
		}
		off += int(n)
	}
	into[c.rank] = data
	return into
}

// ReleaseAllgather hands back the payloads an Allgather lent this rank
// and clears every slot.
func (c *Comm) ReleaseAllgather(parts [][]byte) {
	if c.rank == 0 {
		c.ReleaseParts(parts)
		return
	}
	c.ReleaseBcast(0, parts[0]) // slot 0 starts the one broadcast payload
	clear(parts)
}

// BcastInts broadcasts an int64 slice from root, encoding straight into
// pooled messages (Bcast's message pattern).  On root it returns vals;
// every other rank decodes the payload into vals' storage, grown when
// too short, and returns that.
func (c *Comm) BcastInts(root int, vals []int64) []int64 {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	c.bcastTree(root, tag,
		func(parent int) {
			m := c.Recv(parent, tag)
			vals = appendInts(vals[:0], m.Data)
			c.Release(m)
		},
		func(child int) { c.SendInts(child, tag, vals) })
	return vals
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

// BcastInt64 broadcasts one int64 from root: Bcast's message pattern on
// an 8-byte payload, through pooled messages.
func (c *Comm) BcastInt64(root int, v int64) int64 {
	return int64(c.bcastWord(root, uint64(v)))
}

// BcastFloat64 broadcasts one float64 from root, like BcastInt64.
func (c *Comm) BcastFloat64(root int, v float64) float64 {
	return math.Float64frombits(c.bcastWord(root, math.Float64bits(v)))
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
			m := c.Recv(c.rank+bit, tag)
			for i := range acc {
				acc[i] += int64(binary.LittleEndian.Uint64(m.Data[8*i:]))
			}
			c.Release(m)
		}
	}
	return c.BcastInts(0, acc)
}

// Alltoall exchanges parts[i] from this rank to rank i into the
// caller-owned into (Size() slots) and returns it: into[i] came from
// rank i.  into[Rank()] aliases parts[Rank()]; every other slot is a
// pooled payload lent to the caller, who hands them back with
// ReleaseParts.
func (c *Comm) Alltoall(parts, into [][]byte) [][]byte {
	c.PushPhase(event.PhaseCollective)
	defer c.PopPhase()
	tag := c.nextCollTag()
	size := c.Size()
	if len(parts) != size || len(into) != size {
		panic("msg: Alltoall requires exactly one part and one result slot per rank")
	}
	for dst := 0; dst < size; dst++ {
		if dst != c.rank {
			c.Send(dst, tag, parts[dst])
		}
	}
	into[c.rank] = parts[c.rank]
	for src := 0; src < size; src++ {
		if src == c.rank {
			continue
		}
		m := c.Recv(src, tag)
		into[src] = m.Data
		c.world.release(m, false) // the payload is lent in into
	}
	return into
}
