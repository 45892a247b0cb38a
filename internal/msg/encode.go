package msg

import (
	"encoding/binary"
	"math"
)

// The PLUM framework exchanges three kinds of payloads: integer id lists
// (shared-edge marking rounds, similarity-matrix rows), float vectors
// (solver ghost exchange), and opaque byte buffers (packed element
// migration).  These helpers provide allocation-explicit conversions on
// top of the raw byte transport; the Send/Recv pairs below additionally
// encode straight into (and release back to) the world's message pool,
// so the per-iteration exchange loops of the solvers allocate nothing.

// PutInts encodes a slice of int64 values as little-endian bytes.
func PutInts(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

// GetInts decodes a byte slice produced by PutInts.
func GetInts(data []byte) []int64 {
	n := len(data) / 8
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals
}

// PutFloats encodes a slice of float64 values as little-endian IEEE-754.
func PutFloats(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// GetFloats decodes a byte slice produced by PutFloats.
func GetFloats(data []byte) []float64 {
	n := len(data) / 8
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals
}

// SendInts sends an int64 slice to dst, encoding directly into a pooled
// message buffer (no intermediate byte slice).
func (c *Comm) SendInts(dst, tag int, vals []int64) {
	m := c.world.getMessage(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(m.Data[8*i:], uint64(v))
	}
	c.deliver(dst, tag, m)
}

// RecvInts receives an int64 slice from src; the transport message is
// released back to the pool.
func (c *Comm) RecvInts(src, tag int) []int64 {
	m := c.Recv(src, tag)
	vals := GetInts(m.Data)
	c.Release(m)
	return vals
}

// SendFloats sends a float64 slice to dst, encoding directly into a
// pooled message buffer.
func (c *Comm) SendFloats(dst, tag int, vals []float64) {
	m := c.world.getMessage(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(m.Data[8*i:], math.Float64bits(v))
	}
	c.deliver(dst, tag, m)
}
