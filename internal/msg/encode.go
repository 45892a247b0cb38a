package msg

import (
	"encoding/binary"
	"math"
)

// The PLUM framework exchanges three kinds of payloads: integer id lists
// (shared-edge marking rounds, similarity-matrix rows), float vectors
// (solver ghost exchange), and opaque byte buffers (packed element
// migration).  PutInts and GetInts are allocation-explicit conversions
// on top of the raw byte transport; the Send/Recv pairs below encode
// straight into (and release back to) the world's message pool, so the
// per-iteration exchange loops of the solvers allocate nothing.

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
	return appendInts(make([]int64, 0, len(data)/8), data)
}

// appendInts appends the int64 values PutInts encoded in data to dst.
func appendInts(dst []int64, data []byte) []int64 {
	for i := 0; i+8 <= len(data); i += 8 {
		dst = append(dst, int64(binary.LittleEndian.Uint64(data[i:])))
	}
	return dst
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
