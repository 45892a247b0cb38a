package remap

import (
	"fmt"

	"plum/internal/msg"
)

// Similarity is the matrix S of Section 4.3: entry S[i][j] is the sum of
// the remapping weights Wremap of all dual-graph vertices in new
// partition j that already reside on processor i.  There are P processor
// rows and P*F partition columns; each processor will be assigned F
// unique partitions.
type Similarity struct {
	P int // processors
	F int // partitions per processor
	S [][]int64
}

// NewSimilarity allocates a zero P x (P*F) matrix.
func NewSimilarity(p, f int) *Similarity {
	s := &Similarity{P: p, F: f, S: make([][]int64, p)}
	for i := range s.S {
		s.S[i] = make([]int64, p*f)
	}
	return s
}

// NParts returns the number of new partitions (P*F).
func (s *Similarity) NParts() int { return s.P * s.F }

// Sum returns the total of all matrix entries (the total remapping weight
// of the mesh).
func (s *Similarity) Sum() int64 {
	var t int64
	for _, row := range s.S {
		for _, x := range row {
			t += x
		}
	}
	return t
}

// RowSums returns per-processor totals (the remapping weight currently
// resident on each processor).
func (s *Similarity) RowSums() []int64 {
	out := make([]int64, s.P)
	for i, row := range s.S {
		for _, x := range row {
			out[i] += x
		}
	}
	return out
}

// ColSums returns per-partition totals (the remapping weight of each new
// partition).
func (s *Similarity) ColSums() []int64 {
	out := make([]int64, s.NParts())
	for _, row := range s.S {
		for j, x := range row {
			out[j] += x
		}
	}
	return out
}

// BuildSimilarity constructs S from global information: wremap[r] is the
// remapping weight of dual vertex (initial element) r, owner[r] its
// current processor, and newPart[r] its new partition.
func BuildSimilarity(wremap []int64, owner, newPart []int32, p, f int) *Similarity {
	s := NewSimilarity(p, f)
	for r := range wremap {
		s.S[owner[r]][newPart[r]] += wremap[r]
	}
	return s
}

// Objective returns the mapper objective F = sum over processors of the
// similarity weight they retain under the assignment (partToProc[j] is
// the processor that receives partition j).  Maximizing it minimizes the
// total data movement, since moved weight = Sum() - Objective.
func (s *Similarity) Objective(partToProc []int32) int64 {
	var t int64
	for j, i := range partToProc {
		t += s.S[i][j]
	}
	return t
}

// CheckAssignment validates that partToProc assigns each of the P*F
// partitions to a processor and every processor receives exactly F
// partitions.
func (s *Similarity) CheckAssignment(partToProc []int32) error {
	if len(partToProc) != s.NParts() {
		return fmt.Errorf("remap: assignment length %d != %d partitions", len(partToProc), s.NParts())
	}
	count := make([]int, s.P)
	for j, i := range partToProc {
		if i < 0 || int(i) >= s.P {
			return fmt.Errorf("remap: partition %d assigned to invalid processor %d", j, i)
		}
		count[i]++
	}
	for i, c := range count {
		if c != s.F {
			return fmt.Errorf("remap: processor %d received %d partitions, want F=%d", i, c, s.F)
		}
	}
	return nil
}

// BuildSimilarityDistributed runs the distributed construction of
// Section 4.3: "since the partitioning algorithm is run in parallel, each
// processor can simultaneously compute one row of the matrix... This
// information is then gathered by a single host processor."  Each rank
// passes the roots it currently owns; the host (rank 0) returns the full
// matrix, other ranks return nil.  The gather moves only one row (P*F
// integers) per processor, which is why the paper calls its cost
// "minuscule".
func BuildSimilarityDistributed(c *msg.Comm, localRoots []int32, wremap []int64, newPart []int32, f int) *Similarity {
	p := c.Size()
	row := make([]int64, p*f)
	for _, r := range localRoots {
		row[newPart[r]] += wremap[r]
	}
	c.Compute(float64(len(localRoots)))
	rows := c.Gather(0, msg.PutInts(row), make([][]byte, p))
	if c.Rank() != 0 {
		return nil
	}
	s := NewSimilarity(p, f)
	for i := 0; i < p; i++ {
		copy(s.S[i], msg.GetInts(rows[i]))
	}
	c.ReleaseParts(rows)
	return s
}

// BroadcastAssignment scatters the host's partition-to-processor mapping
// to all ranks ("computes the new partition-to-processor mapping, and
// scatters the solution back to the processors").
func BroadcastAssignment(c *msg.Comm, partToProc []int32) []int32 {
	var flat []int64
	if c.Rank() == 0 {
		flat = make([]int64, len(partToProc))
		for i, x := range partToProc {
			flat[i] = int64(x)
		}
	}
	flat = c.BcastInts(0, flat)
	out := make([]int32, len(flat))
	for i, x := range flat {
		out[i] = int32(x)
	}
	return out
}
