package pmesh

import (
	"plum/internal/mesh"
	"plum/internal/msg"
)

// Parallel edge marking (paper Section 3): each processor targets and
// upgrades its local edges; newly marked local copies of shared edges are
// sent to the processors in their SPLs after each propagation round,
// "and edge markings could propagate back and forth across partitions"
// until no processor applies a new mark.

// MarkGeometricFraction targets approximately the given fraction of the
// distributed mesh's active edges using a geometric error indicator: a
// global error threshold is agreed on via histogram reduction, then every
// rank marks its local edges above the threshold.  Because shared edges
// have identical geometry on all sharers, the marking is symmetric across
// partitions, exactly as the paper observes for its flow-based indicator.
// Returns the local number of edges marked and the agreed threshold.
// Collective.
func (d *DistMesh) MarkGeometricFraction(f func(mesh.Vec3) float64, frac float64) (int, float64) {
	errv := d.M.EdgeErrorGeometric(f)
	d.C.Compute(workMarkPerEdge * float64(len(errv)))
	thresh := d.globalThreshold(errv, frac)
	return d.M.TargetEdges(errv, thresh), thresh
}

// globalThreshold computes an error threshold such that roughly frac of
// all active edges exceed it, using a 4096-bin histogram reduced at the
// host.  Each shared edge is counted exactly once (by its owning rank),
// so the threshold — and therefore the refined mesh — is independent of
// how the mesh happens to be partitioned.
func (d *DistMesh) globalThreshold(errv []float64, frac float64) float64 {
	const bins = 4096
	// Global max error for scaling.
	localMax := 0.0
	active := d.activeLeafEdgeErrors(errv)
	for _, e := range active {
		if e > localMax {
			localMax = e
		}
	}
	globalMax := d.C.AllreduceFloat64(localMax, msg.MaxFloat64)
	if globalMax <= 0 {
		return 0
	}
	hist := make([]int64, bins)
	for _, e := range active {
		b := int(e / globalMax * (bins - 1))
		hist[b]++
	}
	// Tree-summed histogram: the host handles log P messages, not P.
	total := d.C.ReduceIntsSum(hist)
	var sum int64
	for _, v := range total {
		sum += v
	}
	want := int64(frac * float64(sum))
	var acc int64
	b := bins - 1
	for ; b >= 0; b-- {
		acc += total[b]
		if acc >= want {
			break
		}
	}
	if b < 0 {
		b = 0
	}
	return float64(b) / float64(bins-1) * globalMax
}

func (d *DistMesh) activeLeafEdgeErrors(errv []float64) []float64 {
	own := d.ResolveOwnership()
	var out []float64
	for id := range d.M.EdgeV {
		if own.Owned[id] {
			out = append(out, errv[id])
		}
	}
	return out
}

// PropagateParallel runs marking propagation to a global fixpoint:
// rounds of local propagation followed by exchange of newly marked
// shared edges (as endpoint gid pairs) with the *neighbour* ranks only —
// "every processor sends a list of all the newly-marked local copies of
// shared edges to all the other processors in their SPLs."  Returns the
// number of communication rounds.  Collective.
func (d *DistMesh) PropagateParallel() int {
	rounds := 0
	first := true
	var spl []int32
	for {
		newly := d.M.Propagate()
		d.C.Compute(workMarkPerEdge * float64(len(newly)+1))
		// On the first round also announce the initially marked shared
		// edges (belt-and-braces: symmetric indicators should already
		// agree, but forced marks from callers may not be symmetric).
		announce := newly
		if first {
			announce = d.M.MarkedEdges()
			first = false
		}
		send := make([][]int64, d.C.Size())
		for _, id := range announce {
			spl = d.appendEdgeSPL(spl[:0], id)
			if len(spl) == 0 {
				continue
			}
			a, b := d.M.EdgeV[id][0], d.M.EdgeV[id][1]
			ga, gb := d.M.VertGID[a], d.M.VertGID[b]
			for _, r := range spl {
				send[r] = append(send[r], int64(ga), int64(gb))
			}
		}
		recv := d.exchangeWithNeighbors(tagMarkExchange, send)
		applied := 0
		for _, r := range d.neighbors {
			vals := recv[r]
			for i := 0; i+1 < len(vals); i += 2 {
				va := d.M.VertByGID(uint64(vals[i]))
				vb := d.M.VertByGID(uint64(vals[i+1]))
				if va < 0 || vb < 0 {
					continue // conservative SPL: we do not hold this edge
				}
				id := d.M.EdgeByPair(va, vb)
				if id < 0 || d.M.EdgeMark[id] {
					continue
				}
				if !d.M.EdgeLeaf(id) {
					continue
				}
				d.M.MarkEdge(id)
				applied++
			}
		}
		rounds++
		if d.C.AllreduceInt64(int64(applied), msg.SumInt64) == 0 {
			return rounds
		}
	}
}
