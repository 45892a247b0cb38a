package pmesh

import (
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/mesh"
	"plum/internal/msg"
)

// rankOwnership is what one rank's ResolveOwnership says, in gids.
type rankOwnership struct {
	held         map[uint64]int32 // alive vertex gid -> its Owner
	shared       [][]uint64       // Shared[r] as gids
	owned, edges int              // owned vertices, Owned edges
}

// TestOwnershipSymmetric: the ownership tables of every rank agree.
// Each pair of ranks names the same shared vertices in the same order
// (exactly the vertices both hold), every holder names the same owner,
// the lowest holder, and the owned vertices and edges summed over ranks
// are the serial mesh's counts.  At P=4 after a refinement, and at P=7
// after refineAndScramble, whose SPLs over-approximate.
func TestOwnershipSymmetric(t *testing.T) {
	global := mesh.Box(3, 3, 2, 3, 3, 2)
	ind := adapt.SphericalIndicator(mesh.Vec3{1.5, 1.5, 1.0}, 0.9, 0.5)
	serial := adapt.FromMesh(global, 0)
	serial.BuildEdgeElems()
	serial.TargetEdges(serial.EdgeErrorGeometric(ind), 0.5)
	serial.Propagate()
	serial.Refine()
	want := serial.ActiveCounts()

	for _, tc := range []struct {
		p        int
		scramble bool
	}{{4, false}, {7, true}} {
		got := make([]rankOwnership, tc.p)
		part := testPartition(global, tc.p)
		msg.Run(tc.p, func(c *msg.Comm) {
			d := New(c, global, part, 0)
			if tc.scramble {
				refineAndScramble(d, ind)
			} else {
				d.M.TargetEdges(d.M.EdgeErrorGeometric(ind), 0.5)
				d.PropagateParallel()
				d.Refine()
			}
			own := d.ResolveOwnership()
			me := c.Rank()
			ro := rankOwnership{held: map[uint64]int32{}, shared: make([][]uint64, tc.p)}
			for v, alive := range d.M.VertAlive {
				if alive {
					ro.held[d.M.VertGID[v]] = own.Owner[v]
				} else if own.Owner[v] != -1 {
					t.Errorf("p=%d rank %d: dead vertex %d has owner %d", tc.p, me, v, own.Owner[v])
				}
				if own.Owner[v] == int32(me) {
					ro.owned++
				}
			}
			for r, vs := range own.Shared {
				for _, v := range vs {
					ro.shared[r] = append(ro.shared[r], d.M.VertGID[v])
				}
			}
			for _, o := range own.Owned {
				if o {
					ro.edges++
				}
			}
			got[me] = ro
		})

		var verts, edges, shared int
		for a, ra := range got {
			verts += ra.owned
			edges += ra.edges
			shared += len(ra.held) - ra.owned
			for g, o := range ra.held {
				lowest := int32(a)
				for b := range a {
					if _, ok := got[b].held[g]; ok {
						lowest = int32(b)
						break
					}
				}
				if o != lowest {
					t.Errorf("p=%d rank %d: vertex %d owned by %d, lowest holder is %d", tc.p, a, g, o, lowest)
				}
			}
			for b, rb := range got {
				if !slices.Equal(ra.shared[b], rb.shared[a]) {
					t.Errorf("p=%d: rank %d's Shared[%d] %v != rank %d's Shared[%d] %v",
						tc.p, a, b, ra.shared[b], b, a, rb.shared[a])
				}
				var both []uint64
				if a != b {
					for g := range ra.held {
						if _, ok := rb.held[g]; ok {
							both = append(both, g)
						}
					}
				}
				slices.Sort(both)
				if !slices.Equal(ra.shared[b], both) {
					t.Errorf("p=%d: rank %d's Shared[%d] %v, the vertices both hold are %v",
						tc.p, a, b, ra.shared[b], both)
				}
			}
		}
		if shared == 0 {
			t.Errorf("p=%d: no vertex is held by two ranks", tc.p)
		}
		if verts != want.Verts || edges != want.Edges {
			t.Errorf("p=%d: owned %d vertices and %d edges, serial mesh has %d and %d",
				tc.p, verts, edges, want.Verts, want.Edges)
		}
	}
}
