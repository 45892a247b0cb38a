package partition

import (
	"testing"

	"plum/internal/dual"
	"plum/internal/mesh"
)

// commVolumeRef is the obviously correct O(deg^2) reference the stamped
// implementation must match: per vertex, count distinct foreign parts
// with a linear seen-scan.
func commVolumeRef(g *dual.Graph, part []int32) int64 {
	var vol int64
	for v := int32(0); v < int32(g.NumVerts()); v++ {
		var seen []int32
		for _, u := range g.Neighbors(v) {
			p := part[u]
			if p == part[v] {
				continue
			}
			dup := false
			for _, q := range seen {
				if q == p {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, p)
			}
		}
		vol += int64(len(seen))
	}
	return vol
}

func TestCommVolumeMatchesReference(t *testing.T) {
	g := dual.FromMesh(mesh.Box(5, 4, 3, 5, 4, 3))
	// A real partition and two adversarial ones: all-one-part (zero
	// volume) and a scattered pseudo-random spread over many parts.
	parts := [][]int32{
		Partition(g, 7, Options{}),
		make([]int32, g.NumVerts()),
		make([]int32, g.NumVerts()),
	}
	x := uint64(99)
	for v := range parts[2] {
		x = x*6364136223846793005 + 1442695040888963407
		parts[2][v] = int32(x % 23)
	}
	for i, part := range parts {
		want := commVolumeRef(g, part)
		if got := CommVolume(g, part); got != want {
			t.Errorf("case %d: CommVolume %d, reference %d", i, got, want)
		}
	}
	if CommVolume(g, parts[1]) != 0 {
		t.Error("single-part partition must have zero communication volume")
	}
}
