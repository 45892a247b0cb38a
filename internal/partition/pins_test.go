package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"plum/internal/dual"
	"plum/internal/mesh"
	"plum/internal/msg"
)

// partSHA256 hashes a partition vector (little-endian int32 words) plus
// an optional trailer, so a pin names every assignment bit.  Writes to a
// hash never fail, so binary.Write's error is dropped.
func partSHA256(part []int32, trailer ...int32) string {
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, part)
	_ = binary.Write(h, binary.LittleEndian, trailer)
	return hex.EncodeToString(h.Sum(nil))
}

// reducedBoxDual is the experiment harness's default (non-paper) mesh.
func reducedBoxDual() *dual.Graph { return dual.FromMesh(mesh.Box(12, 9, 6, 4.7, 1.8, 1.2)) }

// TestPartitionPinned pins the serial partitioner's output on the
// harness's reduced and paper-scale duals: any change to matching,
// contraction, growing or refinement that moves one vertex fails here.
func TestPartitionPinned(t *testing.T) {
	reduced := reducedBoxDual()
	paper := dual.FromMesh(mesh.PaperScaleBox())
	cases := []struct {
		name string
		g    *dual.Graph
		k    int
		opt  Options
		want string
	}{
		{"reduced k=2", reduced, 2, Options{}, "851af8a64c33473f1ce3297b2c74c10408afc4a4f4bc0be12eae64fe68be3e54"},
		{"reduced k=8", reduced, 8, Options{}, "a3e8056a7b964611b459ee349604728e493056eb8cb37cca07592956681b7dc7"},
		{"reduced k=64", reduced, 64, Options{}, "bface688ef3bf57334a831cd5669678fd7c81669fd70787ae70b6b3c704fe907"},
		{"paper k=2", paper, 2, Options{}, "ce5836d00ee081b98b0d60d3c75f0026f85ef5818014dffa34e3a184867647d9"},
		{"paper k=8", paper, 8, Options{}, "1f11705b6fcb56d3e667ee3d8d0b136f7ff7b1599adbd39889dd6cd542e8cc2f"},
		{"paper k=64", paper, 64, Options{}, "e60d5f9c794bfda458881b59a49a5d780b8f81e412e195a70a59ea6d54a3ce74"},
		{"reduced k=8 hetero shares", reduced, 8,
			Options{TargetShares: []float64{1, 1, 2, 2, 0.5, 0.5, 1, 1}},
			"e8c84b45d9a7b6fb8f570b4efcfe392a243462b15e61f79dac3888697dd63c0c"},
	}
	for _, c := range cases {
		if got := partSHA256(Partition(c.g, c.k, c.opt)); got != c.want {
			t.Errorf("%s: partition SHA-256 %s, pinned %s", c.name, got, c.want)
		}
	}
}

// TestParallelRepartitionPinned pins one seeded ParallelRepartition at
// P=8 on the reduced dual with skewed weights (the coarse vertex count
// is hashed with the assignment).
func TestParallelRepartitionPinned(t *testing.T) {
	g := reducedBoxDual()
	const p = 8
	prev := Partition(g, p, Options{})
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		wc[v], wr[v] = 1, 1
		if prev[v] < 2 {
			wc[v], wr[v] = 8, 15
		}
	}
	g.SetWeights(wc, wr)
	var res ParallelRepartitionResult
	msg.Run(p, func(c *msg.Comm) {
		r := ParallelRepartition(c, g, p, prev, Options{})
		if c.Rank() == 0 {
			res = r
		}
	})
	const want = "580a29a1263bca81dd6294dbe0044c8936a5ef87f4187929665b38ea2abea6ef"
	if got := partSHA256(res.Part, int32(res.CoarseVerts)); got != want {
		t.Errorf("P=%d: result SHA-256 %s (coarse vertices %d), pinned %s", p, got, res.CoarseVerts, want)
	}
}
