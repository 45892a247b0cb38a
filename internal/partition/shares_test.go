package partition

import (
	"testing"

	"plum/internal/dual"
	"plum/internal/msg"
)

// Hetero-aware balancing: with TargetShares installed, part loads must
// track the shares — a half-speed rank's part carries about half the
// work — while nil shares keep the uniform behaviour bit for bit.

func shareLoads(g *dual.Graph, part []int32, k int) []int64 {
	return PartWeights(g, part, k)
}

func TestPartitionTargetShares(t *testing.T) {
	g := boxGraph(6, 6, 6)
	const k = 4
	opt := Options{TargetShares: []float64{1, 1, 0.5, 0.5}}
	part := Partition(g, k, opt)
	w := shareLoads(g, part, k)
	total := g.TotalWComp()
	// Ideal: fast parts get total/3 each, slow parts total/6 each.
	for p, share := range opt.TargetShares {
		ideal := float64(total) * share / 3.0
		if ratio := float64(w[p]) / ideal; ratio < 0.75 || ratio > 1.15 {
			t.Errorf("part %d load %d is %.2fx its share-scaled ideal %.0f",
				p, w[p], ratio, ideal)
		}
	}
	// The slow parts must be genuinely lighter than the fast ones.
	if w[2] >= w[0] || w[3] >= w[1] {
		t.Errorf("half-share parts not lighter: loads %v", w)
	}
}

func TestRepartitionTargetShares(t *testing.T) {
	g := boxGraph(6, 6, 6)
	const k = 4
	prev := Partition(g, k, Options{})
	opt := Options{TargetShares: []float64{1, 1, 1, 0.25}}
	part := Repartition(g, k, prev, opt)
	w := shareLoads(g, part, k)
	for p := 0; p < 3; p++ {
		if w[3] >= w[p] {
			t.Errorf("quarter-share part 3 (%d) not lighter than part %d (%d): %v",
				w[3], p, w[p], w)
		}
	}
}

func TestParallelRepartitionTargetShares(t *testing.T) {
	g := boxGraph(6, 6, 4)
	const p = 4
	prev := Partition(g, p, Options{})
	opt := Options{TargetShares: []float64{1, 1, 0.5, 0.5}}
	msg.Run(p, func(c *msg.Comm) {
		res := ParallelRepartition(c, g, p, prev, opt)
		w := shareLoads(g, res.Part, p)
		if c.Rank() == 0 {
			if w[2] >= w[0] || w[3] >= w[1] {
				t.Errorf("half-share parts not lighter after parallel repartition: %v", w)
			}
		}
	})
}

func TestTargetSharesLengthValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched TargetShares length")
		}
	}()
	g := boxGraph(3, 3, 3)
	opt := Options{TargetShares: []float64{1, 1}}
	Partition(g, 4, opt)
}
