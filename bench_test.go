// Micro-benchmarks of what nothing else times: ablations of the design
// choices the paper calls out, the machine-model and calendar-queue hot
// paths, and the parallel-world harness.  The paper's tables and figures
// are regenerated by `cmd/plumbench -exp`, and every layer's host time
// is measured by the repository benchmark (`bash benchmark/run.sh`, see
// benchmark/README.md) — a path either of those times has no benchmark
// here.  Benchmarks run at reduced scale so `go test -bench=.`
// completes quickly.
package plum_test

import (
	"testing"

	"plum/internal/core"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/partition"
	"plum/internal/remap"
)

// benchExperiments builds the reduced-scale harness once.
func benchExperiments(b *testing.B) *core.Experiments {
	b.Helper()
	return core.NewExperiments(false)
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md Section 5).

// BenchmarkRepartitionSeeding measures the remapping-cost benefit of
// seeding the repartitioner with the previous partition (the parallel
// MeTiS behaviour the paper highlights in Section 4.2).
func BenchmarkRepartitionSeeding(b *testing.B) {
	e := benchExperiments(b)
	g := e.Dual
	prev := partition.Partition(g, 8, partition.Options{})
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		wc[v] = 1
		if prev[v] == 0 {
			wc[v] = 4
		}
		wr[v] = 1
	}
	gw := g.WithWeights(wc, wr)
	for _, seeded := range []bool{true, false} {
		name := "scratch"
		if seeded {
			name = "seeded"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var part []int32
				if seeded {
					part = partition.Repartition(gw, 8, prev, partition.Options{})
				} else {
					part = partition.Partition(gw, 8, partition.Options{})
				}
				moved := 0
				for v := range part {
					if part[v] != prev[v] {
						moved++
					}
				}
				b.ReportMetric(float64(moved), "verts-moved")
				b.ReportMetric(float64(partition.EdgeCut(gw, part)), "edge-cut")
			}
		})
	}
}

// BenchmarkFGranularity sweeps F (partitions per processor, paper
// Section 4.3): finer granularity reduces movement at higher mapping
// cost.
func BenchmarkFGranularity(b *testing.B) {
	e := benchExperiments(b)
	g := e.Dual
	p := 8
	prev := partition.Partition(g, p, partition.Options{})
	wc := make([]int64, g.NumVerts())
	wr := make([]int64, g.NumVerts())
	for v := range wc {
		wc[v] = 1 + int64(v%5)
		wr[v] = wc[v]
	}
	gw := g.WithWeights(wc, wr)
	for _, f := range []int{1, 2, 4} {
		b.Run("F="+itoa(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newPart := partition.Repartition(gw, p*f, prev, partition.Options{})
				// Owner per vertex under F partitions per processor.
				owner := make([]int32, g.NumVerts())
				for v := range owner {
					owner[v] = prev[v]
				}
				s := remap.BuildSimilarity(gw.WRemap, owner, newPart, p, f)
				assign := remap.HeuristicMWBG(s)
				mc := remap.Cost(s, assign)
				b.ReportMetric(float64(mc.CTotal), "weight-moved")
			}
		})
	}
}

// BenchmarkAgglomeration measures the partitioning-time benefit of
// superelement agglomeration (paper Section 4.1's mitigation for very
// large initial meshes).
func BenchmarkAgglomeration(b *testing.B) {
	e := benchExperiments(b)
	for _, size := range []int{1, 4, 16} {
		b.Run("size="+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cg, cmap := dual.Agglomerate(e.Dual, size)
				cpart := partition.Partition(cg, 8, partition.Options{})
				part := dual.ProjectPartition(cpart, cmap)
				b.ReportMetric(float64(partition.EdgeCut(e.Dual, part)), "edge-cut")
				b.ReportMetric(partition.Imbalance(e.Dual, part, 8), "imbalance")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------
// Machine-model benchmarks: the per-pair cost lookup sits on the send
// and receive path of every simulated message, and the up-link
// contention queue is the only mutex the fat tree takes per off-group
// transfer.  Future model changes must keep both flat.

// BenchmarkMachinePairLookup measures Model.Pair across the four
// topologies at P=64 (the paper's largest machine).
func BenchmarkMachinePairLookup(b *testing.B) {
	const p = 64
	for _, name := range machine.Names() {
		m, err := machine.ByName(name, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				lp := m.Pair(i%p, (i*7+3)%p)
				sink += lp.Setup
			}
			benchSinkFloat = sink
		})
	}
}

// BenchmarkMachineHops measures the hop-distance metric MapTopo
// evaluates O(P^2) times per similarity matrix.
func BenchmarkMachineHops(b *testing.B) {
	const p = 64
	for _, name := range machine.Names() {
		m, err := machine.ByName(name, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += m.Hops(i%p, (i*7+3)%p)
			}
			benchSinkInt = sink
		})
	}
}

// BenchmarkMachineContention measures the fat-tree up-link reservation
// hot path: serial reservations on one group's up-link (the worst case
// a bursting rank sees) and off-group transfers spread over all groups.
func BenchmarkMachineContention(b *testing.B) {
	const p = 64
	ft := machine.NewFatTree(p, 4, machine.SP2Link(), 10e-6, machine.SP2Link().PerByte)
	b.Run("same-uplink", func(b *testing.B) {
		ft.Reset()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = ft.Acquire(0, 32, 1024, sink)
		}
		benchSinkFloat = sink
	})
	b.Run("spread-uplinks", func(b *testing.B) {
		ft.Reset()
		var sink float64
		for i := 0; i < b.N; i++ {
			src := (i * 4) % p
			sink = ft.Acquire(src, (src+32)%p, 1024, sink)
		}
		benchSinkFloat = sink
	})
}

var (
	benchSinkFloat float64
	benchSinkInt   int
)

// ---------------------------------------------------------------------
// Event-engine benchmark: the calendar queue is touched on every yield,
// block, and wake of every simulated rank.  Future engine changes must
// keep it flat.

// BenchmarkEventQueue measures calendar push/pop at engine-realistic
// populations (one entry per live rank).
func BenchmarkEventQueue(b *testing.B) {
	for _, p := range []int{8, 64, 1024} {
		b.Run("P="+itoa(p), func(b *testing.B) {
			var c event.Calendar
			for i := 0; i < p; i++ {
				c.Push(event.Entry{Time: float64((i * 37) % 101), ID: i, Seq: int64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := c.Pop()
				e.Time += float64((i % 13)) * 0.25
				e.Seq = int64(p + i)
				c.Push(e)
			}
			benchSinkInt = c.Len()
		})
	}
}

// BenchmarkMachineSweepWorlds measures the parallel-world harness on
// the machine sweep (2 topologies x 2 mappers x one P): wall-clock
// scales with host cores while every row stays bitwise fixed.
func BenchmarkMachineSweepWorlds(b *testing.B) {
	e := core.NewExperiments(false)
	e.Ps = []int{8}
	for i := 0; i < b.N; i++ {
		rows := e.MachineSweep(0.33, []string{"smp", "fattree"}, core.MachineMappers())
		benchSinkInt = len(rows)
	}
}
