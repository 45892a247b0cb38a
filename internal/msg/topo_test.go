package msg

import (
	"slices"
	"sync"
	"testing"

	"plum/internal/machine"
)

// The collectives are built on Send/Recv, so installing a machine.Model
// must make their simulated cost topology-dependent: the same broadcast
// is cheaper on a machine whose links are faster, and an SMP cluster
// sits between its all-intra and all-inter bounds.  These tests are the
// satellite requirement that "broadcast/allreduce costs must depend on
// topology"; go test -race over this package exercises the engine's
// token handoff under the race detector.

// bcastCost runs a P-rank broadcast of n bytes under the model and
// returns the makespan.
func bcastCost(p int, model *CostModel, n int) float64 {
	payload := make([]byte, n)
	times := RunModel(p, model, func(c *Comm) {
		c.Bcast(0, payload)
	})
	return MaxTime(times)
}

func TestBcastCostDependsOnTopology(t *testing.T) {
	const p, n = 8, 4096
	intra, inter := machine.SMPIntraLink(), machine.SP2Link()
	base := &CostModel{}
	smp := base.WithTopo(machine.NewSMPCluster(p, 4, intra, inter))
	allIntra := base.WithTopo(machine.NewFlat(p, intra))
	allInter := base.WithTopo(machine.NewFlat(p, inter))

	cSMP, cIntra, cInter := bcastCost(p, smp, n), bcastCost(p, allIntra, n), bcastCost(p, allInter, n)
	if !(cIntra < cSMP && cSMP < cInter) {
		t.Errorf("broadcast costs not ordered: all-intra %.6g < smp %.6g < all-inter %.6g expected",
			cIntra, cSMP, cInter)
	}
}

func TestAllreduceCostDependsOnTopology(t *testing.T) {
	const p = 8
	intra, inter := machine.SMPIntraLink(), machine.SP2Link()
	base := &CostModel{}
	cost := func(m *CostModel) float64 {
		times := RunModel(p, m, func(c *Comm) {
			c.AllreduceFloat64(float64(c.Rank()), SumFloat64)
		})
		return MaxTime(times)
	}
	cSMP := cost(base.WithTopo(machine.NewSMPCluster(p, 4, intra, inter)))
	cIntra := cost(base.WithTopo(machine.NewFlat(p, intra)))
	cInter := cost(base.WithTopo(machine.NewFlat(p, inter)))
	if !(cIntra < cSMP && cSMP < cInter) {
		t.Errorf("allreduce costs not ordered: all-intra %.6g < smp %.6g < all-inter %.6g expected",
			cIntra, cSMP, cInter)
	}
}

// TestFlatTopoBitwiseNoOp: a model with a nil Topo runs on the flat
// machine of its own scalars, so it charges exactly what an explicit
// machine.Flat built from those scalars charges.  The non-SP2 row
// catches a resolver that ignores the model's constants.
func TestFlatTopoBitwiseNoOp(t *testing.T) {
	const p = 8
	for _, scalar := range []*CostModel{
		SP2Model(),
		{TSetup: 3e-6, TByte: 1.0 / 900e6, TLatency: 7e-6, TWork: 2.5e-7},
	} {
		flat := scalar.WithTopo(machine.NewFlat(p, machine.LinkParams{
			Setup: scalar.TSetup, PerByte: scalar.TByte, Latency: scalar.TLatency}))
		run := func(m *CostModel) []float64 {
			return RunModel(p, m, func(c *Comm) {
				c.Compute(137)
				parts := make([][]byte, p)
				for i := range parts {
					parts[i] = make([]byte, 64+8*i)
				}
				c.Alltoall(parts)
				c.AllreduceInt64(int64(c.Rank()), SumInt64)
				c.Bcast(0, make([]byte, 1000))
				c.Barrier()
			})
		}
		a, b := run(scalar), run(flat)
		for r := range a {
			if a[r] != b[r] {
				t.Fatalf("%+v rank %d: nil topo %v != flat topo %v (must be bitwise identical)",
					*scalar, r, a[r], b[r])
			}
		}
	}
}

// TestSharedModelStaysUnresolved: concurrent worlds sharing one
// nil-Topo model each resolve their own flat machine; none writes it
// into the shared model (go test -race checks the no-write half).
func TestSharedModelStaysUnresolved(t *testing.T) {
	model := SP2Model()
	var wg sync.WaitGroup
	times := make([][]float64, 2)
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = RunModel(4, model, func(c *Comm) {
				c.AllreduceInt64(int64(c.Rank()), SumInt64)
			})
		}()
	}
	wg.Wait()
	if model.Topo != nil {
		t.Fatalf("runWorld installed %v into the caller's model", model.Topo.Name())
	}
	if !slices.Equal(times[0], times[1]) || MaxTime(times[0]) == 0 {
		t.Errorf("concurrent worlds disagree or ran untimed: %v vs %v", times[0], times[1])
	}
}

// TestHeteroComputeSlowdown: compute charges scale with per-rank speed.
func TestHeteroComputeSlowdown(t *testing.T) {
	const p = 4
	model := &CostModel{TWork: 2e-6}
	topo := machine.NewHetero(machine.NewFlat(p, machine.SP2Link()),
		machine.TwoGenerationSpeeds(p, 0.5))
	times := RunModel(p, model.WithTopo(topo), func(c *Comm) {
		c.Compute(1000)
	})
	for r := 0; r < p; r++ {
		want := 1000 * model.TWork
		if r >= (p+1)/2 {
			want *= 2 // half-speed generation
		}
		if times[r] != want {
			t.Errorf("rank %d compute time %v, want %v", r, times[r], want)
		}
	}
}

// TestFatTreeUplinkContention: two co-located ranks bursting off-group
// traffic at the same simulated instant serialize on their shared
// up-link, so the slower of the two arrivals lands one full
// serialization later than on a contention-free tree.  (The engine's
// reservation pass orders the tie by rank — rank 0 injects first — so
// rank 5's receive is the delayed one, deterministically.)
func TestFatTreeUplinkContention(t *testing.T) {
	const p, n = 8, 10000
	link := machine.LinkParams{Setup: 0, PerByte: 1e-6, Latency: 0}
	contended := machine.NewFatTree(p, 4, link, 0, 1e-6)
	free := machine.NewFatTree(p, 4, link, 0, 0) // infinitely fast up-link
	model := &CostModel{}
	makespan := func(topo machine.Model) float64 {
		times := RunModel(p, model.WithTopo(topo), func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Send(4, 1, make([]byte, n))
			case 1:
				c.Send(5, 1, make([]byte, n))
			case 4:
				c.Recv(0, 1)
			case 5:
				c.Recv(1, 1)
			}
		})
		if times[4] > times[5] {
			return times[4]
		}
		return times[5]
	}
	tc, tf := makespan(contended), makespan(free)
	if tc <= tf {
		t.Fatalf("contended makespan %v not later than contention-free %v", tc, tf)
	}
	if extra := tc - tf; extra < float64(n)*1e-6*0.99 {
		t.Errorf("up-link serialization delay %v, want ~%v", extra, float64(n)*1e-6)
	}
}

// TestFatTreeLatencyGrowsWithHops: receiving from a distant leaf takes
// longer than from a same-group leaf.
func TestFatTreeLatencyGrowsWithHops(t *testing.T) {
	const p = 16
	topo := machine.NewFatTree(p, 4, machine.LinkParams{}, 100e-6, 0)
	model := &CostModel{}
	arrival := func(src int) float64 {
		times := RunModel(p, model.WithTopo(topo), func(c *Comm) {
			if c.Rank() == src {
				c.Send(0, 1, []byte{1})
			}
			if c.Rank() == 0 {
				c.Recv(src, 1)
			}
		})
		return times[0]
	}
	near, far := arrival(1), arrival(15)
	if near >= far {
		t.Errorf("near-leaf arrival %v >= far-leaf arrival %v", near, far)
	}
}
