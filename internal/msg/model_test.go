package msg

import (
	"math"
	"testing"
)

// TestBcastLogDepth: under the machine model a binomial-tree broadcast
// of a large payload should cost O(log P) hops, not O(P).
func TestBcastLogDepth(t *testing.T) {
	model := &CostModel{TSetup: 0, TByte: 1, TLatency: 0, TWork: 0}
	payload := make([]byte, 1000) // 1000 time units per hop
	cost := func(p int) float64 {
		times := RunModel(p, model, func(c *Comm) {
			c.Bcast(0, payload)
		})
		return MaxTime(times)
	}
	c2, c16 := cost(2), cost(16)
	// A binomial tree with sender-serialized transfers has makespan
	// ~(4+3+2+1) hops at P=16 vs 1 hop at P=2: ratio ~10 with the
	// receive-side copy included; a flat linear broadcast would be ~15.
	ratio := c16 / c2
	if ratio > 12 {
		t.Errorf("broadcast cost ratio P=16/P=2 is %.1f; tree broken (linear would be ~15)", ratio)
	}
	if c16 <= c2 {
		t.Errorf("larger world cannot be cheaper: %v vs %v", c2, c16)
	}
}

// TestGatherLinearAtRoot: a rooted gather costs the root ~P message
// receipts — the paper's reason the similarity-matrix gather stays cheap
// is that each message is tiny, not that the gather is sublinear.
func TestGatherLinearAtRoot(t *testing.T) {
	model := &CostModel{TSetup: 1, TByte: 0, TLatency: 0, TWork: 0}
	cost := func(p int) float64 {
		times := RunModel(p, model, func(c *Comm) {
			c.Gather(0, []byte{1}, make([][]byte, c.Size()))
		})
		return times[0]
	}
	c4, c16 := cost(4), cost(16)
	if c16 < 3*c4 {
		t.Errorf("gather at root should scale ~linearly: P=4 %.0f, P=16 %.0f", c4, c16)
	}
}

// TestAlltoallCost: every rank pays P-1 send setups plus P-1 receive
// setups.
func TestAlltoallCost(t *testing.T) {
	model := &CostModel{TSetup: 1, TByte: 0, TLatency: 0, TWork: 0}
	p := 8
	times := RunModel(p, model, func(c *Comm) {
		parts := make([][]byte, p)
		for i := range parts {
			parts[i] = []byte{byte(i)}
		}
		c.Alltoall(parts, make([][]byte, p))
	})
	for r, tm := range times {
		if math.Abs(tm-float64(2*(p-1))) > 1e-9 {
			t.Errorf("rank %d alltoall cost %v, want %d setups", r, tm, 2*(p-1))
		}
	}
}

// TestSP2ModelSanity: the shipped constants must be positive and give a
// sensible bandwidth/latency relation (setup dominates tiny messages;
// bandwidth dominates megabyte transfers).
func TestSP2ModelSanity(t *testing.T) {
	m := SP2Model()
	if m.TSetup <= 0 || m.TByte <= 0 || m.TLatency <= 0 || m.TWork <= 0 {
		t.Fatal("non-positive model constants")
	}
	tiny := m.TSetup + 8*m.TByte
	if tiny > 10*m.TSetup {
		t.Error("8-byte message should be setup-dominated")
	}
	big := float64(1<<20) * m.TByte
	if big < 100*m.TSetup {
		t.Error("1 MiB message should be bandwidth-dominated")
	}
}

// TestComputeAccumulates: Compute adds work time under the model and is
// a no-op without one.
func TestComputeAccumulates(t *testing.T) {
	times := RunModel(1, &CostModel{TWork: 3}, func(c *Comm) {
		c.Compute(2)
		c.Compute(5)
	})
	if times[0] != 21 {
		t.Errorf("clock = %v, want 21", times[0])
	}
	times = RunModel(1, nil, func(c *Comm) {
		c.Compute(1000)
	})
	if times[0] != 0 {
		t.Errorf("model-less clock = %v, want 0", times[0])
	}
}
