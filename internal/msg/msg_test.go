package msg

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.rank == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			m := c.Recv(0, 7)
			if string(m.Data) != "hello" {
				t.Errorf("got %q, want hello", m.Data)
			}
			if m.Src != 0 || m.Tag != 7 {
				t.Errorf("envelope = (%d,%d), want (0,7)", m.Src, m.Tag)
			}
		}
	})
}

func TestSendRecvFIFOOrder(t *testing.T) {
	const n = 100
	Run(2, func(c *Comm) {
		if c.rank == 0 {
			for i := 0; i < n; i++ {
				c.SendInts(1, 3, []int64{int64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got := c.RecvInts(0, 3)[0]
				if got != int64(i) {
					t.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestRecvTagSelectivity(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.rank == 0 {
			c.SendInts(1, 1, []int64{11})
			c.SendInts(1, 2, []int64{22})
		} else {
			// Receive in the opposite order of sending: tag matching must
			// pick the right message, not the first arrival.
			if v := c.RecvInts(0, 2)[0]; v != 22 {
				t.Errorf("tag 2 delivered %d", v)
			}
			if v := c.RecvInts(0, 1)[0]; v != 11 {
				t.Errorf("tag 1 delivered %d", v)
			}
		}
	})
}

func TestRecvAnySource(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		if c.rank == 0 {
			seen := make(map[int]bool)
			for i := 1; i < p; i++ {
				m := c.Recv(AnySource, 9)
				seen[m.Src] = true
			}
			if len(seen) != p-1 {
				t.Errorf("received from %d distinct sources, want %d", len(seen), p-1)
			}
		} else {
			c.Send(0, 9, []byte{byte(c.rank)})
		}
	})
}

func TestRecvAnyTag(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.rank == 0 {
			c.Send(1, 5, []byte("a"))
			c.Send(1, 6, []byte("b"))
		} else {
			m1 := c.Recv(0, AnyTag)
			m2 := c.Recv(0, AnyTag)
			// FIFO per pair: any-tag receives must respect arrival order.
			if m1.Tag != 5 || m2.Tag != 6 {
				t.Errorf("any-tag order = %d,%d; want 5,6", m1.Tag, m2.Tag)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.rank == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // mutate after send; receiver must see the original
		} else {
			m := c.Recv(0, 0)
			if m.Data[0] != 1 {
				t.Errorf("payload not copied: got %v", m.Data)
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	const p = 8
	var phase atomic.Int32
	Run(p, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if got := phase.Load(); got != p {
			t.Errorf("rank %d passed barrier with phase=%d, want %d", c.rank, got, p)
		}
	})
}

func TestBcastAllRoots(t *testing.T) {
	const p = 7
	for root := 0; root < p; root++ {
		Run(p, func(c *Comm) {
			var in []byte
			if c.rank == root {
				in = []byte{42, byte(root)}
			}
			out := c.Bcast(root, in)
			if len(out) != 2 || out[0] != 42 || out[1] != byte(root) {
				t.Errorf("root %d rank %d: got %v", root, c.rank, out)
			}
		})
	}
}

func TestGatherToRoot(t *testing.T) {
	const p = 5
	Run(p, func(c *Comm) {
		parts := c.Gather(0, PutInts([]int64{int64(c.rank * 10)}), make([][]byte, p))
		if c.rank == 0 {
			for r := 0; r < p; r++ {
				if got := GetInts(parts[r])[0]; got != int64(r*10) {
					t.Errorf("gathered rank %d value %d", r, got)
				}
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	const p = 6
	Run(p, func(c *Comm) {
		all := c.Allgather(PutInts([]int64{int64(c.rank + 1)}), make([][]byte, p))
		if len(all) != p {
			t.Fatalf("rank %d: got %d parts", c.rank, len(all))
		}
		for r := 0; r < p; r++ {
			if got := GetInts(all[r])[0]; got != int64(r+1) {
				t.Errorf("rank %d: part %d = %d", c.rank, r, got)
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	const p = 9
	Run(p, func(c *Comm) {
		sum := c.AllreduceInt64(int64(c.rank), SumInt64)
		if sum != p*(p-1)/2 {
			t.Errorf("rank %d: allreduce sum = %d", c.rank, sum)
		}
		max := c.AllreduceInt64(int64(c.rank*c.rank), MaxInt64)
		if max != int64((p-1)*(p-1)) {
			t.Errorf("rank %d: allreduce max = %d", c.rank, max)
		}
		fs := c.AllreduceFloat64(float64(c.rank), SumFloat64)
		if fs != float64(p*(p-1)/2) {
			t.Errorf("rank %d: float allreduce = %v", c.rank, fs)
		}
	})
}

func TestAlltoall(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		parts := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			parts[dst] = PutInts([]int64{int64(c.rank*100 + dst)})
		}
		got := c.Alltoall(parts, make([][]byte, p))
		for src := 0; src < p; src++ {
			want := int64(src*100 + c.rank)
			if v := GetInts(got[src])[0]; v != want {
				t.Errorf("rank %d from %d: got %d want %d", c.rank, src, v, want)
			}
		}
	})
}

func TestCollectivesBackToBack(t *testing.T) {
	// Distinct sequence tags must keep consecutive collectives separate
	// even when payload shapes are identical.
	const p = 4
	Run(p, func(c *Comm) {
		a := c.BcastInts(0, []int64{1})
		b := c.BcastInts(0, []int64{2})
		if a[0] != 1 || b[0] != 2 {
			t.Errorf("rank %d: collectives interleaved: %v %v", c.rank, a, b)
		}
	})
}

func TestEncodeRoundTripProperty(t *testing.T) {
	intProp := func(vals []int64) bool {
		return reflect.DeepEqual(GetInts(PutInts(vals)), append([]int64{}, vals...))
	}
	if err := quick.Check(intProp, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulatedClockSend(t *testing.T) {
	model := &CostModel{TSetup: 1, TByte: 0.5, TLatency: 2, TWork: 1}
	times := RunModel(2, model, func(c *Comm) {
		if c.rank == 0 {
			c.Send(1, 0, make([]byte, 4)) // injection cost 1 + 4*0.5 = 3
		} else {
			m := c.Recv(0, 0)
			_ = m
			// arrival = 3 + latency 2 = 5, plus the receiver's own
			// overhead 1 + 4*0.5 = 3 -> 8.
			if c.Elapsed() != 8 {
				t.Errorf("receiver clock %v, want 8", c.Elapsed())
			}
		}
	})
	if times[0] != 3 {
		t.Errorf("sender clock %v, want 3", times[0])
	}
	if times[1] != 8 {
		t.Errorf("receiver clock %v, want 8", times[1])
	}
}

func TestSimulatedClockCompute(t *testing.T) {
	model := &CostModel{TWork: 2}
	times := RunModel(3, model, func(c *Comm) {
		c.Compute(float64(c.rank + 1)) // ranks finish at 2, 4, 6
	})
	want := []float64{2, 4, 6}
	if !reflect.DeepEqual(times, want) {
		t.Errorf("times = %v, want %v", times, want)
	}
}

func TestSimulatedClockBarrierSynchronizes(t *testing.T) {
	model := &CostModel{TWork: 1, TSetup: 0, TByte: 0, TLatency: 0}
	times := RunModel(4, model, func(c *Comm) {
		c.Compute(float64(c.rank * 10)) // slowest rank reaches 30
		c.Barrier()
	})
	for r, tm := range times {
		if tm < 30 {
			t.Errorf("rank %d left barrier at %v, before slowest rank", r, tm)
		}
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate from rank")
		}
	}()
	Run(2, func(c *Comm) {
		if c.rank == 1 {
			panic("boom")
		}
	})
}

func TestMaxTime(t *testing.T) {
	if MaxTime(nil) != 0 {
		t.Error("MaxTime(nil) != 0")
	}
	if got := MaxTime([]float64{1, 5, 3}); got != 5 {
		t.Errorf("MaxTime = %v", got)
	}
}
