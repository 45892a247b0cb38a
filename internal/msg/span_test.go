package msg

import (
	"bytes"
	"math"
	"testing"

	"plum/internal/event"
	"plum/internal/machine"
)

// spanWorkload is an imbalanced, contended epoch body: co-located ranks
// burst off-group traffic through a tapered fat-tree up-link (queueing)
// while the senders' compute lags stagger the arrivals (sender-compute
// blame), with a collective epoch barrier on top.
func spanWorkload(c *Comm) {
	p := c.Size()
	c.PushPhase(event.PhaseSolve)
	c.Compute(float64(1000 * (1 + c.Rank())))
	c.PushPhase(event.PhaseHalo)
	if c.Rank() < p/2 {
		c.Send(c.Rank()+p/2, 1, make([]byte, 20000))
	} else {
		c.Recv(c.Rank()-p/2, 1)
	}
	c.PopPhase()
	c.PopPhase()
	c.AllreduceInt64(int64(c.Rank()), SumInt64)
	c.Barrier()
}

func fatTreeModel(p int) *CostModel {
	topo, err := machine.ByName("fattree", p)
	if err != nil {
		panic(err)
	}
	return SP2Model().WithTopo(topo)
}

// TestSpanPhaseNesting: the phase stack produces properly nested spans
// and stamps every record with its innermost open phase.
func TestSpanPhaseNesting(t *testing.T) {
	const p = 8
	_, tr, sl := RunTracedSpans(p, fatTreeModel(p), event.SpanOptions{}, spanWorkload)
	spans := sl.All()
	byPhase := map[event.Phase]int{}
	for _, sp := range spans {
		byPhase[sp.Phase]++
		if sp.T1 < sp.T0 {
			t.Errorf("span %+v runs backwards", sp)
		}
		if sp.Phase == event.PhaseHalo && sp.Depth != 1 {
			t.Errorf("halo span depth = %d, want 1 (nested in solve)", sp.Depth)
		}
		if sp.Phase == event.PhaseSolve && sp.Depth != 0 {
			t.Errorf("solve span depth = %d, want 0", sp.Depth)
		}
	}
	if byPhase[event.PhaseSolve] != p || byPhase[event.PhaseHalo] != p {
		t.Errorf("span census = %v, want %d solve and %d halo", byPhase, p, p)
	}
	if byPhase[event.PhaseCollective] == 0 {
		t.Error("collectives produced no spans")
	}
	phased := 0
	for _, r := range tr.Records {
		if r.Phase != event.PhaseNone {
			phased++
		}
	}
	if phased == 0 {
		t.Error("no record carries a phase stamp")
	}
}

// TestSpanStreamDeterministicRepeat: two identical runs produce
// byte-identical span streams.
func TestSpanStreamDeterministicRepeat(t *testing.T) {
	const p = 8
	stream := func() string {
		var buf bytes.Buffer
		_, _, sl := RunTracedSpans(p, fatTreeModel(p),
			event.SpanOptions{Sink: &buf, Label: map[string]string{"exp": "t"}},
			func(c *Comm) {
				spanWorkload(c)
				if c.Rank() == 0 {
					tr := c.Trace()
					sub := &event.Trace{P: c.Size(), Records: tr.Records}
					cp := event.CriticalPath(sub)
					c.Spans().CutEpoch(event.WaitBlame(sub, &cp))
				}
			})
		if err := sl.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := stream(), stream()
	if a != b {
		t.Errorf("span streams differ across identical runs:\n--- a\n%s--- b\n%s", a, b)
	}
}

// TestSpansDoNotPerturb: recording spans must not move a single
// simulated clock — rank times are bitwise identical across the plain,
// traced, and traced+spans runs.
func TestSpansDoNotPerturb(t *testing.T) {
	const p = 8
	plain := RunModel(p, fatTreeModel(p), spanWorkload)
	var buf bytes.Buffer
	spanned, _, _ := RunTracedSpans(p, fatTreeModel(p),
		event.SpanOptions{Sink: &buf}, spanWorkload)
	for r := range plain {
		if plain[r] != spanned[r] {
			t.Errorf("rank %d: plain %v != spanned %v (must be bitwise identical)",
				r, plain[r], spanned[r])
		}
	}
}

// TestBlameConservationContended: on a real contended fat-tree run the
// attributed seconds sum exactly (up to float accumulation) to the
// critical path's receiver-perspective wait, with every bucket the
// workload provokes non-empty.
func TestBlameConservationContended(t *testing.T) {
	const p = 8
	_, tr := RunTraced(p, fatTreeModel(p), func(c *Comm) {
		for i := 0; i < 3; i++ {
			spanWorkload(c)
		}
	})
	cp := event.CriticalPath(tr)
	b := event.WaitBlame(tr, &cp)

	var want float64
	for i, st := range cp.Steps {
		if st.Kind == event.KindRecv && st.Arrival > st.T0 {
			want += st.Arrival - st.T0
		} else if i > 0 && cp.Steps[i-1].Rank == st.Rank {
			if gap := st.T0 - cp.Steps[i-1].T1; gap > 0 {
				want += gap
			}
		}
	}
	if want == 0 {
		t.Fatal("critical path has no wait; workload does not exercise blame")
	}
	if diff := math.Abs(b.Wait - want); diff > 1e-9*(1+want) {
		t.Errorf("blame total %.17g != path wait %.17g (diff %g)", b.Wait, want, diff)
	}
	var sum float64
	for _, v := range b.ByKind {
		sum += v
	}
	if diff := math.Abs(sum - b.Wait); diff > 1e-9*(1+b.Wait) {
		t.Errorf("by-kind sum %.17g != total %.17g", sum, b.Wait)
	}
	if b.ByKind[event.BlameSenderCompute] == 0 {
		t.Error("imbalanced compute produced no sender-compute blame")
	}
	if b.ByKind[event.BlameWire] == 0 {
		t.Error("no wire blame on a latency-bearing topology")
	}
	if len(b.Edges) == 0 {
		t.Error("no causality edges recorded")
	}
}

// TestBlameConservationCollectives: conservation also holds when the
// path runs through collective trees (the common steady-state shape).
func TestBlameConservationCollectives(t *testing.T) {
	const p = 8
	topo, err := machine.ByName("smp", p)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := RunTraced(p, SP2Model().WithTopo(topo), func(c *Comm) {
		for i := 0; i < 4; i++ {
			c.Compute(float64(100 * (1 + c.Rank()%3)))
			c.AllreduceFloat64(float64(c.Rank()), SumFloat64)
			c.Bcast(0, make([]byte, 4096))
		}
	})
	cp := event.CriticalPath(tr)
	b := event.WaitBlame(tr, &cp)
	var want float64
	for i, st := range cp.Steps {
		if st.Kind == event.KindRecv && st.Arrival > st.T0 {
			want += st.Arrival - st.T0
		} else if i > 0 && cp.Steps[i-1].Rank == st.Rank {
			if gap := st.T0 - cp.Steps[i-1].T1; gap > 0 {
				want += gap
			}
		}
	}
	if diff := math.Abs(b.Wait - want); diff > 1e-9*(1+want) {
		t.Errorf("blame total %.17g != path wait %.17g", b.Wait, want)
	}
}
