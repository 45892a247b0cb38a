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

// TestSpanNesting: every closed phase joins the trace with its nesting
// depth and its open and close times, in the engine's order;
// event.RankMajor lists them rank by rank, each rank in its own order.
func TestSpanNesting(t *testing.T) {
	_, tr := RunTraced(2, &CostModel{TWork: 1}, func(c *Comm) {
		if c.Rank() == 1 {
			c.PushPhase(event.PhaseSolve)
			c.Compute(5)
			c.PopPhase()
			c.Send(0, 0, nil)
			return
		}
		c.PushPhase(event.PhaseRefine)
		c.Compute(1)
		c.PushPhase(event.PhaseHalo)
		c.Recv(1, 0) // rank 1's solve span closes while this one waits
		c.Compute(1)
		c.PopPhase()
		c.Compute(1)
		c.PopPhase()
	})
	if len(tr.Spans) != 3 || tr.Spans[0].Rank != 1 {
		t.Fatalf("trace spans = %+v, want 3 with rank 1's first", tr.Spans)
	}
	want := []event.Span{
		{Rank: 0, Phase: event.PhaseHalo, Depth: 1, T0: 1, T1: 6},
		{Rank: 0, Phase: event.PhaseRefine, Depth: 0, T0: 0, T1: 7},
		{Rank: 1, Phase: event.PhaseSolve, Depth: 0, T0: 0, T1: 5},
	}
	for i, sp := range event.RankMajor(2, tr.Spans) {
		if sp != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, sp, want[i])
		}
	}
}

// TestPopPhaseWithoutPushPanics: closing a phase no PushPhase opened
// is a program error, raised as the rank's panic.
func TestPopPhaseWithoutPushPanics(t *testing.T) {
	defer func() {
		rp, ok := recover().(*RankPanic)
		if !ok || rp.Rank != 1 || rp.Value != "msg: PopPhase without matching PushPhase" {
			t.Fatalf("recovered %#v, want rank 1's PopPhase panic", rp)
		}
	}()
	Run(2, func(c *Comm) {
		c.PushPhase(event.PhaseSolve)
		c.PopPhase()
		if c.Rank() == 1 {
			c.PopPhase()
		}
	})
}

// TestSpanStraddlesCut: a span rank 1 opened before rank 0 cut the
// epoch and closed after the cut is written in the next epoch, with its
// original T0 and depth.
func TestSpanStraddlesCut(t *testing.T) {
	var buf bytes.Buffer
	sl := event.NewSpanLog(&buf, 2, nil)
	cut := 0
	cutEpoch := func(tr *event.Trace) {
		sl.Cut(tr.Spans[cut:], nil)
		cut = len(tr.Spans)
	}
	_, tr := RunTraced(2, &CostModel{TWork: 1}, func(c *Comm) {
		if c.Rank() == 1 {
			c.PushPhase(event.PhaseMigrate)
			c.Compute(1)
			c.PushPhase(event.PhaseHalo)
			c.Send(0, 0, nil)
			c.Recv(0, 1) // rank 0 cuts epoch 0 meanwhile
			c.PopPhase()
			c.PopPhase()
			c.Send(0, 2, nil)
			return
		}
		c.Recv(1, 0)
		c.PushPhase(event.PhaseSolve)
		c.Compute(2)
		c.PopPhase()
		cutEpoch(c.Trace())
		c.Send(1, 1, nil)
		c.Recv(1, 2)
		cutEpoch(c.Trace())
	})
	if err := sl.Close(tr.Spans[cut:]); err != nil {
		t.Fatal(err)
	}
	worlds, err := event.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []event.Span{
		{Rank: 0, Phase: event.PhaseSolve, Depth: 0, Epoch: 0, T0: 1, T1: 3},
		{Rank: 1, Phase: event.PhaseHalo, Depth: 1, Epoch: 1, T0: 1, T1: 3},
		{Rank: 1, Phase: event.PhaseMigrate, Depth: 0, Epoch: 1, T0: 0, T1: 3},
	}
	w := worlds[0]
	if len(w.Spans) != len(want) || w.Epochs != 2 || w.Written != 3 || !w.Complete {
		t.Fatalf("stream = %+v, want 3 spans over 2 epochs", w)
	}
	for i, sp := range w.Spans {
		if sp != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, sp, want[i])
		}
	}
}

// TestSpanPhaseNesting: the phase stack produces properly nested spans
// and stamps every record with its innermost open phase.
func TestSpanPhaseNesting(t *testing.T) {
	const p = 8
	_, tr := RunTraced(p, fatTreeModel(p), spanWorkload)
	byPhase := map[event.Phase]int{}
	for _, sp := range tr.Spans {
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
		sl := event.NewSpanLog(&buf, p, map[string]string{"exp": "t"})
		cut := 0
		_, tr := RunTraced(p, fatTreeModel(p), func(c *Comm) {
			spanWorkload(c)
			if c.Rank() == 0 {
				tr := c.Trace()
				cp := event.CriticalPath(tr)
				cut = len(tr.Spans)
				sl.Cut(tr.Spans, event.WaitBlame(tr, &cp))
			}
		})
		if err := sl.Close(tr.Spans[cut:]); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := stream(), stream()
	if a != b {
		t.Errorf("span streams differ across identical runs:\n--- a\n%s--- b\n%s", a, b)
	}
}

// TestSpansDoNotPerturb: recording records and spans must not move a
// single simulated clock — rank times are bitwise identical across the
// plain and traced runs.
func TestSpansDoNotPerturb(t *testing.T) {
	const p = 8
	plain := RunModel(p, fatTreeModel(p), spanWorkload)
	spanned, tr := RunTraced(p, fatTreeModel(p), spanWorkload)
	if len(tr.Spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
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
