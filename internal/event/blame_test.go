package event

import (
	"math"
	"testing"
)

// The hand-built traces below exercise each attribution rule with
// numbers chosen so every expected split is exact in float64.

// pathRecvWait computes the receiver-perspective wait of a critical
// path — the quantity WaitBlame must partition exactly: for each
// on-path waiting receive the interval [T0, Arrival], plus each
// on-path same-rank idle gap.
func pathRecvWait(cp *Path) float64 {
	var w float64
	for i, st := range cp.Steps {
		if st.Kind == KindRecv && st.Arrival > st.T0 {
			w += st.Arrival - st.T0
		} else if i > 0 && cp.Steps[i-1].Rank == st.Rank {
			if gap := st.T0 - cp.Steps[i-1].T1; gap > 0 {
				w += gap
			}
		}
	}
	return w
}

func checkConservation(t *testing.T, tr *Trace, b *BlameReport, cp *Path) {
	t.Helper()
	want := pathRecvWait(cp)
	if diff := math.Abs(b.Wait - want); diff > 1e-12*(1+want) {
		t.Errorf("blame total %.17g != path recv-wait %.17g (diff %g)", b.Wait, want, diff)
	}
	var sum float64
	for _, v := range b.ByKind {
		sum += v
	}
	if diff := math.Abs(sum - b.Wait); diff > 1e-12*(1+b.Wait) {
		t.Errorf("by-kind sum %.17g != blame total %.17g", sum, b.Wait)
	}
	var lagSum float64
	for _, row := range b.Lag {
		for _, v := range row {
			lagSum += v
		}
	}
	kinds := b.ByKind[BlameSenderCompute] + b.ByKind[BlameSenderOverhead]
	if diff := math.Abs(lagSum - kinds); diff > 1e-12*(1+kinds) {
		t.Errorf("lag table sum %.17g != sender compute+overhead %.17g", lagSum, kinds)
	}
}

// TestBlameSenderComputeLag: the producer was computing for most of the
// receiver's wait; the split is compute lag + injection overhead + wire.
func TestBlameSenderComputeLag(t *testing.T) {
	tr := &Trace{P: 2, Records: []Record{
		{Rank: 1, Kind: KindCompute, T0: 0, T1: 5, Peer: -1, Phase: PhaseSolve},
		{Rank: 1, Kind: KindSend, T0: 5, T1: 6, Peer: 0, MsgID: 1, Depart: 6},
		{Rank: 0, Kind: KindRecv, T0: 0, T1: 7.5, Peer: 1, MsgID: 1, Arrival: 7},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	checkConservation(t, tr, b, &cp)
	if b.Wait != 7 {
		t.Fatalf("Wait = %g, want 7", b.Wait)
	}
	want := [NumBlameKinds]float64{5, 1, 0, 1, 0}
	if b.ByKind != want {
		t.Errorf("ByKind = %v, want %v", b.ByKind, want)
	}
	if b.Lag[1][PhaseSolve] != 5 {
		t.Errorf("Lag[1][solve] = %g, want 5", b.Lag[1][PhaseSolve])
	}
	if len(b.Edges) != 1 || b.Edges[0] != (EdgeBlame{Src: 1, Dst: 0, Queue: 0, Wire: 1, Count: 1}) {
		t.Errorf("Edges = %+v", b.Edges)
	}
}

// TestBlameContention: the message sat two seconds in a shared-link
// queue after the sender finished (Depart > T1).
func TestBlameContention(t *testing.T) {
	tr := &Trace{P: 2, Records: []Record{
		{Rank: 1, Kind: KindCompute, T0: 0, T1: 3, Peer: -1, Phase: PhaseHalo},
		{Rank: 1, Kind: KindSend, T0: 3, T1: 4, Peer: 0, MsgID: 1, Depart: 6},
		{Rank: 0, Kind: KindRecv, T0: 2, T1: 7.5, Peer: 1, MsgID: 1, Arrival: 7},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	checkConservation(t, tr, b, &cp)
	if b.Wait != 5 {
		t.Fatalf("Wait = %g, want 5", b.Wait)
	}
	// [2,3] sender compute, [3,4] injection, [4,6] queue, [6,7] wire.
	want := [NumBlameKinds]float64{1, 1, 2, 1, 0}
	if b.ByKind != want {
		t.Errorf("ByKind = %v, want %v", b.ByKind, want)
	}
	if len(b.Edges) != 1 || b.Edges[0].Queue != 2 || b.Edges[0].Wire != 1 {
		t.Errorf("Edges = %+v", b.Edges)
	}
}

// TestBlameTransitive: rank 2 waits on rank 1, whose own wait was rank
// 0's fault — the attribution must recurse to the true culprit.
func TestBlameTransitive(t *testing.T) {
	tr := &Trace{P: 3, Records: []Record{
		{Rank: 0, Kind: KindCompute, T0: 0, T1: 4, Peer: -1, Phase: PhaseRefine},
		{Rank: 0, Kind: KindSend, T0: 4, T1: 5, Peer: 1, MsgID: 1, Depart: 5},
		{Rank: 1, Kind: KindRecv, T0: 0, T1: 6.5, Peer: 0, MsgID: 1, Arrival: 6},
		{Rank: 1, Kind: KindSend, T0: 6.5, T1: 7, Peer: 2, MsgID: 2, Depart: 7},
		{Rank: 2, Kind: KindRecv, T0: 0, T1: 8.5, Peer: 1, MsgID: 2, Arrival: 8},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	checkConservation(t, tr, b, &cp)
	// recv r1 waits [0,6]: 4 compute(r0) + 1 send(r0) + 1 wire.
	// recv r2 waits [0,8]: transitively 4 compute(r0) + 1 send(r0) +
	// 1 wire + 0.5 copy-out(r1) + 0.5 send(r1) + 1 wire.
	if b.Wait != 14 {
		t.Fatalf("Wait = %g, want 14", b.Wait)
	}
	want := [NumBlameKinds]float64{8, 3, 0, 3, 0}
	if b.ByKind != want {
		t.Errorf("ByKind = %v, want %v", b.ByKind, want)
	}
	if b.Lag[0][PhaseRefine] != 8 {
		t.Errorf("Lag[0][refine] = %g, want 8 (transitive compute lag)", b.Lag[0][PhaseRefine])
	}
}

// TestBlameRejectsForeignPath: a path walked over a window indexes the
// window's records, so handing WaitBlame the whole trace with it must
// fail loudly instead of reading the wrong send records.
func TestBlameRejectsForeignPath(t *testing.T) {
	tr := &Trace{P: 2, Records: []Record{
		{Rank: 1, Kind: KindCompute, T0: 0, T1: 1, Peer: -1},
		{Rank: 1, Kind: KindSend, T0: 5, T1: 6, Peer: 0, MsgID: 1, Depart: 6},
		{Rank: 0, Kind: KindRecv, T0: 0, T1: 7.5, Peer: 1, MsgID: 1, Arrival: 7},
	}}
	cp := CriticalPath(&Trace{P: 2, Records: tr.Records[1:]})
	defer func() {
		if recover() == nil {
			t.Error("WaitBlame accepted a path indexed over a different record slice")
		}
	}()
	WaitBlame(tr, &cp)
}

// TestBlameUntracedProducer: a receive whose message has no send record
// charges the whole wait as idle (and the path walk stays consistent).
func TestBlameUntracedProducer(t *testing.T) {
	tr := &Trace{P: 1, Records: []Record{
		{Rank: 0, Kind: KindRecv, T0: 0, T1: 3, Peer: -1, MsgID: 99, Arrival: 2.5},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	checkConservation(t, tr, b, &cp)
	if b.ByKind[BlameIdle] != 2.5 || b.Wait != 2.5 {
		t.Errorf("ByKind = %v, Wait = %g; want all 2.5 idle", b.ByKind, b.Wait)
	}
}

// TestBlameSameRankGap: an idle gap between back-to-back on-path
// operations of one rank is charged as idle.
func TestBlameSameRankGap(t *testing.T) {
	tr := &Trace{P: 1, Records: []Record{
		{Rank: 0, Kind: KindCompute, T0: 0, T1: 1, Peer: -1},
		{Rank: 0, Kind: KindCompute, T0: 3, T1: 4, Peer: -1},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	checkConservation(t, tr, b, &cp)
	if b.ByKind[BlameIdle] != 2 || b.Wait != 2 {
		t.Errorf("ByKind = %v, Wait = %g; want 2s idle", b.ByKind, b.Wait)
	}
}

// TestBlameSenderIdleResidue: part of the sender's window is covered by
// no record at all — the uncovered residue must fall to idle, keeping
// the attribution measure-preserving.
func TestBlameSenderIdleResidue(t *testing.T) {
	tr := &Trace{P: 2, Records: []Record{
		{Rank: 1, Kind: KindCompute, T0: 2, T1: 5, Peer: -1, Phase: PhaseMigrate},
		{Rank: 1, Kind: KindSend, T0: 5, T1: 6, Peer: 0, MsgID: 1, Depart: 6},
		{Rank: 0, Kind: KindRecv, T0: 0, T1: 7.5, Peer: 1, MsgID: 1, Arrival: 7},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	checkConservation(t, tr, b, &cp)
	// [0,2] sender idle, [2,5] compute, [5,6] injection, [6,7] wire.
	want := [NumBlameKinds]float64{3, 1, 0, 1, 2}
	if b.ByKind != want {
		t.Errorf("ByKind = %v, want %v", b.ByKind, want)
	}
}

// TestBlameSummaryFoldsOther: the bounded epoch summary folds lag cells
// past top-k into lag_other so the serialized form stays conservative.
func TestBlameSummaryFoldsOther(t *testing.T) {
	tr := &Trace{P: 2, Records: []Record{
		{Rank: 1, Kind: KindCompute, T0: 0, T1: 5, Peer: -1, Phase: PhaseSolve},
		{Rank: 1, Kind: KindSend, T0: 5, T1: 6, Peer: 0, MsgID: 1, Depart: 6},
		{Rank: 0, Kind: KindRecv, T0: 0, T1: 7.5, Peer: 1, MsgID: 1, Arrival: 7},
	}}
	cp := CriticalPath(tr)
	b := WaitBlame(tr, &cp)
	sum := b.Summary(3, 1)
	if sum.Epoch != 3 || sum.Wait != b.Wait {
		t.Fatalf("summary header = %+v", sum)
	}
	if len(sum.Lag) != 1 {
		t.Fatalf("Lag = %+v, want exactly top-1", sum.Lag)
	}
	var inTop float64
	for _, l := range sum.Lag {
		inTop += l.Seconds
	}
	total := sum.SenderCompute + sum.SenderOverhead
	if diff := math.Abs(inTop + sum.LagOther - total); diff > 1e-12 {
		t.Errorf("top lag %g + other %g != sender lag %g", inTop, sum.LagOther, total)
	}
}
