package profile

import (
	"reflect"
	"testing"

	"plum/internal/event"
	"plum/internal/machine"
)

// fixedTrace is a hand-built two-rank trace exercising every
// aggregation path: compute spans, sends, a receive that idled on the
// wire under the halo phase, a receive that found its message buffered
// (no wait), a receive wait under the collective phase, and one under a
// non-communication phase (marking) whose producer lies before the
// window, as at the start of an epoch's window.
//
//	rank 0: compute [0, 0.10], send 64B to 1 [0.10, 0.12] (msg 1,
//	        arrival 0.15, halo), compute [0.12, 0.30],
//	        send 128B to 1 [0.30, 0.33] (msg 2, arrival 0.40,
//	        collective), recv msg 3 [0.33, 0.35] (already arrived),
//	        recv msg 4 [0.35, 0.38] (arrival 0.37: 0.02 other wait)
//	rank 1: send 32B to 0 [0, 0.01] (msg 3, arrival 0.02),
//	        recv msg 1 [0.01, 0.16] (arrival 0.15: 0.14 halo wait),
//	        compute [0.16, 0.20],
//	        recv msg 2 [0.20, 0.41] (arrival 0.40: 0.20 collective wait)
func fixedTrace() *event.Trace {
	halo, coll, mark := event.PhaseHalo, event.PhaseCollective, event.PhaseMark
	return &event.Trace{P: 2, Records: []event.Record{
		{Rank: 0, Kind: event.KindCompute, T0: 0, T1: 0.10, Peer: -1},
		{Rank: 1, Kind: event.KindSend, T0: 0, T1: 0.01, Peer: 0, Tag: 7, Bytes: 32, MsgID: 3},
		{Rank: 0, Kind: event.KindSend, T0: 0.10, T1: 0.12, Peer: 1, Tag: 3003, Bytes: 64, MsgID: 1, Phase: halo},
		{Rank: 1, Kind: event.KindRecv, T0: 0.01, T1: 0.16, Peer: 0, Tag: 3003, Bytes: 64, MsgID: 1, Arrival: 0.15, Phase: halo},
		{Rank: 0, Kind: event.KindCompute, T0: 0.12, T1: 0.30, Peer: -1},
		{Rank: 1, Kind: event.KindCompute, T0: 0.16, T1: 0.20, Peer: -1},
		{Rank: 0, Kind: event.KindSend, T0: 0.30, T1: 0.33, Peer: 1, Tag: 1 << 24, Bytes: 128, MsgID: 2, Phase: coll},
		{Rank: 0, Kind: event.KindRecv, T0: 0.33, T1: 0.35, Peer: 1, Tag: 7, Bytes: 32, MsgID: 3, Arrival: 0.02},
		{Rank: 0, Kind: event.KindRecv, T0: 0.35, T1: 0.38, Peer: 1, Tag: 1001, Bytes: 8, MsgID: 4, Arrival: 0.37, Phase: mark},
		{Rank: 1, Kind: event.KindRecv, T0: 0.20, T1: 0.41, Peer: 0, Tag: 1 << 24, Bytes: 128, MsgID: 2, Arrival: 0.40, Phase: coll},
	}}
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestGoldenProfile pins the aggregation of the fixed trace: every
// bucket is a plain sum of the record spans above, so the expected
// values are exact by construction.
func TestGoldenProfile(t *testing.T) {
	p := FromTrace(fixedTrace(), 0, 10, nil)
	if p.P != 2 || len(p.Ranks) != 2 {
		t.Fatalf("profile shape: P=%d ranks=%d", p.P, len(p.Ranks))
	}
	r0, r1 := p.Ranks[0], p.Ranks[1]

	approx(t, "rank0.Compute", r0.Compute, 0.28)
	// sends 0.02+0.03, the waitless recv span 0.02, and the marking
	// receive's post-arrival copy-out 0.01.
	approx(t, "rank0.Overhead", r0.Overhead, 0.08)
	approx(t, "rank0.WaitHalo", r0.WaitHalo, 0)
	approx(t, "rank0.WaitColl", r0.WaitColl, 0)
	approx(t, "rank0.WaitMig", r0.WaitMig, 0)
	approx(t, "rank0.WaitOther", r0.WaitOther, 0.02)

	approx(t, "rank1.Compute", r1.Compute, 0.04)
	// send 0.01 plus post-arrival copy-out 0.01 (halo) + 0.01 (collective).
	approx(t, "rank1.Overhead", r1.Overhead, 0.03)
	approx(t, "rank1.WaitHalo", r1.WaitHalo, 0.14)
	approx(t, "rank1.WaitColl", r1.WaitColl, 0.20)
	approx(t, "rank1.WaitMig", r1.WaitMig, 0)
	approx(t, "rank1.WaitOther", r1.WaitOther, 0)

	// Critical path: rank1's final recv idled until 0.40, so the path
	// crosses to rank 0's send chain.  Makespan 0.41; on the path:
	// compute 0.28, overhead 0.03 (send) + 0.01 (copy-out), wait 0.07
	// (wire 0.33 -> 0.40) + 0.02 (recv without idle... ).
	approx(t, "Makespan", p.Makespan, 0.41)
	approx(t, "path total", p.PathCompute+p.PathOverhead+p.PathWait, 0.41)
	if p.PathWait <= 0 {
		t.Errorf("path wait = %v, want > 0 (the 0.33->0.40 wire span)", p.PathWait)
	}

	// Rank path attribution: waiting receives contribute only their
	// copy-out, so no rank's path seconds exceed the path total.
	if r0.PathSeconds+r1.PathSeconds > 0.41+1e-12 {
		t.Errorf("path attribution overruns makespan: %v + %v", r0.PathSeconds, r1.PathSeconds)
	}
	if s := p.PathShare(0) + p.PathShare(1); s <= 0 || s > 1+1e-12 {
		t.Errorf("path shares sum %v, want in (0, 1]", s)
	}
}

// TestGoldenCalibration pins the rate calibration on the fixed trace
// over a flat 2-rank machine (single hop class): OLS through
// (64B, 0.02s) and (128B, 0.03s) from rank 0 plus (32B, 0.01s) from
// rank 1, and the mean arrival delay of the three matched messages
// (msg 4's producer is outside the trace, so it adds no observation).
// FromTrace given the machine fills Rates with the same table; given
// none, it leaves Rates unobserved.
func TestGoldenCalibration(t *testing.T) {
	tr := fixedTrace()
	flat := machine.NewFlat(2, machine.SP2Link())
	rt := machine.CalibrateRates(tr.Records, flat)
	if !rt.Observed() {
		t.Fatal("no classes calibrated")
	}
	if got := FromTrace(tr, 0, len(tr.Records), flat).Rates; !reflect.DeepEqual(got, rt) {
		t.Errorf("FromTrace rates = %+v, want %+v", got, rt)
	}
	if FromTrace(tr, 0, len(tr.Records), nil).Rates.Observed() {
		t.Error("FromTrace without a machine calibrated rates")
	}
	obs, ok := rt.ByHops[1]
	if !ok {
		t.Fatalf("hop class 1 missing: %+v", rt.ByHops)
	}
	if obs.Messages != 3 || obs.Bytes != 224 {
		t.Errorf("observations = %d msgs / %d bytes, want 3 / 224", obs.Messages, obs.Bytes)
	}
	// Exact OLS over {(32,0.01), (64,0.02), (128,0.03)}:
	// n=3 sumB=224 sumT=0.06 sumBB=21504 sumBT=5.44
	// var = 3*21504 - 224^2 = 14336; cov = 3*5.44 - 224*0.06 = 2.88
	// perByte = 2.88/14336 = 9/44800; setup = (0.06 - perByte*224)/3 = 5e-3
	approx(t, "PerByte", obs.PerByte, 9.0/44800)
	approx(t, "Setup", obs.Setup, 5e-3)
	// Latencies: msg1 0.15-0.12=0.03, msg3 0.02-0.01=0.01, msg2
	// 0.40-0.33=0.07; mean = 0.11/3.
	approx(t, "Latency", obs.Latency, 0.11/3)
}

// TestRateTableFallback: unobserved hop classes borrow the nearest
// observed class (ties to the larger hop count); an empty table returns
// the fallback unchanged.
func TestRateTableFallback(t *testing.T) {
	fb := machine.LinkParams{Setup: 1, PerByte: 2, Latency: 3}
	var empty machine.RateTable
	if got := empty.For(2, fb); got != fb {
		t.Errorf("empty table: got %+v, want fallback", got)
	}
	rt := machine.RateTable{ByHops: map[int]machine.RateObs{
		1: {LinkParams: machine.LinkParams{Setup: 10}},
		5: {LinkParams: machine.LinkParams{Setup: 50}},
	}}
	if got := rt.For(5, fb).Setup; got != 50 {
		t.Errorf("exact class: Setup = %v, want 50", got)
	}
	if got := rt.For(2, fb).Setup; got != 10 {
		t.Errorf("nearest class below: Setup = %v, want 10", got)
	}
	if got := rt.For(3, fb).Setup; got != 50 {
		t.Errorf("two-sided tie must prefer the larger class: Setup = %v, want 50", got)
	}
	if got := rt.For(9, fb).Setup; got != 50 {
		t.Errorf("nearest class above: Setup = %v, want 50", got)
	}
}

// TestWindowing: a window that excludes the prefix only aggregates the
// remaining records, and degenerate bounds clamp instead of panicking.
func TestWindowing(t *testing.T) {
	tr := fixedTrace()
	p := FromTrace(tr, 4, 6, nil) // two compute records only
	approx(t, "rank0.Compute", p.Ranks[0].Compute, 0.18)
	approx(t, "rank1.Compute", p.Ranks[1].Compute, 0.04)
	// Records 3 (rank 1's halo wait) and 6 (rank 0's send) sit just
	// outside the window; neither may leak into any bucket.
	for r, rp := range p.Ranks {
		if rp.Overhead != 0 || rp.WaitHalo != 0 || rp.WaitColl != 0 || rp.WaitMig != 0 || rp.WaitOther != 0 {
			t.Errorf("window leaked records into rank %d: %+v", r, rp)
		}
	}
	if got := FromTrace(tr, 100, 200, nil); got.Makespan != 0 {
		t.Errorf("out-of-range window: makespan %v", got.Makespan)
	}
	if got := FromTrace(tr, -5, 3, nil); got.Ranks[0].Compute == 0 {
		t.Errorf("negative start should clamp to 0")
	}
}

// TestPerIteration: the gain side's measured per-iteration time.
func TestPerIteration(t *testing.T) {
	p := &Profile{SolveSeconds: 0.6, SolveSteps: 3}
	approx(t, "PerIteration", p.PerIteration(), 0.2)
	p.SolveSteps = 0
	approx(t, "PerIteration no steps", p.PerIteration(), 0)
}
