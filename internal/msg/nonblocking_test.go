package msg

import (
	"strings"
	"testing"

	"plum/internal/event"
	"plum/internal/machine"
)

// TestIrecvRoundTrip: a posted receive gets the same envelope and
// payload as Recv.
func TestIrecvRoundTrip(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
		} else {
			req := c.Irecv(0, 7)
			m := req.Wait()
			if string(m.Data) != "ping" || m.Src != 0 || m.Tag != 7 {
				t.Errorf("got %q from (%d,%d)", m.Data, m.Src, m.Tag)
			}
			if again := req.Wait(); again != m {
				t.Error("Wait is not idempotent")
			}
		}
	})
}

// TestIrecvCompletesInPostOrder: receives completed in post order keep
// per-pair FIFO semantics.
func TestIrecvCompletesInPostOrder(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		} else {
			reqs := []*Request{c.Irecv(0, 5), c.Irecv(0, 5), c.Irecv(0, 5)}
			for _, r := range reqs {
				r.Wait()
			}
			for i, r := range reqs {
				if r.Wait().Data[0] != byte(i) {
					t.Errorf("request %d completed with message %d", i, r.Wait().Data[0])
				}
			}
		}
	})
}

// TestIrecvOverlapHidesWire: the reason the primitives exist.  A
// blocking receiver pays the wire latency and then computes; a receiver
// that posts the receive, computes, and then waits hides the wire behind
// the compute.  Identical work, strictly smaller simulated clock.
func TestIrecvOverlapHidesWire(t *testing.T) {
	model := &CostModel{TSetup: 0, TByte: 0, TLatency: 5, TWork: 1}
	elapsed := func(overlap bool) float64 {
		times := RunModel(2, model, func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, []byte{1})
				return
			}
			if overlap {
				req := c.Irecv(0, 1)
				c.Compute(10)
				req.Wait()
			} else {
				c.Recv(0, 1)
				c.Compute(10)
			}
		})
		return times[1]
	}
	blocking, overlapped := elapsed(false), elapsed(true)
	if blocking != 15 {
		t.Errorf("blocking receiver clock %v, want 15 (wait 5 + compute 10)", blocking)
	}
	if overlapped != 10 {
		t.Errorf("overlapped receiver clock %v, want 10 (wire hidden by compute)", overlapped)
	}
}

// TestDeadlockPanics: mutually waiting ranks are reported as a typed
// *DeadlockError naming the stuck ranks instead of hanging the test
// binary forever.
func TestDeadlockPanics(t *testing.T) {
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected deadlock panic")
		}
		d, ok := e.(*DeadlockError)
		if !ok || !strings.Contains(d.Error(), "deadlock") {
			t.Fatalf("panic %v (%T) is not a *DeadlockError naming the deadlock", e, e)
		}
		if len(d.Ranks) != 2 {
			t.Fatalf("deadlock ranks %v, want both ranks stuck", d.Ranks)
		}
	}()
	Run(2, func(c *Comm) {
		c.Recv(1-c.Rank(), 99) // both wait, nobody sends
	})
}

// TestRankPanicTyped: a panicking rank program re-raises as *RankPanic
// carrying the rank, the open phase, the original value, and a stack —
// the contract the serving layer's fault isolation recovers on.
func TestRankPanicTyped(t *testing.T) {
	defer func() {
		e := recover()
		rp, ok := e.(*RankPanic)
		if !ok {
			t.Fatalf("panic %v (%T), want *RankPanic", e, e)
		}
		if rp.Rank != 1 {
			t.Errorf("rank = %d, want 1", rp.Rank)
		}
		if rp.Phase != event.PhaseSolve {
			t.Errorf("phase = %v, want %v", rp.Phase, event.PhaseSolve)
		}
		if rp.Value != "boom" {
			t.Errorf("value = %v, want boom", rp.Value)
		}
		if len(rp.Stack) == 0 {
			t.Error("empty stack")
		}
		if !strings.Contains(rp.Error(), "rank 1 panicked: boom") {
			t.Errorf("error text %q", rp.Error())
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			c.PushPhase(event.PhaseSolve)
			panic("boom")
		}
		// Rank 0 blocks on a message that never comes once rank 1 dies;
		// the engine aborts it as deadlocked and runWorld reports the
		// panic as the root cause, not the starvation.
		c.Release(c.Recv(1, 7))
	})
}

// TestRunTracedRecordsMessageEdges: the trace links each send to the
// recv that consumed it and records arrival times.
func TestRunTracedRecordsMessageEdges(t *testing.T) {
	model := &CostModel{TSetup: 1, TByte: 0, TLatency: 2, TWork: 1}
	_, tr := RunTraced(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(3)
			c.Send(1, 1, []byte{1, 2})
		} else {
			c.Recv(0, 1)
		}
	})
	var send, recv *event.Record
	for i := range tr.Records {
		r := &tr.Records[i]
		switch r.Kind {
		case event.KindSend:
			send = r
		case event.KindRecv:
			recv = r
		}
	}
	if send == nil || recv == nil {
		t.Fatalf("trace missing send or recv: %+v", tr.Records)
	}
	if send.MsgID == 0 || send.MsgID != recv.MsgID {
		t.Errorf("message edge not linked: send id %d, recv id %d", send.MsgID, recv.MsgID)
	}
	if recv.Arrival != send.T1+2 {
		t.Errorf("recv arrival %v, want send completion %v + latency 2", recv.Arrival, send.T1)
	}
	p := event.CriticalPath(tr)
	// Path: rank 0 compute (3) + send (1) + wire (2) + recv overhead (1).
	if p.Makespan != 7 || p.Compute != 3 || p.Overhead != 2 || p.CommWait != 2 {
		t.Errorf("critical path makespan %v compute %v overhead %v wait %v, want 7/3/2/2",
			p.Makespan, p.Compute, p.Overhead, p.CommWait)
	}
}

// TestFatTreeContentionBitwiseReproducible: the deterministic
// reservation pass.  Many co-located ranks bursting over one up-link is
// exactly the schedule-sensitive case the old runtime documented as
// "approximately reproducible"; the event engine must make repeated
// runs agree bitwise, per rank.
func TestFatTreeContentionBitwiseReproducible(t *testing.T) {
	const p = 8
	model := &CostModel{}
	run := func() []float64 {
		topo := machine.NewFatTree(p, 4, machine.LinkParams{Setup: 1e-6, PerByte: 1e-8}, 1e-6, 4e-8)
		return RunModel(p, model.WithTopo(topo), func(c *Comm) {
			// Every rank sends to every off-group rank, then drains.
			for dst := 0; dst < p; dst++ {
				if dst/4 != c.Rank()/4 {
					c.Send(dst, 1, make([]byte, 1000+100*c.Rank()))
				}
			}
			for src := 0; src < p; src++ {
				if src/4 != c.Rank()/4 {
					c.Recv(src, 1)
				}
			}
		})
	}
	a, b := run(), run()
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("rank %d: %x vs %x (contended timings must be bitwise reproducible)", r, a[r], b[r])
		}
	}
}
