package event

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// TestCalendarOrdering: pops come out in (time, id, seq) order whatever
// the push order.
func TestCalendarOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var entries []Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, Entry{
			Time: float64(rng.Intn(20)),
			ID:   rng.Intn(8),
			Seq:  int64(i),
		})
	}
	var c Calendar
	for _, e := range entries {
		c.Push(e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Before(entries[j]) })
	for i, want := range entries {
		if c.Len() == 0 {
			t.Fatalf("calendar empty after %d pops, want %d", i, len(entries))
		}
		got := c.Pop()
		if got != want {
			t.Fatalf("pop %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestEngineRunsAllProcesses: every process body executes exactly once.
func TestEngineRunsAllProcesses(t *testing.T) {
	const p = 7
	ran := make([]int, p)
	NewEngine(p).Run(func(id int) { ran[id]++ })
	for id, n := range ran {
		if n != 1 {
			t.Errorf("process %d ran %d times", id, n)
		}
	}
}

// TestEngineYieldOrder: processes yielding at distinct times resume in
// time order; equal times resolve to the lower id.  The interleaving is
// recorded from the process bodies themselves — safe because only one
// runs at a time.
func TestEngineYieldOrder(t *testing.T) {
	const p = 4
	e := NewEngine(p)
	var order []int
	e.Run(func(id int) {
		// First visit at t=0 in id order, then resume at reversed times.
		e.Yield(id, float64(p-id))
		order = append(order, id)
	})
	want := []int{3, 2, 1, 0}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("resume order %v, want %v", order, want)
		}
	}
}

// TestEngineBlockWake: a blocked process resumes when the running
// process wakes it, and the wake time keys its position in the schedule.
func TestEngineBlockWake(t *testing.T) {
	e := NewEngine(2)
	var got []string
	e.Run(func(id int) {
		if id == 0 {
			e.Block(0)
			got = append(got, "woken")
		} else {
			e.Yield(1, 5)
			got = append(got, "waker")
			e.Wake(0, 6)
		}
	})
	if len(got) != 2 || got[0] != "waker" || got[1] != "woken" {
		t.Fatalf("sequence %v, want [waker woken]", got)
	}
}

// TestEngineDeadlockAborts: blocked processes with no event in flight
// receive a Deadlock panic instead of hanging.
func TestEngineDeadlockAborts(t *testing.T) {
	e := NewEngine(2)
	aborted := make([]bool, 2)
	e.Run(func(id int) {
		defer func() {
			if d, ok := recover().(Deadlock); ok {
				aborted[id] = d.ID == id
			}
		}()
		e.Block(id)
	})
	if !aborted[0] || !aborted[1] {
		t.Fatalf("deadlocked processes not aborted: %v", aborted)
	}
}

// TestEnginePanicPropagates: a panic escaping a process body reaches the
// Run caller after the remaining processes finish.
func TestEnginePanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected process panic to propagate")
		}
	}()
	NewEngine(3).Run(func(id int) {
		if id == 1 {
			panic("boom")
		}
	})
}

// TestEngineDeterministicAcrossGOMAXPROCS: the schedule is a pure
// function of the program, not of the host's parallelism.
func TestEngineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() []int {
		var order []int
		e := NewEngine(6)
		e.Run(func(id int) {
			for i := 0; i < 50; i++ {
				e.Yield(id, float64((id*7+i*3)%11))
				order = append(order, id)
			}
		})
		return order
	}
	old := runtime.GOMAXPROCS(1)
	a := run()
	runtime.GOMAXPROCS(8)
	b := run()
	runtime.GOMAXPROCS(old)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// stressSchedule runs a 16-process program mixing Yield, Block, Wake,
// and early completion, recording every scheduling slot as (id, t) from
// inside the process bodies (safe: one process runs at a time).  Even
// processes block mid-run and are woken by their odd partners; two
// processes finish early so the engine also schedules across a shrinking
// live set.  With noFast the engine's keep-the-token Yield fast path is
// disabled, so comparing the two recordings asserts the fast path
// realizes the identical (time, rank, seq) schedule the slow path pops.
func stressSchedule(t *testing.T, noFast bool) ([]int, []float64) {
	t.Helper()
	const p = 16
	const steps = 60
	e := NewEngine(p)
	e.noFastPath = noFast
	var ids []int
	var times []float64
	blocked := make([]bool, p)
	e.Run(func(id int) {
		clock := float64(id) * 0.25
		note := func() {
			ids = append(ids, id)
			times = append(times, clock)
		}
		note()
		for k := 0; k < steps; k++ {
			switch {
			case id%2 == 0 && k == 10+id/2:
				// Block until the odd partner wakes me.
				blocked[id] = true
				e.Block(id)
				blocked[id] = false
				note()
			case id%2 == 1 && blocked[id-1]:
				e.Wake(id-1, clock)
				clock += 0.125
				e.Yield(id, clock)
				note()
			case id == 3 && k == 20, id == 8 && k == 25 && !blocked[8]:
				return // early completion: the live set shrinks
			default:
				clock += float64((id*13+k*7)%5) * 0.5 // often 0: fast-path yields
				e.Yield(id, clock)
				note()
			}
		}
	})
	return ids, times
}

// TestEngineFastPathSchedule: the zero-handoff fast path and the
// engine-mediated slow path produce identical schedules on a stress mix
// of Yield/Block/Wake/completion.
func TestEngineFastPathSchedule(t *testing.T) {
	fastIDs, fastTimes := stressSchedule(t, false)
	slowIDs, slowTimes := stressSchedule(t, true)
	if len(fastIDs) != len(slowIDs) {
		t.Fatalf("schedule lengths differ: fast %d, slow %d", len(fastIDs), len(slowIDs))
	}
	for i := range fastIDs {
		if fastIDs[i] != slowIDs[i] || fastTimes[i] != slowTimes[i] {
			t.Fatalf("schedules diverge at slot %d: fast (%d, %v), slow (%d, %v)",
				i, fastIDs[i], fastTimes[i], slowIDs[i], slowTimes[i])
		}
	}
}

// TestEngineStressDeadlockAbort: when a stress program ends with blocked
// processes nobody will wake, both paths abort the same set.
func TestEngineStressDeadlockAbort(t *testing.T) {
	run := func(noFast bool) []bool {
		const p = 6
		e := NewEngine(p)
		e.noFastPath = noFast
		aborted := make([]bool, p)
		e.Run(func(id int) {
			defer func() {
				if d, ok := recover().(Deadlock); ok {
					aborted[id] = d.ID == id
				}
			}()
			for k := 0; k < 10; k++ {
				e.Yield(id, float64((id*5+k*3)%7))
			}
			if id%3 == 0 {
				e.Block(id) // no waker exists: global deadlock once others exit
			}
		})
		return aborted
	}
	fast, slow := run(false), run(true)
	for i := range fast {
		want := i%3 == 0
		if fast[i] != want || slow[i] != want {
			t.Errorf("process %d: aborted fast=%v slow=%v, want %v", i, fast[i], slow[i], want)
		}
	}
}

// TestEngineFastPathManyRanks: a larger world where every yield is
// uncontended (strictly increasing times per rank, all ranks
// interleaved) — the fast path's bread-and-butter case — still visits
// ranks in exact (time, rank, seq) order.
func TestEngineFastPathManyRanks(t *testing.T) {
	const p = 64
	e := NewEngine(p)
	type slot struct {
		id int
		t  float64
	}
	var got []slot
	e.Run(func(id int) {
		for k := 0; k < 20; k++ {
			tk := float64(k*p + id)
			e.Yield(id, tk)
			got = append(got, slot{id, tk})
		}
	})
	for i := 1; i < len(got); i++ {
		if got[i].t < got[i-1].t {
			t.Fatalf("slot %d: time %v after %v — yields processed out of order",
				i, got[i].t, got[i-1].t)
		}
	}
	if len(got) != p*20 {
		t.Fatalf("recorded %d slots, want %d", len(got), p*20)
	}
}

// TestCriticalPathChain: a hand-built two-rank trace — rank 1 computes,
// sends; rank 0 computes less, then waits on the message — must put the
// sender's compute and the wire on the path and decompose exactly.
func TestCriticalPathChain(t *testing.T) {
	tr := &Trace{P: 2}
	tr.Add(Record{Rank: 1, Kind: KindCompute, T0: 0, T1: 10})
	tr.Add(Record{Rank: 1, Kind: KindSend, T0: 10, T1: 11, Peer: 0, Bytes: 8, MsgID: 1})
	tr.Add(Record{Rank: 0, Kind: KindCompute, T0: 0, T1: 2})
	tr.Add(Record{Rank: 0, Kind: KindRecv, T0: 2, T1: 14, Peer: 1, Bytes: 8, MsgID: 1, Arrival: 13})
	p := CriticalPath(tr)
	if p.Makespan != 14 || p.EndRank != 0 {
		t.Fatalf("makespan %v on rank %d, want 14 on rank 0", p.Makespan, p.EndRank)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("path has %d steps, want 3 (compute, send, recv): %+v", len(p.Steps), p.Steps)
	}
	if p.Steps[0].Kind != KindCompute || p.Steps[0].Rank != 1 {
		t.Errorf("path starts with %v on rank %d, want sender compute", p.Steps[0].Kind, p.Steps[0].Rank)
	}
	if p.Compute != 10 || p.Overhead != 1+1 || p.CommWait != 2 {
		t.Errorf("decomposition compute=%v overhead=%v wait=%v, want 10/2/2",
			p.Compute, p.Overhead, p.CommWait)
	}
	if sum := p.Compute + p.Overhead + p.CommWait; math.Abs(sum-p.Makespan) > 1e-12 {
		t.Errorf("decomposition sums to %v, want makespan %v", sum, p.Makespan)
	}
}

// TestCriticalPathNoWait: when the message is already there the path
// stays on the receiving rank.
func TestCriticalPathNoWait(t *testing.T) {
	tr := &Trace{P: 2}
	tr.Add(Record{Rank: 1, Kind: KindSend, T0: 0, T1: 1, Peer: 0, MsgID: 1})
	tr.Add(Record{Rank: 0, Kind: KindCompute, T0: 0, T1: 9})
	tr.Add(Record{Rank: 0, Kind: KindRecv, T0: 9, T1: 10, Peer: 1, MsgID: 1, Arrival: 2})
	p := CriticalPath(tr)
	if p.EndRank != 0 || len(p.Steps) != 2 {
		t.Fatalf("path %+v, want the receiver's compute+recv", p.Steps)
	}
	if p.Compute != 9 || p.Overhead != 1 || p.CommWait != 0 {
		t.Errorf("decomposition %v/%v/%v, want 9/1/0", p.Compute, p.Overhead, p.CommWait)
	}
}

// TestWriteChromeValidJSON: the export is a valid JSON array with one X
// event per record plus flow arrows for matched messages.
func TestWriteChromeValidJSON(t *testing.T) {
	tr := &Trace{P: 2}
	tr.Add(Record{Rank: 0, Kind: KindCompute, T0: 0, T1: 1})
	tr.Add(Record{Rank: 0, Kind: KindSend, T0: 1, T1: 2, Peer: 1, Bytes: 16, Tag: 3, MsgID: 7})
	tr.Add(Record{Rank: 1, Kind: KindRecv, T0: 0, T1: 3, Peer: 0, Bytes: 16, Tag: 3, MsgID: 7, Arrival: 2.5})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var x, s, f int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			x++
		case "s":
			s++
		case "f":
			f++
		}
	}
	if x != 3 || s != 1 || f != 1 {
		t.Errorf("event counts X=%d s=%d f=%d, want 3/1/1", x, s, f)
	}
}
