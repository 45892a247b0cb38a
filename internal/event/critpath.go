package event

// Critical-path extraction: the chain of operations that determines the
// makespan of a simulated run.  Walking it back from the last completed
// operation separates what actually bounds the run — local compute,
// message-passing software overhead, or time spent waiting on the wire —
// the decomposition solver studies use to separate setup cost from
// iteration cost, and the quantity the comm/compute-overlap optimization
// exists to shorten.

// Path is the critical path of a trace: a time-ascending chain of
// records from (near) time zero to the makespan, with the chain's
// duration decomposed into three exclusive buckets.
type Path struct {
	Makespan float64 // completion time of the last operation in the run
	EndRank  int     // rank whose operation finishes last
	Steps    []Record

	// The decomposition.  Compute + Overhead + CommWait equals Makespan
	// minus the start time of the first step (normally 0).
	Compute  float64 // local work on the path
	Overhead float64 // send injection + receive matching/copy overhead
	CommWait float64 // wire latency, contention queueing, and idle gaps

	// The trace's record index the walk built, kept so WaitBlame reads
	// the same trace without indexing it again.
	perRank [][]int       // each rank's record indices, in trace order
	sendIdx map[int64]int // MsgID -> index of the producing send record
}

// CriticalPath extracts the critical path of a trace.  From the record
// that completes last, each step's predecessor is:
//
//   - the send that produced the message, when the step is a receive
//     that idled waiting for its arrival (the dependency crosses ranks);
//   - the previous record on the same rank otherwise.
//
// The walk is deterministic: ties on the final completion time resolve
// to the lowest rank, then the latest record of that rank.
func CriticalPath(t *Trace) Path {
	var p Path
	if len(t.Records) == 0 {
		return p
	}
	perRank := make([][]int, t.P)
	rankPos := make([]int, len(t.Records)) // index within the rank's list
	sendIdx := make(map[int64]int)
	for i, r := range t.Records {
		rankPos[i] = len(perRank[r.Rank])
		perRank[r.Rank] = append(perRank[r.Rank], i)
		if r.Kind == KindSend && r.MsgID != 0 {
			sendIdx[r.MsgID] = i
		}
	}
	p.perRank, p.sendIdx = perRank, sendIdx

	end := -1
	for i, r := range t.Records {
		if end < 0 {
			end = i
			continue
		}
		e := t.Records[end]
		if r.T1 > e.T1 || (r.T1 == e.T1 && (r.Rank < e.Rank ||
			(r.Rank == e.Rank && i > end))) {
			end = i
		}
	}
	p.Makespan = t.Records[end].T1
	p.EndRank = t.Records[end].Rank

	var steps []Record
	cur := end
	for cur >= 0 {
		r := t.Records[cur]
		steps = append(steps, r)
		next := -1
		switch {
		case r.Kind == KindRecv && r.Arrival > r.T0:
			// The rank idled until the wire delivered: the path crosses to
			// the sender.  The receive span splits into copy-out overhead
			// after the arrival and wire time before it.
			p.Overhead += r.T1 - r.Arrival
			if si, ok := sendIdx[r.MsgID]; ok {
				p.CommWait += r.Arrival - t.Records[si].T1
				next = si
			} else {
				// Untraced producer (shouldn't happen): charge the wait
				// locally and continue on this rank.
				p.CommWait += r.Arrival - r.T0
				next = prevOnRank(t, perRank, rankPos, cur)
			}
		case r.Kind == KindRecv:
			p.Overhead += r.T1 - r.T0
			next = prevOnRank(t, perRank, rankPos, cur)
		case r.Kind == KindSend:
			p.Overhead += r.T1 - r.T0
			next = prevOnRank(t, perRank, rankPos, cur)
		default:
			p.Compute += r.T1 - r.T0
			next = prevOnRank(t, perRank, rankPos, cur)
		}
		// Idle gap between the predecessor's completion and this step's
		// start on the same rank (message edges already charged the wire
		// span; back-to-back local operations have no gap).
		if next >= 0 && !(r.Kind == KindRecv && r.Arrival > r.T0) {
			if gap := r.T0 - t.Records[next].T1; gap > 0 {
				p.CommWait += gap
			}
		}
		cur = next
	}
	// Reverse into time-ascending order.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	p.Steps = steps
	return p
}

func prevOnRank(t *Trace, perRank [][]int, rankPos []int, i int) int {
	r := t.Records[i]
	if rankPos[i] == 0 {
		return -1
	}
	return perRank[r.Rank][rankPos[i]-1]
}
