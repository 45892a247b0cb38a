package event

// Wait-blame attribution: every second the critical path spends
// waiting is somebody's fault, and the trace knows whose.  WaitBlame
// walks the on-path wait intervals — a receive that posted before its
// message arrived, or an idle gap between back-to-back operations —
// and attributes each one, transitively, to its true culprit:
//
//   - sender compute: the producing rank was still computing when the
//     receiver went idle (an imbalanced partition shows up here, as
//     lag concentrated on particular ranks and phases);
//   - sender overhead: the producer was busy injecting or draining
//     other messages;
//   - contention: the message sat in a shared-link queue (fat-tree
//     up-link reservation delay) after the sender finished;
//   - wire: irreducible latency between departure and arrival;
//   - idle: the producer itself was idle (transitive wait deeper than
//     the recursion bound, an untraced producer, or a same-rank gap).
//
// The invariant — pinned by the conservation tests — is that the
// attributed seconds sum exactly (up to float accumulation) to the
// critical path's receiver-perspective wait time: for each on-path
// waiting receive the interval [T0, Arrival], plus each on-path
// same-rank gap.  Attribution is measure-preserving: each wait second
// is charged to exactly one culprit, because sender windows partition
// into record-covered pieces plus idle residue, and the sender-lag /
// queue / wire split of a wait interval is computed by residual.

import (
	"math"
	"sort"
)

// BlameKind classifies where a waited second really went.
type BlameKind uint8

// The blame buckets, in serialization order.
const (
	BlameSenderCompute BlameKind = iota
	BlameSenderOverhead
	BlameContention
	BlameWire
	BlameIdle
	NumBlameKinds
)

// EdgeBlame aggregates the post-send delay charged to one directed
// rank pair: queueing on shared links plus wire latency.
type EdgeBlame struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Queue float64 `json:"queue"`
	Wire  float64 `json:"wire"`
	Count int     `json:"n"`
}

// LagEntry is one cell of the sender-lag league table: seconds of
// critical-path wait attributed to (rank, phase) compute or overhead.
type LagEntry struct {
	Rank    int     `json:"r"`
	Phase   string  `json:"ph"`
	Seconds float64 `json:"s"`
}

// BlameReport is the attribution of a trace window's critical-path
// wait time.
type BlameReport struct {
	P int
	// Wait is the total attributed time: the sum over on-path waiting
	// receives of (Arrival - T0) plus on-path same-rank gaps.  Note
	// this is the receiver-perspective wait, not Path.CommWait (which
	// measures the sender-edge span send.T1 -> Arrival); the receiver
	// perspective is what makes "the sender was still computing"
	// attributable.
	Wait   float64
	ByKind [NumBlameKinds]float64
	// Lag[rank][phase] is the sender-lag time (compute + overhead)
	// attributed to that rank while it was in that phase.
	Lag   [][]float64
	Edges []EdgeBlame // sorted by total delay, descending
}

// maxBlameDepth bounds transitive attribution (a waits on b waits on
// c waits on ...).  The walk always moves to strictly earlier trace
// intervals so it terminates regardless; the bound just caps cost, and
// anything deeper is charged as idle.
const maxBlameDepth = 256

// WaitBlame attributes the critical path's wait intervals.  cp must
// come from CriticalPath(t) on the same trace (or trace window).
func WaitBlame(t *Trace, cp *Path) *BlameReport {
	rep := &BlameReport{P: t.P, Lag: make([][]float64, t.P)}
	for i := range rep.Lag {
		rep.Lag[i] = make([]float64, NumPhases)
	}
	if len(cp.Steps) == 0 {
		return rep
	}
	bl := &blamer{
		t:       t,
		perRank: make([][]int, t.P),
		sendIdx: make(map[int64]int),
		edges:   make(map[[2]int]*EdgeBlame),
		rep:     rep,
	}
	for i, r := range t.Records {
		bl.perRank[r.Rank] = append(bl.perRank[r.Rank], i)
		if r.Kind == KindSend && r.MsgID != 0 {
			bl.sendIdx[r.MsgID] = i
		}
	}
	// The forward mirror of CriticalPath's backward walk: a step that
	// is a waiting receive contributes its wait interval; any other
	// step contributes the gap to its same-rank predecessor.
	for i, st := range cp.Steps {
		if st.Kind == KindRecv && st.Arrival > st.T0 {
			bl.recvWait(st.Rank, st.T0, st.Arrival, st.MsgID, 0)
		} else if i > 0 && cp.Steps[i-1].Rank == st.Rank {
			if gap := st.T0 - cp.Steps[i-1].T1; gap > 0 {
				bl.acc(BlameIdle, gap)
			}
		}
	}
	rep.Edges = make([]EdgeBlame, 0, len(bl.edges))
	for _, e := range bl.edges {
		rep.Edges = append(rep.Edges, *e)
	}
	sort.Slice(rep.Edges, func(i, j int) bool {
		a, b := &rep.Edges[i], &rep.Edges[j]
		if ta, tb := a.Queue+a.Wire, b.Queue+b.Wire; ta != tb {
			return ta > tb
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return rep
}

type blamer struct {
	t       *Trace
	perRank [][]int
	sendIdx map[int64]int
	edges   map[[2]int]*EdgeBlame
	rep     *BlameReport
}

func (bl *blamer) acc(k BlameKind, sec float64) {
	bl.rep.Wait += sec
	bl.rep.ByKind[k] += sec
}

// lag charges sender-side busy time to (kind, rank, phase).
func (bl *blamer) lag(k BlameKind, rank int, ph Phase, sec float64) {
	bl.acc(k, sec)
	bl.rep.Lag[rank][ph] += sec
}

// recvWait attributes the sub-window [lo, hi] of a wait interval on
// dst for the message msgID.  The window partitions by residual into
// sender lag (before the send completed), link queueing (send.T1 to
// the post-contention departure), and wire time.
func (bl *blamer) recvWait(dst int, lo, hi float64, msgID int64, depth int) {
	if hi <= lo {
		return
	}
	si, ok := bl.sendIdx[msgID]
	if !ok || depth > maxBlameDepth {
		bl.acc(BlameIdle, hi-lo)
		return
	}
	send := &bl.t.Records[si]
	var lag float64
	if lagHi := math.Min(send.T1, hi); lagHi > lo {
		lag = lagHi - lo
		bl.window(send.Rank, lo, lagHi, depth+1)
	}
	var queue float64
	if qLo, qHi := math.Max(lo, send.T1), math.Min(hi, send.Depart); qHi > qLo {
		queue = qHi - qLo
		bl.acc(BlameContention, queue)
	}
	wire := (hi - lo) - lag - queue
	if wire > 0 {
		bl.acc(BlameWire, wire)
	} else {
		wire = 0
	}
	if queue > 0 || wire > 0 {
		key := [2]int{send.Rank, dst}
		e := bl.edges[key]
		if e == nil {
			e = &EdgeBlame{Src: send.Rank, Dst: dst}
			bl.edges[key] = e
		}
		e.Queue += queue
		e.Wire += wire
		e.Count++
	}
}

// window attributes [a, b] of rank's timeline: each record-covered
// piece by the record's kind (recursing through the rank's own waits),
// uncovered residue as idle.
func (bl *blamer) window(rank int, a, b float64, depth int) {
	if b <= a {
		return
	}
	if depth > maxBlameDepth {
		bl.acc(BlameIdle, b-a)
		return
	}
	idx := bl.perRank[rank]
	// Records of a rank are disjoint and time-sorted; find the first
	// one ending inside the window.
	k := sort.Search(len(idx), func(i int) bool {
		return bl.t.Records[idx[i]].T1 > a
	})
	covered := a
	for ; k < len(idx) && covered < b; k++ {
		r := &bl.t.Records[idx[k]]
		if r.T0 >= b {
			break
		}
		lo := math.Max(covered, r.T0)
		hi := math.Min(b, r.T1)
		if lo > covered {
			bl.acc(BlameIdle, lo-covered)
			covered = lo
		}
		if hi <= lo {
			continue
		}
		switch {
		case r.Kind == KindCompute:
			bl.lag(BlameSenderCompute, rank, r.Phase, hi-lo)
		case r.Kind == KindRecv && r.Arrival > r.T0:
			// The sender was itself waiting: recurse into the producer
			// of its message for the pre-arrival part, charge the
			// post-arrival copy-out as overhead.
			if wHi := math.Min(hi, r.Arrival); wHi > lo {
				bl.recvWait(rank, lo, wHi, r.MsgID, depth+1)
			}
			if oLo := math.Max(lo, r.Arrival); hi > oLo {
				bl.lag(BlameSenderOverhead, rank, r.Phase, hi-oLo)
			}
		default:
			bl.lag(BlameSenderOverhead, rank, r.Phase, hi-lo)
		}
		covered = hi
	}
	if covered < b {
		bl.acc(BlameIdle, b-covered)
	}
}

// TopLag returns the k largest (rank, phase) sender-lag cells,
// descending, ties broken by rank then phase.
func (b *BlameReport) TopLag(k int) []LagEntry {
	var all []LagEntry
	for rank, row := range b.Lag {
		for ph, sec := range row {
			if sec > 0 {
				all = append(all, LagEntry{Rank: rank, Phase: Phase(ph).String(), Seconds: sec})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Seconds != all[j].Seconds {
			return all[i].Seconds > all[j].Seconds
		}
		if all[i].Rank != all[j].Rank {
			return all[i].Rank < all[j].Rank
		}
		return all[i].Phase < all[j].Phase
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TopEdges returns the k most-delaying causality edges.
func (b *BlameReport) TopEdges(k int) []EdgeBlame {
	if len(b.Edges) <= k {
		return b.Edges
	}
	return b.Edges[:k]
}

// Summary trims the report to the bounded per-epoch form serialized
// into span streams and ledgers.
func (b *BlameReport) Summary(epoch, topK int) EpochBlame {
	eb := EpochBlame{
		K:              "blame",
		Epoch:          epoch,
		Wait:           b.Wait,
		SenderCompute:  b.ByKind[BlameSenderCompute],
		SenderOverhead: b.ByKind[BlameSenderOverhead],
		Contention:     b.ByKind[BlameContention],
		Wire:           b.ByKind[BlameWire],
		Idle:           b.ByKind[BlameIdle],
		Lag:            b.TopLag(topK),
		Edges:          b.TopEdges(topK),
	}
	var inTop float64
	for _, l := range eb.Lag {
		inTop += l.Seconds
	}
	eb.LagOther = (eb.SenderCompute + eb.SenderOverhead) - inTop
	if eb.LagOther < 1e-15 {
		eb.LagOther = 0
	}
	return eb
}
