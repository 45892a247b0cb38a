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
	"fmt"
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

// Culprits is the by-culprit decomposition of critical-path wait time,
// in simulated seconds: Wait is the total attributed, and the five
// culprits — one per BlameKind — sum to it.  Span streams (EpochBlame),
// ledgers (obs.BlameRecord) and their diffs all carry this one type.
type Culprits struct {
	Wait           float64 `json:"wait"`
	SenderCompute  float64 `json:"sender_compute"`
	SenderOverhead float64 `json:"sender_overhead"`
	Contention     float64 `json:"contention"`
	Wire           float64 `json:"wire"`
	Idle           float64 `json:"idle"`
}

// Add accumulates o into c field by field.
func (c *Culprits) Add(o Culprits) {
	c.Wait += o.Wait
	c.SenderCompute += o.SenderCompute
	c.SenderOverhead += o.SenderOverhead
	c.Contention += o.Contention
	c.Wire += o.Wire
	c.Idle += o.Idle
}

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
// come from CriticalPath(t) on the same trace (or trace window): the
// attribution reads the record index that walk built, and panics when
// that index does not fit t.
func WaitBlame(t *Trace, cp *Path) *BlameReport {
	rep := &BlameReport{P: t.P, Lag: make([][]float64, t.P)}
	for i := range rep.Lag {
		rep.Lag[i] = make([]float64, NumPhases)
	}
	if len(cp.Steps) == 0 {
		return rep
	}
	n := 0
	for _, idx := range cp.perRank {
		n += len(idx)
	}
	if len(cp.perRank) != t.P || n != len(t.Records) {
		panic(fmt.Sprintf("event: WaitBlame path indexes %d ranks / %d records, trace has %d / %d",
			len(cp.perRank), n, t.P, len(t.Records)))
	}
	bl := &blamer{
		t:       t,
		perRank: cp.perRank,
		sendIdx: cp.sendIdx,
		edges:   make(map[[2]int]*EdgeBlame),
		rep:     rep,
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
	sortEdges(rep.Edges)
	return rep
}

// sortEdges orders edges by total delay (queue + wire), descending,
// ties broken by source then destination rank.
func sortEdges(edges []EdgeBlame) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := &edges[i], &edges[j]
		if ta, tb := a.Queue+a.Wire, b.Queue+b.Wire; ta != tb {
			return ta > tb
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
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
	if send.MsgID != msgID {
		panic(fmt.Sprintf("event: WaitBlame path indexes msg %d at record %d, which holds msg %d", msgID, si, send.MsgID))
	}
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
	return topLag(all, k)
}

// topLag sorts cells descending by seconds, ties broken by rank then
// phase, and keeps the first k.
func topLag(all []LagEntry, k int) []LagEntry {
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

// Culprits returns the report's wait decomposition.
func (b *BlameReport) Culprits() Culprits {
	return Culprits{
		Wait:           b.Wait,
		SenderCompute:  b.ByKind[BlameSenderCompute],
		SenderOverhead: b.ByKind[BlameSenderOverhead],
		Contention:     b.ByKind[BlameContention],
		Wire:           b.ByKind[BlameWire],
		Idle:           b.ByKind[BlameIdle],
	}
}

// Summary trims the report to the bounded per-epoch form serialized
// into span streams and ledgers.
func (b *BlameReport) Summary(epoch, topK int) EpochBlame {
	eb := EpochBlame{
		K:        "blame",
		Epoch:    epoch,
		Culprits: b.Culprits(),
		Lag:      b.TopLag(topK),
		Edges:    b.TopEdges(topK),
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

// LagCell names one cell of the sender-lag league: a rank in a phase.
type LagCell struct {
	Rank  int
	Phase string
}

// LeagueEdge is one directed rank pair's blame summed across epochs:
// Queue, Wire and Count sum field by field, Delay sums each epoch's
// Queue+Wire.  The two sums of the same seconds may differ in the last
// bit, so each reader keeps the one it prints.
type LeagueEdge struct {
	EdgeBlame
	Delay float64
}

// BlameLeague is a span stream's blame summed across its epochs.  Each
// epoch serializes only its top-k cells and edges, the rest of its lag
// folded into LagOther, so every cell and edge is a lower bound and
// LagOther restores the lag total.
type BlameLeague struct {
	Lag      map[LagCell]float64
	LagOther float64
	Edges    map[[2]int]LeagueEdge
}

// League sums the epochs' lag cells, LagOther and edges, in epoch
// order: the one cross-epoch aggregation of a span stream's blame.
func League(epochs []EpochBlame) BlameLeague {
	l := BlameLeague{Lag: map[LagCell]float64{}, Edges: map[[2]int]LeagueEdge{}}
	for i := range epochs {
		eb := &epochs[i]
		for _, c := range eb.Lag {
			l.Lag[LagCell{c.Rank, c.Phase}] += c.Seconds
		}
		l.LagOther += eb.LagOther
		for _, e := range eb.Edges {
			key := [2]int{e.Src, e.Dst}
			le := l.Edges[key]
			le.Src, le.Dst = e.Src, e.Dst
			le.Queue += e.Queue
			le.Wire += e.Wire
			le.Count += e.Count
			le.Delay += e.Queue + e.Wire
			l.Edges[key] = le
		}
	}
	return l
}

// TopLag returns the league's k largest cells, ordered as
// BlameReport.TopLag orders an epoch's.
func (l *BlameLeague) TopLag(k int) []LagEntry {
	all := make([]LagEntry, 0, len(l.Lag))
	for c, sec := range l.Lag {
		all = append(all, LagEntry{Rank: c.Rank, Phase: c.Phase, Seconds: sec})
	}
	return topLag(all, k)
}

// TopEdges returns the league's k most-delaying edges, ordered by their
// summed queue plus summed wire as WaitBlame orders an epoch's.
func (l *BlameLeague) TopEdges(k int) []EdgeBlame {
	all := make([]EdgeBlame, 0, len(l.Edges))
	for _, e := range l.Edges {
		all = append(all, e.EdgeBlame)
	}
	sortEdges(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}
