package msg

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"strconv"

	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/obs"
)

// AnySource may be passed to Recv to match a message from any rank.
const AnySource = -1

// AnyTag may be passed to Recv to match a message with any tag.
const AnyTag = -1

// Tags below collectiveTagBase are available to user code; the collectives
// synthesize their own tags above it from a per-rank sequence number.
const collectiveTagBase = 1 << 24

// isCollectiveTag reports whether tag was synthesized by this package's
// collectives (barrier, broadcast, reductions, all-to-all) rather than
// chosen by user code; the world's message statistics split on it.
func isCollectiveTag(tag int) bool { return tag >= collectiveTagBase }

// Message is a received message together with its envelope.
type Message struct {
	Src  int    // sending rank
	Tag  int    // user tag
	Data []byte // payload: the receiver's after Recv, until Release hands it back

	// arrival is the simulated time at which the message is available at
	// the receiver.
	arrival float64
	// id links the message to its trace records (0 when untraced).
	id int64
	// prev/next thread the message into its mailbox's delivery-order
	// list while buffered (nil once taken), and next alone threads the
	// world's free list once released.
	prev, next *Message
}

// mailbox is the per-rank receive buffer: an intrusive doubly-linked
// list in delivery order.  One list serves both match modes — a direct
// (src, tag) take returns the first matching message in delivery order,
// which is FIFO per pair, and a wildcard take is the same scan with a
// looser predicate — and unlinking is O(1), which is what removed the
// old O(n) removeFromOrder scan (and the popped-slot retention leak of
// the per-key queue slices).  The event engine grants the execution
// token to exactly one rank at a time, so mailboxes need no locking:
// a sender links while holding the token, the owning rank unlinks while
// holding it, and delivery order — and with it wildcard matching — is
// deterministic because the engine's schedule is.
type mailbox struct {
	head, tail *Message
	n          int // buffered messages (mailbox high-water accounting)
}

func (mb *mailbox) put(m *Message) {
	m.prev = mb.tail
	m.next = nil
	if mb.tail != nil {
		mb.tail.next = m
	} else {
		mb.head = m
	}
	mb.tail = m
	mb.n++
}

// tryTake removes and returns the first message matching (src, tag) in
// delivery order, or nil when none is buffered.  src may be AnySource
// and tag may be AnyTag.
func (mb *mailbox) tryTake(src, tag int) *Message {
	for m := mb.head; m != nil; m = m.next {
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			if m.prev != nil {
				m.prev.next = m.next
			} else {
				mb.head = m.next
			}
			if m.next != nil {
				m.next.prev = m.prev
			} else {
				mb.tail = m.prev
			}
			m.prev, m.next = nil, nil
			mb.n--
			return m
		}
	}
	return nil
}

// waitState records what a blocked rank is waiting for, so deliveries
// wake it only when they match — a spurious wake would schedule the
// rank at the wrong simulated time and let a later-keyed resume emit
// earlier-timed events, breaking the engine's nondecreasing-key
// processing order (and with it the reservation pass's simulated-time
// ordering of contended transfers).
type waitState struct {
	active   bool
	src, tag int     // what the blocked Recv matches (may be wildcards)
	clock    float64 // the rank's clock when it blocked
}

// numSizeClasses bounds the payload free-list size classes: class c
// holds buffers of capacity exactly 1<<c, so class 47 (128 TiB) is
// unreachable in practice and indexing never needs a range check
// beyond the class computation.
const numSizeClasses = 48

// World holds the shared state of a group of ranks.
type World struct {
	size    int
	boxes   []mailbox
	topo    machine.Model // the run's machine, never nil
	twork   float64       // seconds per compute work unit (0: untimed)
	eng     *event.Engine // the execution substrate
	trace   *event.Trace  // nil unless the run is traced
	msgSeq  int64         // message ids for trace edges
	waiting []waitState   // per-rank blocked-receive state

	// Runtime free lists.  All pool operations happen while the caller
	// holds the execution token, so — like the mailboxes — they need no
	// locking and recycle in a deterministic order.  freeShells chains
	// released Message structs through their next pointers; freeBufs[c]
	// stacks released payload buffers of capacity exactly 1<<c.
	freeShells *Message
	freeBufs   [numSizeClasses][][]byte

	// stats holds the world's host-plane counters.  Like the pools they
	// are token-serialized plain fields — a few integer increments on
	// the hot paths, no atomics — and are flushed into the process-wide
	// obs registry once, when the world finishes (flushStats).  Nothing
	// here ever reaches a simulated clock.
	stats worldStats
}

// worldStats is one world's host-plane accounting: pool recycling
// effectiveness per size class, how full mailboxes got, and traffic
// split by tag class (user protocols vs collective internals).
type worldStats struct {
	shellHits, shellMisses int64
	bufHits, bufMisses     [numSizeClasses]int64
	mailboxHighWater       int
	userMsgs, collMsgs     int64
	userBytes, collBytes   int64
}

// flushStats folds the world's counters — and its engine's scheduling
// counters — into the process-wide registry with a handful of atomic
// adds.  Called once per world, after the engine stops (including on
// panic paths, so deadlock aborts are visible).
func (w *World) flushStats() {
	r := obs.Default
	es := w.eng.Stats()
	r.Counter("plum_engine_yields_total", "path", "fast").Add(es.FastYields)
	r.Counter("plum_engine_yields_total", "path", "handoff").Add(es.HandoffYields)
	r.Counter("plum_engine_blocks_total").Add(es.Blocks)
	r.Counter("plum_engine_wakes_total").Add(es.Wakes)
	r.Counter("plum_engine_deadlock_aborts_total").Add(es.DeadlockAborts)
	r.Gauge("plum_engine_calendar_highwater").SetMax(int64(es.CalendarHighWater))

	st := &w.stats
	r.Counter("plum_msg_pool_shells_total", "result", "hit").Add(st.shellHits)
	r.Counter("plum_msg_pool_shells_total", "result", "miss").Add(st.shellMisses)
	for c := range st.bufHits {
		if st.bufHits[c] == 0 && st.bufMisses[c] == 0 {
			continue
		}
		cl := strconv.Itoa(c)
		r.Counter("plum_msg_pool_buffers_total", "result", "hit", "class", cl).Add(st.bufHits[c])
		r.Counter("plum_msg_pool_buffers_total", "result", "miss", "class", cl).Add(st.bufMisses[c])
	}
	r.Gauge("plum_msg_mailbox_highwater").SetMax(int64(st.mailboxHighWater))
	r.Counter("plum_msg_messages_total", "class", "user").Add(st.userMsgs)
	r.Counter("plum_msg_messages_total", "class", "collective").Add(st.collMsgs)
	r.Counter("plum_msg_bytes_total", "class", "user").Add(st.userBytes)
	r.Counter("plum_msg_bytes_total", "class", "collective").Add(st.collBytes)
}

// sizeClass returns the free-list class whose buffers hold n bytes:
// the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getMessage returns a message with a zeroed envelope and Data sized to
// n bytes (contents undefined), recycling a released struct and buffer
// when available.
func (w *World) getMessage(n int) *Message {
	m := w.freeShells
	if m != nil {
		w.freeShells = m.next
		m.next = nil
		w.stats.shellHits++
	} else {
		m = &Message{}
		w.stats.shellMisses++
	}
	if n > 0 {
		c := sizeClass(n)
		if bl := w.freeBufs[c]; len(bl) > 0 {
			m.Data = bl[len(bl)-1][:n]
			w.freeBufs[c] = bl[:len(bl)-1]
			w.stats.bufHits[c]++
		} else {
			m.Data = make([]byte, n, 1<<c)
			w.stats.bufMisses[c]++
		}
	}
	return m
}

// release returns a message struct — and, when withData is set, its
// payload buffer — to the world's free lists.  withData=false is for
// messages whose payload a collective lends to its caller (Bcast,
// Gather, Allgather, Alltoall): the shell is recycled at once, and the
// buffer comes back later through releaseBuf, when the caller hands the
// payload back (Comm.ReleaseBcast, ReleaseParts, ReleaseAllgather).
func (w *World) release(m *Message, withData bool) {
	if withData {
		w.releaseBuf(m.Data)
	}
	*m = Message{next: w.freeShells}
	w.freeShells = m
}

// releaseBuf returns a pooled payload buffer to its size class.  Buffers
// getMessage did not hand out (a capacity that is no power of two, or
// none) are left to the garbage collector.
func (w *World) releaseBuf(b []byte) {
	if c := cap(b); c > 0 && c&(c-1) == 0 {
		cl := bits.Len(uint(c)) - 1
		w.freeBufs[cl] = append(w.freeBufs[cl], b[:0])
	}
}

// Comm is one rank's handle to the world.  It is not safe for concurrent
// use by multiple goroutines; each rank owns exactly one Comm.
type Comm struct {
	rank    int
	world   *World
	clock   Clock
	collSeq int // collective sequence number, advances in lockstep

	// phases is the rank's open-phase stack: each entry is a span
	// waiting for its end.  curPhase caches the top's phase so the
	// record-stamping hot paths read one field.  Maintained on every run
	// (a few appends per cycle), consumed by traced ones.
	phases   []openPhase
	curPhase event.Phase

	// lens is Allgather's scratch for the part lengths it broadcasts.
	lens []int64
}

// openPhase is one entry of a rank's phase stack: the phase and the
// simulated time it opened at.
type openPhase struct {
	phase event.Phase
	t0    float64
}

// Rank returns this processor's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Elapsed returns the rank's simulated elapsed time in seconds.
func (c *Comm) Elapsed() float64 { return c.clock.Now }

// Trace returns the world's event trace, or nil when the run is
// untraced (RunModel/Run).  The trace is shared by all ranks and grows
// as the run executes; reading or resetting it is safe only while the
// caller's rank holds the execution token, i.e. from straight-line rank
// code.  Because the engine executes every run in one deterministic
// total order, the trace's contents at any fixed point of a rank's
// program are themselves deterministic, which is what lets the
// measured-cost feedback loop empty the trace when an epoch opens and
// profile what it holds at the cut, bitwise reproducibly.
func (c *Comm) Trace() *event.Trace { return c.world.trace }

// PushPhase opens a phase on this rank at its current simulated time:
// subsequent trace records are stamped with it.  Phases nest; every
// PushPhase must be matched by a PopPhase on the same rank.  Pure
// observation — the simulated clock never moves.
func (c *Comm) PushPhase(ph event.Phase) {
	c.phases = append(c.phases, openPhase{phase: ph, t0: c.clock.Now})
	c.curPhase = ph
}

// PopPhase closes the innermost open phase on this rank; on a traced
// run the completed span joins the trace (event.Trace.Spans).
func (c *Comm) PopPhase() {
	n := len(c.phases) - 1
	if n < 0 {
		panic("msg: PopPhase without matching PushPhase")
	}
	op := c.phases[n]
	c.phases = c.phases[:n]
	if n > 0 {
		c.curPhase = c.phases[n-1].phase
	} else {
		c.curPhase = event.PhaseNone
	}
	if tr := c.world.trace; tr != nil {
		tr.Spans = append(tr.Spans, event.Span{
			Rank: c.rank, Phase: op.phase, Depth: n, T0: op.t0, T1: c.clock.Now,
		})
	}
}

// Release returns a received message — struct and payload buffer — to
// the world's free pool, where the next Send will recycle them.  The
// caller must not touch m or m.Data afterwards.  Releasing is optional
// (an unreleased message is ordinary garbage, and the pool never reuses
// what it was not handed back) but keeps hot exchange loops
// allocation-free; the runtime's own decode-and-discard paths
// (RecvInts, BcastInts, the collectives' internal receives) release
// automatically.
func (c *Comm) Release(m *Message) { c.world.release(m, true) }

// Compute advances this rank's simulated clock by the cost of `units`
// abstract work units under the world's cost model.  On a
// heterogeneous machine the charge is scaled by the rank's relative
// speed (half-speed processors take twice as long).
func (c *Comm) Compute(units float64) {
	w := c.world
	t := units * w.twork
	if s := w.topo.Speed(c.rank); s != 1 {
		t /= s
	}
	t0 := c.clock.Now
	c.clock.Now += t
	if tr := w.trace; tr != nil && c.clock.Now != t0 {
		tr.Add(event.Record{
			Rank: c.rank, Kind: event.KindCompute,
			T0: t0, T1: c.clock.Now, Peer: -1, Phase: c.curPhase,
		})
	}
}

// Send delivers data to rank dst with the given tag.  It never blocks on
// the receiver.  The payload is copied, so the caller may reuse the
// slice.
func (c *Comm) Send(dst, tag int, data []byte) {
	m := c.world.getMessage(len(data))
	copy(m.Data, data)
	c.deliver(dst, tag, m)
}

// deliver injects a pooled message whose Data the caller has already
// filled: the charging, contention, tracing, and wake logic shared by
// Send and the encode-in-place senders (SendInts, SendFloats).
func (c *Comm) deliver(dst, tag int, m *Message) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("msg: send to invalid rank %d (size %d)", dst, c.world.size))
	}
	m.Src, m.Tag = c.rank, tag
	w := c.world
	t0 := c.clock.Now
	// Sender pays the pair's per-message setup plus per-byte injection
	// cost; the transfer may queue on shared links (fat-tree up-link
	// contention) before injection, and arrives after the wire latency.
	lp := w.topo.Pair(c.rank, dst)
	c.clock.Now += lp.Setup + float64(len(m.Data))*lp.PerByte
	depart := c.clock.Now
	if w.topo.Contended(c.rank, dst) {
		// Deterministic reservation pass: yield until this send is the
		// globally next event, so shared-link reservations happen in
		// (time, rank, seq) order — bitwise reproducible — instead of
		// goroutine-scheduling order.  Contention-free pairs skip the
		// yield, so delivery order — and therefore wildcard matching —
		// follows the ranks' program order alone.
		w.eng.Yield(c.rank, depart)
	}
	depart = w.topo.Acquire(c.rank, dst, len(m.Data), depart)
	m.arrival = depart + lp.Latency
	if tr := w.trace; tr != nil {
		w.msgSeq++
		m.id = w.msgSeq
		tr.Add(event.Record{
			Rank: c.rank, Kind: event.KindSend, T0: t0, T1: c.clock.Now,
			Peer: dst, Tag: tag, Bytes: len(m.Data), MsgID: m.id,
			Depart: depart, Phase: c.curPhase,
		})
	}
	if isCollectiveTag(tag) {
		w.stats.collMsgs++
		w.stats.collBytes += int64(len(m.Data))
	} else {
		w.stats.userMsgs++
		w.stats.userBytes += int64(len(m.Data))
	}
	w.boxes[dst].put(m)
	if w.boxes[dst].n > w.stats.mailboxHighWater {
		w.stats.mailboxHighWater = w.boxes[dst].n
	}
	// Wake the receiver only when this message matches its blocked Recv,
	// keyed no earlier than the receiver's own clock: the resumed rank's
	// clock then catches up to at least its wake key before it emits any
	// further event, which keeps the engine's processed keys
	// nondecreasing — the property the deterministic reservation pass's
	// simulated-time ordering rests on.
	if ws := &w.waiting[dst]; ws.active &&
		(ws.src == AnySource || ws.src == m.Src) &&
		(ws.tag == AnyTag || ws.tag == m.Tag) {
		wake := m.arrival
		if ws.clock > wake {
			wake = ws.clock
		}
		w.eng.Wake(dst, wake)
	}
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// src may be AnySource and tag may be AnyTag.
//
// The receiver waits for the arrival and then pays the pair's
// per-message and per-byte receive overhead (matching + copy-out),
// mirroring the sender's injection cost.  This is what makes a rooted
// gather cost the root ~P message receipts — the host-side bottleneck the
// paper's Section 4.2 warns about for serial partitioning.
func (c *Comm) Recv(src, tag int) *Message {
	mb := &c.world.boxes[c.rank]
	t0 := c.clock.Now
	m := mb.tryTake(src, tag)
	for m == nil {
		ws := &c.world.waiting[c.rank]
		*ws = waitState{active: true, src: src, tag: tag, clock: c.clock.Now}
		c.world.eng.Block(c.rank)
		ws.active = false
		m = mb.tryTake(src, tag)
	}
	if m.arrival > c.clock.Now {
		c.clock.Now = m.arrival
	}
	lp := c.world.topo.Pair(m.Src, c.rank)
	c.clock.Now += lp.Setup + float64(len(m.Data))*lp.PerByte
	if tr := c.world.trace; tr != nil {
		tr.Add(event.Record{
			Rank: c.rank, Kind: event.KindRecv, T0: t0, T1: c.clock.Now,
			Peer: m.Src, Tag: m.Tag, Bytes: len(m.Data), MsgID: m.id,
			Arrival: m.arrival, Phase: c.curPhase,
		})
	}
	return m
}

// RankPanic is the typed panic value runWorld raises when a rank's
// program panics: the rank, the phase it was executing (PhaseNone when
// no phase was open), the original panic value, and the goroutine stack
// captured at the point of the panic.  Serving layers recover it to
// turn a dying world into a structured per-request error instead of
// process death; the CLI paths let it unwind as before.
type RankPanic struct {
	Rank  int
	Phase event.Phase
	Value any
	Stack []byte
}

func (rp *RankPanic) Error() string {
	return fmt.Sprintf("msg: rank %d panicked: %v", rp.Rank, rp.Value)
}

// Unwrap exposes the original panic value when it was itself an error,
// so errors.Is/As see through the rank wrapper.
func (rp *RankPanic) Unwrap() error {
	if err, ok := rp.Value.(error); ok {
		return err
	}
	return nil
}

// DeadlockError is the typed panic value runWorld raises when the
// engine aborts blocked ranks with no matching send in flight — every
// listed rank was stuck in Recv when the calendar drained.
type DeadlockError struct {
	Ranks []int
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("msg: deadlock: ranks %v blocked in Recv with no matching send in flight", d.Ranks)
}

// Run executes fn on p ranks and blocks until all complete.  A panic on
// any rank is re-raised on the caller after all ranks stop.
func Run(p int, fn func(*Comm)) {
	RunModel(p, nil, fn)
}

// RunModel is Run with a simulated machine cost model installed; it returns
// the final simulated clock value of each rank.  A nil model is the zero
// model: every charge is 0 and all clocks remain zero.
func RunModel(p int, model *CostModel, fn func(*Comm)) []float64 {
	times, _ := runWorld(p, model, false, fn)
	return times
}

// RunTraced is RunModel with event tracing enabled: every clock-advancing
// operation of every rank is recorded, message sends are linked to the
// receives that consumed them, every closed phase is kept as a span, and
// the returned trace supports critical-path extraction
// (event.CriticalPath) and Chrome-tracing export (Trace.WriteChrome).
func RunTraced(p int, model *CostModel, fn func(*Comm)) ([]float64, *event.Trace) {
	return runWorld(p, model, true, fn)
}

func runWorld(p int, model *CostModel, traced bool, fn func(*Comm)) ([]float64, *event.Trace) {
	if p <= 0 {
		panic("msg: world size must be positive")
	}
	// Every world runs on a machine.  A nil model is the zero model —
	// untimed, every charge 0 — and a nil Topo is the flat machine of
	// the model's own scalars.  Both resolve onto the World, never into
	// the caller's model, which concurrent worlds may share.
	if model == nil {
		model = &CostModel{}
	}
	topo := model.Topo
	if topo == nil {
		topo = machine.NewFlat(p, machine.LinkParams{
			Setup: model.TSetup, PerByte: model.TByte, Latency: model.TLatency})
	}
	if topo.Ranks() < p {
		panic(fmt.Sprintf("msg: topology models %d ranks, world needs %d", topo.Ranks(), p))
	}
	// Fresh contention state per run so a model can be reused.
	topo.Reset()
	w := &World{size: p, boxes: make([]mailbox, p), topo: topo, twork: model.TWork,
		eng: event.NewEngine(p), waiting: make([]waitState, p)}
	if traced {
		w.trace = &event.Trace{P: p}
		w.trace.Grow(64 * p)
	}
	comms := make([]*Comm, p)
	for i := range comms {
		comms[i] = &Comm{rank: i, world: w}
	}
	panics := make([]any, p)
	stacks := make([][]byte, p)
	defer w.flushStats() // flush even when a rank panic unwinds runWorld
	w.eng.Run(func(r int) {
		defer func() {
			if e := recover(); e != nil {
				panics[r] = e
				stacks[r] = debug.Stack()
			}
		}()
		fn(comms[r])
	})
	// A real panic on one rank starves its partners, which then abort as
	// deadlocked; report the root cause, not the symptom.  Both faults
	// re-raise typed values (*RankPanic, *DeadlockError) so a recovering
	// caller — the serving layer — can attribute the failure to a rank
	// and phase instead of parsing a message string.
	var deadlocked []int
	for r, e := range panics {
		if e == nil {
			continue
		}
		if _, ok := e.(event.Deadlock); ok {
			deadlocked = append(deadlocked, r)
			continue
		}
		panic(&RankPanic{Rank: r, Phase: comms[r].curPhase, Value: e, Stack: stacks[r]})
	}
	if len(deadlocked) > 0 {
		panic(&DeadlockError{Ranks: deadlocked})
	}
	times := make([]float64, p)
	for i, cm := range comms {
		times[i] = cm.clock.Now
	}
	return times, w.trace
}
