package event

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Kind classifies a traced, clock-advancing operation.
type Kind uint8

// The three operation classes the runtime records.
const (
	// KindCompute is local work: a Compute charge or a raw clock advance.
	KindCompute Kind = iota
	// KindSend is the sender-side injection span (per-message setup plus
	// per-byte copy); the wire time after it is implicit in the matching
	// receive's Arrival.
	KindSend
	// KindRecv is the receiver-side span of a Recv or Wait: from the call
	// to completion, covering any idle wait for the arrival plus the
	// receive overhead (matching + copy-out).
	KindRecv
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	default:
		return "recv"
	}
}

// Record is one clock-advancing operation of one rank.  Records of a
// rank appear in the trace in that rank's program order, which is also
// nondecreasing T0 order per rank.
type Record struct {
	Rank  int
	Kind  Kind
	T0    float64 // simulated time the operation started
	T1    float64 // simulated time it completed (the rank's clock after)
	Peer  int     // destination (send) or source (recv); -1 otherwise
	Tag   int
	Bytes int
	// MsgID links a send record to the recv record that consumed the
	// message; 0 when the operation moved no message.
	MsgID int64
	// Arrival is, for a recv, the simulated time the matched message
	// became available at the receiver (send completion + wire latency +
	// any contention queueing).  Arrival > T0 means the rank idled
	// waiting on the wire.
	Arrival float64
	// Depart is, for a send, the simulated time the message actually
	// entered the wire: T1 plus any contention queueing on shared links
	// (Depart == T1 on uncontended paths).  Arrival - Depart is pure
	// wire latency, Depart - T1 the queue delay — the exact split the
	// wait-blame pass charges to contention vs wire.
	Depart float64
	// Phase is the innermost phase span open on the rank when the
	// operation ran (PhaseNone outside any span).
	Phase Phase
}

// Trace is the event log of one simulated run.
type Trace struct {
	P       int // world size
	Records []Record
}

// Add appends a record.  Appends are serialized by the engine's
// execution token, so no locking is needed.
//
// Records is deliberately one contiguous, globally ordered arena rather
// than per-rank lists: the global append order is the engine's
// deterministic total order, which is what lets the measured-cost
// feedback loop cut bitwise-reproducible profile windows out of a live
// trace by plain [start, end) indices (internal/core's Unsteady.Cycle,
// profile.FromTrace).  Growth is amortized by Grow — the runtime
// pre-grows each traced world — and by append's doubling thereafter.
func (t *Trace) Add(r Record) { t.Records = append(t.Records, r) }

// Grow ensures capacity for at least n additional records without
// reallocation, pre-growing the arena so hot recording loops do not pay
// repeated growth copies.
func (t *Trace) Grow(n int) {
	t.Records = slices.Grow(t.Records, n)
}

// chromeEvent is one entry of the Chrome tracing JSON array format
// (chrome://tracing, Perfetto).  Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const usec = 1e6

// WriteChrome writes the trace in the Chrome tracing JSON array format:
// one complete ("X") event per record on the rank's timeline, plus flow
// ("s"/"f") arrows from each send to the recv that consumed its message.
// Load the file in chrome://tracing or https://ui.perfetto.dev.
//
// spans (nil for none) layers the run's phase spans onto the same
// per-rank timelines: each span becomes an enclosing "X" slice (spans
// strictly contain the records and each other by the push/pop stack
// discipline, so the viewer nests them), so the export shows both
// *what* each rank did and *which phase* it was doing it for, with the
// message flow arrows as the causality edges between.
func (t *Trace) WriteChrome(w io.Writer, spans []Span) error {
	var events []chromeEvent
	for rank := 0; rank < t.P; rank++ {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
	}
	for _, s := range spans {
		dur := (s.T1 - s.T0) * usec
		events = append(events, chromeEvent{
			Name: s.Phase.String(), Ph: "X", Ts: s.T0 * usec, Dur: &dur,
			Pid: 0, Tid: s.Rank,
			Args: map[string]any{"depth": s.Depth, "epoch": s.Epoch},
		})
	}
	recvOf := make(map[int64]bool)
	for _, r := range t.Records {
		if r.Kind == KindRecv && r.MsgID != 0 {
			recvOf[r.MsgID] = true
		}
	}
	for _, r := range t.Records {
		name := r.Kind.String()
		args := map[string]any{}
		if r.Phase != PhaseNone {
			args["phase"] = r.Phase.String()
		}
		switch r.Kind {
		case KindSend:
			name = fmt.Sprintf("send→%d", r.Peer)
			args["bytes"], args["tag"] = r.Bytes, r.Tag
			if r.Depart > r.T1 {
				args["queue_us"] = (r.Depart - r.T1) * usec
			}
		case KindRecv:
			name = fmt.Sprintf("recv←%d", r.Peer)
			args["bytes"], args["tag"] = r.Bytes, r.Tag
			args["arrival_us"] = r.Arrival * usec
			args["waited"] = r.Arrival > r.T0
		}
		dur := (r.T1 - r.T0) * usec
		events = append(events, chromeEvent{
			Name: name, Ph: "X", Ts: r.T0 * usec, Dur: &dur,
			Pid: 0, Tid: r.Rank, Args: args,
		})
		if r.MsgID != 0 && recvOf[r.MsgID] {
			switch r.Kind {
			case KindSend:
				events = append(events, chromeEvent{
					Name: "msg", Ph: "s", Ts: r.T1 * usec, Pid: 0,
					Tid: r.Rank, ID: r.MsgID,
				})
			case KindRecv:
				events = append(events, chromeEvent{
					Name: "msg", Ph: "f", BP: "e", Ts: r.Arrival * usec,
					Pid: 0, Tid: r.Rank, ID: r.MsgID,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteChromeFile writes the Chrome-tracing export (WriteChrome) to
// path, reporting both write and close failures (a truncated trace file
// must not look like success).  The single implementation both exporter
// commands (plumbench -trace, plumviz -trace) share.
func (t *Trace) WriteChromeFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChrome(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
