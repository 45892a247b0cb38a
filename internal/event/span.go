package event

// Causal span layer: each rank's timeline, segmented into typed, nested
// phase spans (solver iteration, halo exchange, collective, SPAI setup,
// refine/coarsen, repartition, migrate).  The runtime's per-rank phase
// stack (msg.Comm.PushPhase/PopPhase) is the only recorder: on a traced
// world each closed phase is appended to Trace.Spans in the engine's
// total order, like Records.  Spans are pure observation — opening or
// closing one never touches a simulated clock.  SpanLog only writes: a
// caller cuts a window of Trace.Spans per epoch and the log serializes
// it in canonical rank-major order, so the stream is deterministic,
// byte-equal across repeat runs and across GOMAXPROCS.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Phase classifies a span: which algorithmic phase of the PLUM cycle
// (or of the solver underneath it) the enclosed operations belong to.
type Phase uint8

// The phases of the adaption/solve cycle that get spans.  The zero
// value PhaseNone marks records outside any pushed phase.
const (
	PhaseNone Phase = iota
	PhaseSolve
	PhaseHalo
	PhaseCollective
	PhaseSPAI
	PhaseMark
	PhaseCoarsen
	PhaseRefine
	PhaseRepartition
	PhaseReassign
	PhaseMigrate
	NumPhases
)

var phaseNames = [NumPhases]string{
	"none", "solve", "halo", "collective", "spai", "mark",
	"coarsen", "refine", "repartition", "reassign", "migrate",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// PhaseFromString is the inverse of Phase.String; unknown names map to
// PhaseNone (span files are forward-tolerant).
func PhaseFromString(s string) Phase {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i)
		}
	}
	return PhaseNone
}

// Span is one completed phase interval of one rank.
type Span struct {
	Rank  int
	Phase Phase
	Depth int // nesting depth: 0 = outermost
	Epoch int // epoch the span was written in (span files; 0 in a trace)
	T0    float64
	T1    float64
}

// SpanLog writes one world's span stream: a header, one cut per epoch
// (its spans, then its blame summary) and a trailer.  It holds no
// spans; the world's trace records them (Trace.Spans), and the caller
// hands each epoch's window to Cut.
type SpanLog struct {
	sink    io.Writer
	p       int
	epoch   int
	written int64 // spans serialized to the sink
	err     error
}

// NewSpanLog starts a P-rank world's stream on sink by writing its
// header; label annotates the header (experiment, model, run, P...).
func NewSpanLog(sink io.Writer, p int, label map[string]string) *SpanLog {
	s := &SpanLog{sink: sink, p: p}
	s.writeLine(spanHdr{K: "hdr", Schema: SpanSchemaVersion, P: p, Label: label})
	return s
}

// Cut ends the current epoch: spans are written in canonical rank-major
// order stamped with the epoch, followed by the epoch's blame summary
// (nil: none).
func (s *SpanLog) Cut(spans []Span, blame *BlameReport) {
	s.writeSpans(spans)
	if blame != nil {
		eb := blame.Summary(s.epoch, blameTopK)
		s.writeLine(&eb)
	}
	s.epoch++
}

// Close writes tail — the spans completed after the last cut — and the
// stream trailer (epochs, spans written).  The tail is a trailer, not
// a new epoch: its spans carry the number of the epoch after the last
// cut.
func (s *SpanLog) Close(tail []Span) error {
	s.writeSpans(tail)
	s.writeLine(spanEnd{K: "end", Epochs: s.epoch, Spans: s.written})
	return s.err
}

func (s *SpanLog) writeSpans(spans []Span) {
	for _, sp := range RankMajor(s.p, spans) {
		s.written++
		s.writeLine(spanLine{
			K: "span", E: s.epoch, R: sp.Rank, Ph: sp.Phase.String(),
			D: sp.Depth, T0: sp.T0, T1: sp.T1,
		})
	}
}

// RankMajor returns a copy of a P-rank world's spans ordered by rank,
// each rank's spans in their given order: the canonical order span
// streams and Chrome exports list them in.
func RankMajor(p int, spans []Span) []Span {
	next := make([]int, p+1)
	for _, sp := range spans {
		next[sp.Rank+1]++
	}
	for r := 1; r <= p; r++ {
		next[r] += next[r-1]
	}
	out := make([]Span, len(spans))
	for _, sp := range spans {
		out[next[sp.Rank]] = sp
		next[sp.Rank]++
	}
	return out
}

// writeLine writes one JSONL line, keeping the first error for Close.
func (s *SpanLog) writeLine(v any) {
	if s.err != nil {
		return
	}
	line, err := json.Marshal(v)
	if err == nil {
		_, err = s.sink.Write(append(line, '\n'))
	}
	s.err = err
}

// blameTopK bounds the per-epoch blame summary serialized into span
// files and ledgers: top-k lag culprits and top-k contended edges,
// with the remainder folded into LagOther.  Keeps the stream O(1) per
// epoch at P=4096.
const blameTopK = 16

// SpanSchemaVersion is the span-stream JSONL schema this package
// writes.  Readers accept [MinSpanSchemaVersion, SpanSchemaVersion] and
// reject anything else loudly, naming both the file's version and the
// supported range.
const (
	SpanSchemaVersion    = 2
	MinSpanSchemaVersion = 1
)

// The JSONL span-stream schema.  One stream per world; a file may
// concatenate several streams (hdr ... end, hdr ... end).
type spanHdr struct {
	K      string            `json:"k"`
	Schema int               `json:"schema"`
	P      int               `json:"p"`
	Label  map[string]string `json:"label,omitempty"`
}

type spanLine struct {
	K  string  `json:"k"`
	E  int     `json:"e"`
	R  int     `json:"r"`
	Ph string  `json:"ph"`
	D  int     `json:"d"`
	T0 float64 `json:"t0"`
	T1 float64 `json:"t1"`
}

type spanEnd struct {
	K      string `json:"k"`
	Epochs int    `json:"epochs"`
	Spans  int64  `json:"spans"`
}

// EpochBlame is the per-epoch blame summary as serialized in a span
// stream (and, trimmed further, in the obs ledger): the by-culprit
// decomposition of the epoch's critical-path wait time.
type EpochBlame struct {
	K     string `json:"k"` // "blame"
	Epoch int    `json:"e"`
	Culprits
	Lag      []LagEntry  `json:"lag,omitempty"`
	LagOther float64     `json:"lag_other,omitempty"`
	Edges    []EdgeBlame `json:"edges,omitempty"`
}

// SpanWorld is one parsed world stream of a span file.
type SpanWorld struct {
	P       int
	Label   map[string]string
	Spans   []Span
	Blame   []EpochBlame
	Epochs  int
	Written int64
	// Complete reports whether the stream's end trailer was present —
	// false means the producing run was killed mid-stream (or is still
	// running) and the counts above reflect only what was parsed.
	Complete bool
}

// ReadSpans parses a span file: a concatenation of one or more world
// streams.  It is deliberately tolerant of truncation — a stream cut
// off mid-line or before its end trailer parses as Complete=false with
// everything up to the cut intact — because a killed run leaves its
// last stream without a trailer, and the spans before the kill are
// still worth reading.  Structural
// errors (a span line outside any stream, an unknown schema) fail.
func ReadSpans(r io.Reader) ([]SpanWorld, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var worlds []SpanWorld
	var cur *SpanWorld
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			// A torn tail line is truncation, not corruption — but only
			// if nothing follows it.
			if tail := scannerHasMore(sc); tail {
				return nil, fmt.Errorf("event: span file line %d: %v", line, err)
			}
			return worlds, nil
		}
		switch probe.K {
		case "hdr":
			var h spanHdr
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("event: span file line %d: %v", line, err)
			}
			if h.Schema < MinSpanSchemaVersion || h.Schema > SpanSchemaVersion {
				return nil, fmt.Errorf("event: span file line %d: stream schema v%d unsupported"+
					" by this reader (supports v%d..v%d) — regenerate the stream or upgrade the tool",
					line, h.Schema, MinSpanSchemaVersion, SpanSchemaVersion)
			}
			worlds = append(worlds, SpanWorld{P: h.P, Label: h.Label})
			cur = &worlds[len(worlds)-1]
		case "span":
			if cur == nil {
				return nil, fmt.Errorf("event: span file line %d: span before header", line)
			}
			var sl spanLine
			if err := json.Unmarshal(raw, &sl); err != nil {
				return nil, fmt.Errorf("event: span file line %d: %v", line, err)
			}
			cur.Spans = append(cur.Spans, Span{
				Rank: sl.R, Phase: PhaseFromString(sl.Ph), Depth: sl.D,
				Epoch: sl.E, T0: sl.T0, T1: sl.T1,
			})
		case "blame":
			if cur == nil {
				return nil, fmt.Errorf("event: span file line %d: blame before header", line)
			}
			var eb EpochBlame
			if err := json.Unmarshal(raw, &eb); err != nil {
				return nil, fmt.Errorf("event: span file line %d: %v", line, err)
			}
			cur.Blame = append(cur.Blame, eb)
		case "end":
			if cur == nil {
				return nil, fmt.Errorf("event: span file line %d: end before header", line)
			}
			var e spanEnd
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("event: span file line %d: %v", line, err)
			}
			cur.Epochs, cur.Written = e.Epochs, e.Spans
			cur.Complete = true
			cur = nil
		default:
			return nil, fmt.Errorf("event: span file line %d: unknown kind %q", line, probe.K)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(worlds) == 0 {
		return nil, errors.New("event: span file has no streams")
	}
	return worlds, nil
}

// scannerHasMore reports whether the scanner yields another non-blank
// line (consuming it).
func scannerHasMore(sc *bufio.Scanner) bool {
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			return true
		}
	}
	return false
}

// ReadSpansFile reads a span file from disk.
func ReadSpansFile(path string) ([]SpanWorld, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpans(f)
}
