package event

// Causal span layer: each rank's timeline, segmented into typed, nested
// phase spans (solver iteration, halo exchange, collective, SPAI setup,
// refine/coarsen, repartition, migrate).  Spans are pure observation —
// opening or closing one never touches a simulated clock — and epoch
// cuts flush each epoch's completed spans to the sink in canonical
// rank-major order.  Because every mutation happens while the owning
// rank holds the engine's execution token, the stream is deterministic:
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
	Epoch int // adaption epoch the span was flushed in
	T0    float64
	T1    float64
}

// SpanOptions configures a SpanLog.
type SpanOptions struct {
	// Sink receives the serialized span stream (JSONL).  Nil keeps all
	// spans resident for All().
	Sink io.Writer
	// Label annotates the stream header (experiment, model, run, P...).
	Label map[string]string
}

// SpanLog collects one world's spans.  All methods must be called while
// the acting rank holds the execution token (straight-line rank code),
// which serializes every mutation in the engine's deterministic order.
type SpanLog struct {
	P    int
	opts SpanOptions

	open [][]Span // per-rank stack of open spans
	done [][]Span // per-rank completed spans
	cut  []int    // per-rank count of done spans already stamped/flushed

	epoch   int
	written int64 // spans serialized to the sink
	closed  bool
	err     error
}

// NewSpanLog creates a span log for a P-rank world and writes the
// stream header.
func NewSpanLog(p int, opts SpanOptions) *SpanLog {
	s := &SpanLog{
		P:    p,
		opts: opts,
		open: make([][]Span, p),
		done: make([][]Span, p),
		cut:  make([]int, p),
	}
	s.writeLine(spanHdr{K: "hdr", Schema: SpanSchemaVersion, P: p, Label: opts.Label})
	return s
}

// Begin opens a span of the given phase on rank at simulated time t.
func (s *SpanLog) Begin(rank int, ph Phase, t float64) {
	st := s.open[rank]
	s.open[rank] = append(st, Span{Rank: rank, Phase: ph, Depth: len(st), T0: t})
}

// End closes rank's innermost open span at simulated time t and files
// it as completed.
func (s *SpanLog) End(rank int, t float64) {
	st := s.open[rank]
	if len(st) == 0 {
		panic("event: SpanLog.End without matching Begin")
	}
	sp := st[len(st)-1]
	s.open[rank] = st[:len(st)-1]
	sp.T1 = t
	s.done[rank] = append(s.done[rank], sp)
}

// CutEpoch ends the current epoch: every completed span is stamped
// with the epoch and flushed to the sink in canonical rank-major order,
// followed by the epoch's blame summary (nil: plain flush).
func (s *SpanLog) CutEpoch(blame *BlameReport) {
	for rank := 0; rank < s.P; rank++ {
		for i := s.cut[rank]; i < len(s.done[rank]); i++ {
			s.writeSpan(&s.done[rank][i])
		}
		if s.opts.Sink != nil {
			s.done[rank] = s.done[rank][:0]
		}
		s.cut[rank] = len(s.done[rank])
	}
	if blame != nil {
		eb := blame.Summary(s.epoch, blameTopK)
		s.writeLine(&eb)
	}
	s.epoch++
}

// writeSpan stamps a span with the epoch being cut and writes its line.
func (s *SpanLog) writeSpan(sp *Span) {
	sp.Epoch = s.epoch
	s.written++
	s.writeLine(spanLine{
		K: "span", E: sp.Epoch, R: sp.Rank, Ph: sp.Phase.String(),
		D: sp.Depth, T0: sp.T0, T1: sp.T1,
	})
}

// Close flushes any spans completed after the last epoch cut and
// writes the stream trailer (epochs, spans written).
func (s *SpanLog) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.CutEpoch(nil)
	s.epoch-- // the final flush is a trailer, not a new epoch
	s.writeLine(spanEnd{K: "end", Epochs: s.epoch, Spans: s.written})
	return s.err
}

// All returns the resident completed spans in canonical rank-major
// order.  With a nil sink (the in-memory mode plumviz -trace uses)
// this is every span of the run; with a sink it is only the spans not
// yet flushed.
func (s *SpanLog) All() []Span {
	var out []Span
	for rank := 0; rank < s.P; rank++ {
		out = append(out, s.done[rank]...)
	}
	return out
}

// Err returns the first sink write error, if any.
func (s *SpanLog) Err() error { return s.err }

func (s *SpanLog) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *SpanLog) writeLine(v any) {
	if s.opts.Sink == nil {
		return
	}
	line, err := json.Marshal(v)
	if err != nil {
		s.fail(err)
		return
	}
	if _, err := s.opts.Sink.Write(append(line, '\n')); err != nil {
		s.fail(err)
	}
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
	K              string      `json:"k"` // "blame"
	Epoch          int         `json:"e"`
	Wait           float64     `json:"wait"`
	SenderCompute  float64     `json:"sender_compute"`
	SenderOverhead float64     `json:"sender_overhead"`
	Contention     float64     `json:"contention"`
	Wire           float64     `json:"wire"`
	Idle           float64     `json:"idle"`
	Lag            []LagEntry  `json:"lag,omitempty"`
	LagOther       float64     `json:"lag_other,omitempty"`
	Edges          []EdgeBlame `json:"edges,omitempty"`
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
