package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// The simulated-plane run ledger: a deterministic, ordered JSONL stream
// of structured records cut at epoch boundaries of the unsteady
// solve->adapt->balance cycle, framed by a manifest (line 1) and a
// metrics snapshot + end record (last lines).  Epoch records are a pure
// function of the simulated program, so two ledgers of the same
// configuration byte-compare equal line for line — across repetitions,
// GOMAXPROCS values, and machines — which is what makes a ledger both a
// diffable experiment artifact and a determinism check.

// SchemaVersion is the ledger JSONL schema this package writes.
// Readers accept [MinSchemaVersion, SchemaVersion] and reject anything
// else loudly, naming both the file's version and the supported range
// rather than guessing.  v2 added nothing structural over v1 — it marks
// the point where schema acceptance became a range, so future additive
// changes can bump the writer without orphaning committed baselines.
const (
	SchemaVersion    = 2
	MinSchemaVersion = 1
)

// Manifest is the first record of a ledger: everything needed to name
// the run and decide whether two ledgers are comparable.  Host fields
// (Go version, CPU count, ...) describe the machine that produced the
// file; they do not influence any epoch record.
type Manifest struct {
	Kind         string `json:"kind"` // always "manifest"
	Schema       int    `json:"schema"`
	Tool         string `json:"tool"`          // producing command
	ConfigDigest string `json:"config_digest"` // hash of the run configuration
	Seed         int64  `json:"seed"`          // workload seed (0: the deterministic default)
	Git          string `json:"git"`           // VCS revision of the producing build
	GoVersion    string `json:"go_version"`
	GoOS         string `json:"goos"`
	GoArch       string `json:"goarch"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	Start        string `json:"start"` // RFC3339 UTC
}

// RankShare is one rank's cost decomposition over an epoch, in
// simulated seconds (the internal/profile aggregation, flattened so the
// ledger schema has no cross-package types).
type RankShare struct {
	Compute   float64 `json:"compute"`
	Overhead  float64 `json:"overhead"`
	WaitHalo  float64 `json:"wait_halo"`
	WaitColl  float64 `json:"wait_coll"`
	WaitMig   float64 `json:"wait_mig"`
	WaitOther float64 `json:"wait_other"`
	PathShare float64 `json:"path_share"` // share of the epoch's critical path, [0, 1]
}

// EpochRecord is one adaption epoch of one simulated run: the
// quantities of the paper's Tables 1-2 and Figs. 4-6 as the run
// actually produced them, plus the gain/cost decision as it was priced
// and the measured cost decomposition when the run was traced.
type EpochRecord struct {
	Kind    string `json:"kind"`    // always "epoch"
	Exp     string `json:"exp"`     // experiment family ("implicit", "feedback")
	Model   string `json:"model"`   // machine topology; "" is the uniform SP2
	Run     string `json:"run"`     // the run's pricing mode: "analytic" | "measured"
	P       int    `json:"p"`       // world size
	Cycle   int    `json:"cycle"`   // epoch number within the run
	Pricing string `json:"pricing"` // how THIS decision priced: "analytic" | "measured"

	Balanced bool `json:"balanced"` // evaluation step skipped the repartition
	Accepted bool `json:"accepted"` // new mapping adopted

	Imbalance float64 `json:"imbalance"` // predicted Wmax/Wavg before balancing
	WOldMax   int64   `json:"w_old_max"` // heaviest-rank load, old owners
	WNewMax   int64   `json:"w_new_max"` // heaviest-rank load, candidate owners
	Gain      float64 `json:"gain"`      // gain side as the decision priced it
	Cost      float64 `json:"cost"`      // cost side as the decision priced it
	TotalV    int64   `json:"total_v"`   // moved weight of the candidate assignment
	MaxV      int64   `json:"max_v"`     // bottleneck moved weight
	EdgeCut   int64   `json:"edge_cut"`  // dual-graph edge cut after the epoch
	Elems     int     `json:"elems"`     // global mesh size after the epoch

	SolveSeconds float64 `json:"solve_seconds"` // simulated solve-phase seconds, max over ranks
	PCGIters     int     `json:"pcg_iters,omitempty"`

	// Critical path of the epoch window (zero on untraced runs).
	CPMakespan float64 `json:"cp_makespan"`
	CPCompute  float64 `json:"cp_compute"`
	CPOverhead float64 `json:"cp_overhead"`
	CPWait     float64 `json:"cp_wait"`

	// Ranks is the per-rank decomposition (len P); empty on untraced runs.
	Ranks []RankShare `json:"ranks,omitempty"`

	// Blame is the wait-blame summary of the epoch's critical path
	// (event.WaitBlame, flattened); nil on untraced runs.  Additive and
	// optional, so schema 1 readers are unaffected.
	Blame *BlameRecord `json:"blame,omitempty"`
}

// BlameRecord attributes an epoch's critical-path wait time by culprit:
// whose compute the path waited on, how much of the wait was queueing
// on contended links vs irreducible wire latency, and the heaviest
// culprit and edges.  Seconds are simulated.
type BlameRecord struct {
	Wait           float64 `json:"wait"` // total attributed wait (receiver perspective)
	SenderCompute  float64 `json:"sender_compute"`
	SenderOverhead float64 `json:"sender_overhead"`
	Contention     float64 `json:"contention"`
	Wire           float64 `json:"wire"`
	Idle           float64 `json:"idle"`

	// TopRank/TopPhase name the largest sender-lag cell of the epoch's
	// league table; TopRank is -1 when no sender lag was attributed.
	TopRank  int     `json:"top_rank"`
	TopPhase string  `json:"top_phase,omitempty"`
	TopLag   float64 `json:"top_lag,omitempty"`

	// TopEdges are the most-delaying causality edges (bounded).
	TopEdges []BlameEdge `json:"top_edges,omitempty"`
}

// BlameEdge is one directed rank pair's share of the blamed delay.
type BlameEdge struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Seconds float64 `json:"s"` // queue + wire seconds charged to the edge
}

// MetricsRecord embeds a host-plane registry snapshot in the ledger.
// Unlike epoch records it is host data: wall-clock histograms and world
// scheduling counters legitimately differ between machines, so ledger
// diffing compares epochs, not metrics.
type MetricsRecord struct {
	Kind     string             `json:"kind"` // always "metrics"
	Counters map[string]float64 `json:"counters"`
}

// End is the final record: the epoch count (a truncation check) and a
// checksum of the run's rendered stdout, which ties the ledger to the
// human-readable tables the same run printed.
type End struct {
	Kind         string `json:"kind"` // always "end"
	Epochs       int    `json:"epochs"`
	OutputSHA256 string `json:"output_sha256,omitempty"`
}

// Ledger is an open, append-only run ledger.  Add is safe for
// concurrent use, but deterministic ledgers require callers to append
// in a deterministic order — the experiment harness collects per-world
// records into index-addressed slots and flushes them after the world
// barrier, in loop order.
type Ledger struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	enc    *json.Encoder
	epochs int
	err    error
}

// Create opens path, writes the manifest, and returns the ledger.
func Create(path string, m Manifest) (*Ledger, error) {
	m.Kind = "manifest"
	m.Schema = SchemaVersion
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	l := &Ledger{f: f, w: w, enc: json.NewEncoder(w)}
	if err := l.enc.Encode(m); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Add appends epoch records.  The first write error is latched and
// returned by Close (a truncated ledger must not look like success).
func (l *Ledger) Add(recs ...EpochRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		r.Kind = "epoch"
		if l.err == nil {
			l.err = l.enc.Encode(r)
		}
		l.epochs++
	}
}

// Epochs returns the number of epoch records appended so far.
func (l *Ledger) Epochs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochs
}

// Close writes the metrics snapshot (when non-nil) and the end record,
// flushes, and closes the file, returning the first error of the
// ledger's lifetime.
func (l *Ledger) Close(metrics map[string]float64, outputSHA256 string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if metrics != nil && l.err == nil {
		l.err = l.enc.Encode(MetricsRecord{Kind: "metrics", Counters: metrics})
	}
	if l.err == nil {
		l.err = l.enc.Encode(End{Kind: "end", Epochs: l.epochs, OutputSHA256: outputSHA256})
	}
	if ferr := l.w.Flush(); l.err == nil {
		l.err = ferr
	}
	if cerr := l.f.Close(); l.err == nil {
		l.err = cerr
	}
	return l.err
}

// LedgerFile is a fully read and schema-validated ledger.
type LedgerFile struct {
	Manifest Manifest
	Epochs   []EpochRecord
	Metrics  map[string]float64 // nil when no metrics record was written
	End      End
}

// ReadLedger parses and validates a ledger stream: manifest first, a
// consistent epoch stream, and an end record whose count matches.  Any
// schema violation is an error — the CI smoke job validates ledgers by
// reading them.
//
// lenient is for ledgers whose producing run may have been killed
// mid-stream: a missing end record, or a torn final line, parses as
// truncated (the second result) with every complete record retained.
// Structural violations before the cut (a mid-file parse error, an
// epoch/end count mismatch, a missing manifest) still fail — a
// truncated ledger is salvageable, a corrupt one is not.  A strict read
// never reports truncated.
func ReadLedger(r io.Reader, lenient bool) (*LedgerFile, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lf := &LedgerFile{}
	line := 0
	sawEnd := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if sawEnd {
			return nil, false, fmt.Errorf("obs: line %d: records after the end record", line)
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			if lenient && !scannerHasMore(sc) {
				// A torn final line is the signature of a killed writer:
				// everything before it is intact.
				return lf, true, nil
			}
			return nil, false, fmt.Errorf("obs: line %d: %v", line, err)
		}
		switch probe.Kind {
		case "manifest":
			if line != 1 {
				return nil, false, fmt.Errorf("obs: line %d: manifest must be the first record", line)
			}
			if err := json.Unmarshal(raw, &lf.Manifest); err != nil {
				return nil, false, fmt.Errorf("obs: line %d: %v", line, err)
			}
			if lf.Manifest.Schema < MinSchemaVersion || lf.Manifest.Schema > SchemaVersion {
				return nil, false, fmt.Errorf("obs: ledger schema v%d unsupported by this reader"+
					" (supports v%d..v%d) — regenerate the ledger or upgrade the tool",
					lf.Manifest.Schema, MinSchemaVersion, SchemaVersion)
			}
		case "epoch":
			if line == 1 {
				return nil, false, fmt.Errorf("obs: line 1: ledger does not start with a manifest")
			}
			var e EpochRecord
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, false, fmt.Errorf("obs: line %d: %v", line, err)
			}
			if e.P <= 0 {
				return nil, false, fmt.Errorf("obs: line %d: epoch record with p=%d", line, e.P)
			}
			if len(e.Ranks) != 0 && len(e.Ranks) != e.P {
				return nil, false, fmt.Errorf("obs: line %d: %d rank shares for p=%d", line, len(e.Ranks), e.P)
			}
			lf.Epochs = append(lf.Epochs, e)
		case "metrics":
			var m MetricsRecord
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, false, fmt.Errorf("obs: line %d: %v", line, err)
			}
			lf.Metrics = m.Counters
		case "end":
			if err := json.Unmarshal(raw, &lf.End); err != nil {
				return nil, false, fmt.Errorf("obs: line %d: %v", line, err)
			}
			if lf.End.Epochs != len(lf.Epochs) {
				return nil, false, fmt.Errorf("obs: end record counts %d epochs, ledger has %d",
					lf.End.Epochs, len(lf.Epochs))
			}
			sawEnd = true
		default:
			return nil, false, fmt.Errorf("obs: line %d: unknown record kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	if line == 0 {
		return nil, false, fmt.Errorf("obs: empty ledger")
	}
	if !sawEnd {
		if lenient {
			return lf, true, nil
		}
		return nil, false, fmt.Errorf("obs: truncated ledger: no end record")
	}
	return lf, false, nil
}

// scannerHasMore reports whether another non-blank line follows
// (consuming input).
func scannerHasMore(sc *bufio.Scanner) bool {
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			return true
		}
	}
	return false
}

// ReadLedgerFile reads and validates the ledger at path (ReadLedger).
func ReadLedgerFile(path string, lenient bool) (*LedgerFile, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	lf, truncated, err := ReadLedger(f, lenient)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return lf, truncated, nil
}
