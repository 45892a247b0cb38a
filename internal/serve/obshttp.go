package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"

	"plum/internal/event"
	"plum/internal/obs"
	"plum/internal/obs/diff"
)

// The shared host-plane observability surface.  Everything served here
// is host data — the metrics registry, run ledgers on disk, span
// streams, the Go profiler — so scraping it cannot perturb a simulated
// run in progress.  Both plumserve and plumbench -serve mount it
// through ObsState.Register:
//
//	/metrics        the obs registry, Prometheus text exposition
//	/runs           JSON listing of *.jsonl ledgers in the ledger dir
//	/spans          JSON summary of the span file (worlds, blame)
//	/diff           differential analysis vs ?base=<ledger in the dir>
//	/healthz        {"status":...} from the Health callback
//	/debug/pprof/*  the standard Go profiler endpoints

// ObsState names the artifacts the observability handlers serve.
type ObsState struct {
	Dir    string // directory listed by /runs ("" = current directory)
	Ledger string // current run's ledger, the "current" side of /diff ("" = none)
	Spans  string // span file served by /spans ("" = none)

	// Health returns the /healthz status string ("running", "done",
	// "draining", ...).  Nil reports "running" forever.
	Health func() string
}

// Register mounts the observability surface on mux.
func (o *ObsState) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default.WritePrometheus(w)
	})
	mux.HandleFunc("/runs", o.handleRuns)
	mux.HandleFunc("/spans", o.handleSpans)
	mux.HandleFunc("/diff", o.handleDiff)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "running"
		if o.Health != nil {
			status = o.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":%q}\n", status)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// runsDir resolves the /runs listing directory.
func (o *ObsState) runsDir() string {
	if o.Dir != "" {
		return o.Dir
	}
	return "."
}

// RunEntry is one /runs listing line.
type RunEntry struct {
	File      string `json:"file"`
	Size      int64  `json:"size"`
	Epochs    int    `json:"epochs,omitempty"`
	Streaming bool   `json:"streaming,omitempty"` // no end record yet (run in progress)
	Error     string `json:"error,omitempty"`     // unreadable ledger
}

// handleRuns lists the ledgers in the ledger directory.  A ledger being
// written concurrently has no end record yet; the lenient reader
// reports the epochs flushed so far with Streaming set, so a live
// scrape sees progress instead of an error.
func (o *ObsState) handleRuns(w http.ResponseWriter, r *http.Request) {
	paths, _ := filepath.Glob(filepath.Join(o.runsDir(), "*.jsonl"))
	entries := []RunEntry{}
	for _, p := range paths {
		e := RunEntry{File: filepath.Base(p)}
		if fi, err := os.Stat(p); err == nil {
			e.Size = fi.Size()
		}
		if lf, trunc, err := obs.ReadLedgerFileLenient(p); err != nil {
			e.Error = err.Error()
		} else {
			e.Epochs = len(lf.Epochs)
			e.Streaming = trunc
		}
		entries = append(entries, e)
	}
	writeJSON(w, entries)
}

// SpanWorldEntry is one world stream of the /spans response: the stream
// header plus the bounded per-epoch blame summaries — never the spans
// themselves, which may number millions.
type SpanWorldEntry struct {
	Label    map[string]string  `json:"label,omitempty"`
	P        int                `json:"p"`
	Ring     int                `json:"ring"`
	Spans    int                `json:"spans"`
	Epochs   int                `json:"epochs"`
	Complete bool               `json:"complete"`
	Blame    []event.EpochBlame `json:"blame,omitempty"`
}

// handleSpans summarizes the span file.  The reader tolerates a file
// still being appended to (incomplete trailing stream), so live scrapes
// during a run see every world flushed so far.
func (o *ObsState) handleSpans(w http.ResponseWriter, r *http.Request) {
	if o.Spans == "" {
		http.Error(w, "no span file for this run", http.StatusNotFound)
		return
	}
	worlds, err := event.ReadSpansFile(o.Spans)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	entries := make([]SpanWorldEntry, len(worlds))
	for i, sw := range worlds {
		entries[i] = SpanWorldEntry{
			Label: sw.Label, P: sw.P, Ring: sw.Ring,
			Spans: len(sw.Spans), Epochs: sw.Epochs,
			Complete: sw.Complete, Blame: sw.Blame,
		}
	}
	writeJSON(w, entries)
}

// handleDiff runs an exact differential analysis of this run's ledger
// against a base ledger from the same directory:
//
//	/diff?base=<file>&format=text|md|json
//
// The base is confined to the ledger directory (a bare file name, as
// listed by /runs) so the endpoint cannot read arbitrary paths.  Both
// sides read leniently — diffing against a run still in progress
// compares the epochs flushed so far.
func (o *ObsState) handleDiff(w http.ResponseWriter, r *http.Request) {
	if o.Ledger == "" {
		http.Error(w, "no run ledger to diff against", http.StatusNotFound)
		return
	}
	base := r.URL.Query().Get("base")
	if base == "" {
		http.Error(w, "missing ?base=<ledger file> (see /runs for candidates)", http.StatusBadRequest)
		return
	}
	if base != filepath.Base(base) || base == "." || base == ".." {
		http.Error(w, "base must be a bare file name in the ledger directory", http.StatusBadRequest)
		return
	}
	basePath := filepath.Join(o.runsDir(), base)
	rep, err := diff.LedgerFiles(basePath, o.Ledger, true, diff.Options{Metrics: true})
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
	case "md":
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		rep.WriteMarkdown(w)
	case "json":
		writeJSON(w, rep)
	default:
		http.Error(w, "format must be text, md, or json", http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
