// Command plumdiff performs an exact differential analysis of two
// simulated runs: it aligns two run ledgers (plumbench -obs) epoch by
// epoch, attributes the end-to-end simulated-time delta down the stack
// — flipped accept/reject verdicts, the critical-path component
// (compute / overhead / wait / path gaps) that carried the change, the
// rank×phase sender-lag blame cell that grew, the partition-quality
// term (edge cut, imbalance, TotalV) that drifted — and emits a ranked
// "what changed and why" report as text, markdown, or JSON.
//
// Because simulated outputs are pure functions of the configuration,
// the diff is exact: `plumdiff run.jsonl run.jsonl` reports zero deltas
// (bitwise), and the attributed deltas sum exactly to the end-to-end
// delta at every level.
//
// Optional inputs deepen the attribution: -spans-base/-spans-cur diff
// the full span/blame streams (plumbench -spans) for complete lag-cell
// and edge tables.  Host time is not plumdiff's plane: two benchmark
// result files are compared by `bash benchmark/run.sh compare A B`.
//
// -gate turns plumdiff into a CI regression gate: exit 1 when the
// current run's simulated time regresses past -sim-threshold (tight —
// simulated seconds are machine-independent) or a verdict flips
// (-fail-on-flip).
//
// Usage:
//
//	plumdiff [flags] base.jsonl current.jsonl
//	plumdiff -gate -fail-on-flip ci/LEDGER_baseline.jsonl current.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"plum/internal/obs/diff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: exit 0 on success (gate passing or
// no gate), 1 on gate violations or I/O errors, 2 on usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plumdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := diff.DefaultThresholds()
	var (
		spansBase = fs.String("spans-base", "", "baseline span/blame stream (plumbench -spans)")
		spansCur  = fs.String("spans-cur", "", "current span/blame stream")
		mdPath    = fs.String("md", "", "also write the report as markdown to this file"+
			" (\"-\" for stdout instead of text)")
		jsonPath = fs.String("json", "", "also write the report as JSON to this file"+
			" (\"-\" for stdout instead of text)")
		gate = fs.Bool("gate", false, "evaluate regression thresholds and exit 1 on violations")
		simT = fs.Float64("sim-threshold", def.SimRatio, "gate: fail when simulated time exceeds"+
			" baseline by this factor (exact plane — keep tight)")
		simAbs = fs.Float64("sim-abs", def.SimAbs, "gate: ignore simulated regressions below this"+
			" many absolute seconds")
		failFlip = fs.Bool("fail-on-flip", false, "gate: fail on any verdict flip")
		noComp   = fs.Bool("allow-incomparable", false, "gate: do not fail when config digests"+
			" differ (default: an incomparable pair means a stale baseline)")
		top     = fs.Int("top", 8, "bound ranked findings and blame tables")
		metrics = fs.Bool("metrics", false, "include the host-plane counter diff (informational)")
		lenient = fs.Bool("lenient", false, "tolerate truncated ledgers (live or crashed runs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: plumdiff [flags] base.jsonl current.jsonl")
		fs.PrintDefaults()
		return 2
	}

	opt := diff.Options{TopK: *top, Metrics: *metrics}
	rep, err := diff.LedgerFiles(fs.Arg(0), fs.Arg(1), *lenient, opt)
	if err != nil {
		fmt.Fprintf(stderr, "plumdiff: %v\n", err)
		return 1
	}
	if *spansBase != "" || *spansCur != "" {
		if *spansBase == "" || *spansCur == "" {
			fmt.Fprintln(stderr, "plumdiff: -spans-base and -spans-cur must be given together")
			return 2
		}
		deltas, err := diff.SpanFiles(*spansBase, *spansCur, opt)
		if err != nil {
			fmt.Fprintf(stderr, "plumdiff: %v\n", err)
			return 1
		}
		rep.Spans = deltas
		rep.Findings = append(rep.Findings, diff.SpanFindings(deltas)...)
		diff.RankFindings(rep.Findings)
		if len(rep.Findings) > *top {
			rep.Findings = rep.Findings[:*top]
		}
	}

	wroteStdout := false
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "plumdiff: -json: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			stdout.Write(data)
			wroteStdout = true
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "plumdiff: -json: %v\n", err)
			return 1
		}
	}
	if *mdPath != "" {
		if *mdPath == "-" {
			rep.WriteMarkdown(stdout)
			wroteStdout = true
		} else {
			f, err := os.Create(*mdPath)
			if err != nil {
				fmt.Fprintf(stderr, "plumdiff: -md: %v\n", err)
				return 1
			}
			rep.WriteMarkdown(f)
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "plumdiff: -md: %v\n", err)
				return 1
			}
		}
	}
	if !wroteStdout {
		rep.WriteText(stdout)
	}

	if *gate {
		th := diff.Thresholds{
			SimRatio:          *simT,
			SimAbs:            *simAbs,
			RequireComparable: !*noComp,
			FailOnFlip:        *failFlip,
		}
		vs := rep.Gate(th)
		diff.GateSummary(stdout, vs, th)
		if len(vs) > 0 {
			return 1
		}
	}
	return 0
}
