// Command benchmark is the repository's performance benchmark: six
// workloads over the solve -> adapt -> balance stack and its serving
// daemon, five gated end-to-end metrics, and a traced per-layer pass.
// See README.md in this directory.
//
//	bash benchmark/run.sh --workload adapt-cycle --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                      # every workload, both passes
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh spec                 # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the last line a single run prints on standard output.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a single run leaves for the all-workloads driver
// beside its result line.
type runDetail struct {
	Digest string   `json:"digest"`
	Notes  []string `json:"notes,omitempty"`
	Spans  string   `json:"spans,omitempty"` // span file, traced runs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "spec":
			stdout.Write(specJSON())
			return 0
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload ("+workloadNames()+"); empty runs them all")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", runSeconds, "how long a run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the layer tour and per-layer metrics")
	runs := fs.Int("runs", 1, "all-workloads mode: end-to-end runs per workload, on seeds seed..seed+runs-1")
	outPath := fs.String("out", "", "all-workloads mode: results file (default .bench_build/results.json)")
	spansPath := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	detailPath := fs.String("detail", "", "write the run's digest and failure notes to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *workload == "" {
		return runAll(allOpts{seed: *seed, runs: *runs, seconds: *seconds, out: *outPath}, stdout, stderr)
	}
	if !isWorkload(*workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1\n")
		return 2
	}

	workDir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: workDir}
	fmt.Fprintf(stderr, "benchmark: %s seed=%d trace=%d seconds=%g GOMAXPROCS=%d NumCPU=%d %s\n",
		o.workload, o.seed, *trace, o.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	out, err := runOne(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	detail := runDetail{Digest: out.digest, Notes: out.notes}
	if o.trace {
		detail.Spans = *spansPath
		if detail.Spans == "" {
			detail.Spans = filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		}
		if err := writeSpans(detail.Spans, out.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *detailPath != "" {
		b, _ := json.Marshal(detail) // plain strings: cannot fail
		if err := os.WriteFile(*detailPath, b, 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, note := range out.notes {
		fmt.Fprintf(stderr, "benchmark: FAILED: %s\n", note)
	}

	line := resultLine(out, o.trace)
	printMetrics(stdout, o, line, detail)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if line.Failed > 0 {
		return 1
	}
	return 0
}

// runOne dispatches one run.
func runOne(o runOpts) (*outcome, error) {
	switch {
	case o.trace:
		return runTour(o)
	case isServeWorkload(o.workload):
		return runServeWorkload(o)
	default:
		return runWorldWorkload(o)
	}
}

// buildDir is where the benchmark keeps everything it writes: inside
// the directory it was started from.
func buildDir() string {
	dir := ".bench_build"
	os.MkdirAll(dir, 0o755) // a failure surfaces at the first write into it
	return dir
}

// resultLine projects an outcome onto the declared metric set of its
// pass: every end-to-end metric untraced, every per-layer metric traced
// (zero where the layer does no work on the workload).
func resultLine(out *outcome, traced bool) runLine {
	line := runLine{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed,
		Metrics: make(map[string]metricValue)}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{out.metrics[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metricValue{out.metrics[d.Name], d.Unit}
		}
	}
	return line
}

// paperShape states, beside a guard metric, the shape the paper reports.
var paperShape = map[string]string{
	"core.fig4_adapt_speedup": "paper Fig. 4: near-linear in P (ideal 16 at P=16)",
	"core.fig6_part_flatness": "paper Fig. 6: partitioning time nearly flat in P (ideal 1)",
}

// printMetrics prints every metric of the run by name with its unit.
func printMetrics(w io.Writer, o runOpts, line runLine, detail runDetail) {
	fmt.Fprintf(w, "workload %s  seed %d  ops %d  failed %d  digest %.12s\n",
		o.workload, o.seed, line.Attempted, line.Failed, detail.Digest)
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := line.Metrics[name]
		fmt.Fprintf(w, "  %-30s %16.6g %-6s %s\n", name, v.Value, v.Unit, paperShape[name])
	}
	if detail.Spans != "" {
		fmt.Fprintf(w, "  spans: %s\n", detail.Spans)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
