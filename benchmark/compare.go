package main

import (
	"fmt"
	"io"
	"slices"
)

// compare A.json B.json: one row per (workload, end-to-end metric) —
// both medians, how much worse B is as a share of A, the metric's
// bound, and the verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound; or an exact metric
//	            differs although both sides ran the same seeds; or more
//	            operations failed
//	unresolved  either side's run-to-run spread (interquartile distance
//	            over the median) is wider than the bound, so the runs
//	            cannot tell
//
// Below the rows, the exact per-layer counters of the two traced runs
// are compared for equality.  Exit status 1 on any regressed row.

type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share of A by which B is worse (negative: better)
	Bound            float64
	SpreadA, SpreadB float64
	Verdict          string
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]*resultsFile
	for i, path := range args {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: compare: %v\n", err)
			return 2
		}
		files[i] = f
	}
	rows, counters := compareResults(files[0], files[1])
	return printComparison(stdout, rows, counters)
}

// valuesOf collects a metric's values, and the seeds they came from,
// over one workload's runs of one pass.
func valuesOf(f *resultsFile, workload, metric string, trace int) (vals []float64, seeds []int64, failed int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		failed += r.Failed
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vals, seeds, failed
}

func compareResults(a, b *resultsFile) (rows []compareRow, counterDiffs []string) {
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, seedsA, failedA := valuesOf(a, w.Name, d.Name, 0)
			vb, seedsB, failedB := valuesOf(b, w.Name, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: d.Name, A: median(va), B: median(vb),
				Bound: d.Bound, SpreadA: spread(va), SpreadB: spread(vb)}
			if row.A != 0 {
				row.Worse = (row.B - row.A) / row.A
				if d.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			switch {
			case failedB > failedA:
				row.Verdict = "regressed"
			case d.Exact && slices.Equal(seedsA, seedsB):
				row.Verdict = "ok"
				if !slices.Equal(va, vb) {
					row.Verdict = "regressed"
				}
			case max(row.SpreadA, row.SpreadB) > d.Bound:
				row.Verdict = "unresolved"
			case row.Worse > d.Bound:
				row.Verdict = "regressed"
			default:
				row.Verdict = "ok"
			}
			rows = append(rows, row)
		}
		for _, d := range perLayer {
			if d.Src != "C" {
				continue
			}
			va, seedsA, _ := valuesOf(a, w.Name, d.Name, 1)
			vb, seedsB, _ := valuesOf(b, w.Name, d.Name, 1)
			if slices.Equal(seedsA, seedsB) && !slices.Equal(va, vb) {
				counterDiffs = append(counterDiffs, fmt.Sprintf("%s %s: %v != %v", w.Name, d.Name, va, vb))
			}
		}
	}
	return rows, counterDiffs
}

func printComparison(w io.Writer, rows []compareRow, counterDiffs []string) int {
	fmt.Fprintf(w, "%-16s %-17s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "bound", "spread A", "spread B", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-17s %14.6g %14.6g %+7.2f%% %5.0f%% %7.2f%% %7.2f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
		if r.Verdict == "regressed" {
			regressed++
		}
	}
	if len(counterDiffs) == 0 {
		fmt.Fprintln(w, "exact per-layer counters: identical")
	} else {
		fmt.Fprintln(w, "exact per-layer counters that differ (a host-only change must not move these):")
		for _, d := range counterDiffs {
			fmt.Fprintln(w, "  "+d)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
