package diff

// Report rendering: one formatter for every surface.  WriteText renders
// the aligned-column terminal form (plumdiff stdout), WriteMarkdown the GitHub-flavored table form (CI step
// summaries), and the JSON form is the Report struct itself.  Both
// renderers are deterministic: byte-identical output for equal reports.

import (
	"fmt"
	"io"

	"plum/internal/report"
)

func fmtS(v float64) string  { return fmt.Sprintf("%+.6f", v) }
func fmtS4(v float64) string { return fmt.Sprintf("%+.4f", v) }

// WriteText renders the report for terminals.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "plumdiff: base %s (config %s, git %s, schema v%d, %d epochs%s)\n",
		r.Base.File, orDash(r.Base.ConfigDigest), orDash(r.Base.Git), r.Base.Schema,
		r.Base.Epochs, truncNote(r.Base.Truncated))
	fmt.Fprintf(w, "          cur  %s (config %s, git %s, schema v%d, %d epochs%s)\n",
		r.Cur.File, orDash(r.Cur.ConfigDigest), orDash(r.Cur.Git), r.Cur.Schema,
		r.Cur.Epochs, truncNote(r.Cur.Truncated))
	if r.Comparable {
		fmt.Fprintln(w, "comparable: yes (equal config digests — the same simulated program)")
	} else {
		fmt.Fprintln(w, "comparable: no (config digests differ — deltas attribute the configuration change)")
	}
	fmt.Fprintln(w)

	if r.Zero() {
		fmt.Fprintln(w, "no differences: every aligned epoch record is identical (exact zero deltas)")
		fmt.Fprintln(w)
	} else {
		if len(r.Findings) > 0 {
			fmt.Fprintln(w, "What changed, ranked:")
			for i, f := range r.Findings {
				fmt.Fprintf(w, "  %2d. [%s] %s\n", i+1, f.Kind, f.Msg)
			}
			fmt.Fprintln(w)
		}
		r.writeRunTables(w)
	}

	if len(r.Spans) > 0 {
		r.writeSpanText(w)
	}
	if len(r.Metrics) > 0 {
		t := report.NewTable("Host metrics (informational — host plane, never gated)",
			"Counter", "base", "current", "delta")
		for _, m := range r.Metrics {
			t.AddRow(m.Name, fmt.Sprintf("%.0f", m.Base), fmt.Sprintf("%.0f", m.Cur),
				fmt.Sprintf("%+.0f", m.Delta))
		}
		t.Render(w)
	}
}

func (r *Report) writeRunTables(w io.Writer) {
	t := report.NewTable("Run-level simulated time (end-to-end = sum of aligned epochs; exact)",
		"Run", "epochs", "flips", "base(s)", "cur(s)", "Δtime(s)", "ratio",
		"Δcompute", "Δoverhead", "Δwait", "Δgaps")
	for i := range r.Runs {
		rd := &r.Runs[i]
		name := rd.Key.String()
		if rd.ModeFlip {
			name += " vs " + rd.CurKey.String()
		}
		t.AddRow(name, len(rd.Epochs), rd.Flips,
			fmt.Sprintf("%.6f", rd.BaseTime), fmt.Sprintf("%.6f", rd.CurTime),
			fmtS(rd.DTime), fmt.Sprintf("%.3fx", rd.Ratio()),
			fmtS(rd.DCompute), fmtS(rd.DOverhead), fmtS(rd.DWait), fmtS(rd.DResidual))
	}
	t.Render(w)

	et := report.NewTable("Per-epoch deltas (current - base; only epochs that differ)",
		"Run", "epoch", "verdict", "Δtime(s)", "Δcompute", "Δoverhead", "Δwait", "Δgaps",
		"Δgain", "Δcost", "ΔTotalV", "ΔMaxV", "ΔEdgeCut")
	rows := 0
	for i := range r.Runs {
		rd := &r.Runs[i]
		name := rd.Key.String()
		for _, ed := range rd.Epochs {
			if ed.Zero {
				continue
			}
			rows++
			verdict := ed.VerdictCur
			if ed.Flipped {
				verdict = ed.VerdictBase + "->" + ed.VerdictCur
			}
			et.AddRow(name, ed.Cycle, verdict, fmtS(ed.DTime),
				fmtS(ed.DCompute), fmtS(ed.DOverhead), fmtS(ed.DWait), fmtS(ed.DResidual),
				fmtS4(ed.DGain), fmtS4(ed.DCost),
				fmt.Sprintf("%+d", ed.DTotalV), fmt.Sprintf("%+d", ed.DMaxV),
				fmt.Sprintf("%+d", ed.DEdgeCut))
		}
	}
	if rows > 0 {
		et.Render(w)
	}

	bt := report.NewTable("Wait-blame deltas (ledger-embedded summaries)",
		"Run", "epoch", "Δwait", "Δsender comp", "Δsender ovhd", "Δcontention",
		"Δwire", "Δidle", "top lag cell")
	rows = 0
	for i := range r.Runs {
		rd := &r.Runs[i]
		for _, ed := range rd.Epochs {
			b := ed.Blame
			if b == nil {
				continue
			}
			rows++
			top := b.TopCur
			if b.TopMoved {
				top = b.TopBase + " -> " + b.TopCur
			}
			bt.AddRow(rd.Key.String(), ed.Cycle, fmtS(b.DWait),
				fmtS(b.DSenderCompute), fmtS(b.DSenderOverhead), fmtS(b.DContention),
				fmtS(b.DWire), fmtS(b.DIdle), top)
		}
	}
	if rows > 0 {
		bt.Render(w)
	}

	fmt.Fprintf(w, "totals: Δtime %s = Δcompute %s + Δoverhead %s + Δwait %s + Δgaps %s"+
		" (exact); %d epochs aligned, %d flips\n\n",
		fmtS(r.Totals.DTime), fmtS(r.Totals.DCompute), fmtS(r.Totals.DOverhead),
		fmtS(r.Totals.DWait), fmtS(r.Totals.DResidual),
		r.Totals.EpochsAligned, r.Totals.Flips)
}

func (r *Report) writeSpanText(w io.Writer) {
	for i := range r.Spans {
		d := &r.Spans[i]
		if d.Zero {
			fmt.Fprintf(w, "spans %s: identical blame tables\n", d.Label)
			continue
		}
		fmt.Fprintf(w, "spans %s: %+d spans, %+d blame epochs\n", d.Label, d.DSpans, d.DEpochs)
		if len(d.Cells) > 0 {
			t := report.NewTable("Sender-lag cell deltas (summed across epochs)",
				"Rank", "Phase", "base(s)", "cur(s)", "Δ(s)")
			for _, c := range d.Cells {
				t.AddRow(c.Rank, c.Phase, fmt.Sprintf("%.6f", c.Base),
					fmt.Sprintf("%.6f", c.Cur), fmtS(c.Delta))
			}
			if d.DLagOther != 0 {
				t.AddRow("-", "other", "", "", fmtS(d.DLagOther))
			}
			t.Render(w)
		}
		if len(d.Edges) > 0 {
			t := report.NewTable("Edge delay deltas (queue + wire)",
				"Edge", "base(s)", "cur(s)", "Δ(s)")
			for _, e := range d.Edges {
				t.AddRow(fmt.Sprintf("%d->%d", e.Src, e.Dst),
					fmt.Sprintf("%.6f", e.Base), fmt.Sprintf("%.6f", e.Cur), fmtS(e.Delta))
			}
			t.Render(w)
		}
	}
	fmt.Fprintln(w)
}

func truncNote(t bool) string {
	if t {
		return ", truncated"
	}
	return ""
}

// WriteMarkdown renders the report as GitHub-flavored markdown — CI
// appends it to $GITHUB_STEP_SUMMARY.
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintln(w, "### Differential run analysis")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Base `%s` (config `%s`, git `%s`) vs current `%s` (config `%s`, git `%s`).",
		r.Base.File, orDash(r.Base.ConfigDigest), orDash(r.Base.Git),
		r.Cur.File, orDash(r.Cur.ConfigDigest), orDash(r.Cur.Git))
	if r.Comparable {
		fmt.Fprint(w, " Comparable (equal config digests).")
	} else {
		fmt.Fprint(w, " **Not comparable** (config digests differ).")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	if r.Zero() {
		fmt.Fprintln(w, "✅ No differences: every aligned epoch record is identical (exact zero deltas).")
		fmt.Fprintln(w)
	} else {
		if len(r.Findings) > 0 {
			fmt.Fprintln(w, "**What changed, ranked:**")
			fmt.Fprintln(w)
			for i, f := range r.Findings {
				fmt.Fprintf(w, "%d. `%s` %s\n", i+1, f.Kind, f.Msg)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "| run | epochs | flips | base (s) | cur (s) | Δtime (s) | ratio | Δcompute | Δoverhead | Δwait | Δgaps |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
		for i := range r.Runs {
			rd := &r.Runs[i]
			name := rd.Key.String()
			if rd.ModeFlip {
				name += " vs " + rd.CurKey.String()
			}
			fmt.Fprintf(w, "| %s | %d | %d | %.6f | %.6f | %s | %.3fx | %s | %s | %s | %s |\n",
				name, len(rd.Epochs), rd.Flips, rd.BaseTime, rd.CurTime, fmtS(rd.DTime),
				rd.Ratio(), fmtS(rd.DCompute), fmtS(rd.DOverhead), fmtS(rd.DWait), fmtS(rd.DResidual))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "Totals: Δtime %s = Δcompute %s + Δoverhead %s + Δwait %s + Δgaps %s (exact); %d epochs aligned, %d verdict flips.\n",
			fmtS(r.Totals.DTime), fmtS(r.Totals.DCompute), fmtS(r.Totals.DOverhead),
			fmtS(r.Totals.DWait), fmtS(r.Totals.DResidual),
			r.Totals.EpochsAligned, r.Totals.Flips)
		fmt.Fprintln(w)
	}
}

// GateSummary renders violations (or the pass line) for terminals and
// markdown alike.
func GateSummary(w io.Writer, vs []Violation, th Thresholds) {
	if len(vs) == 0 {
		fmt.Fprintf(w, "gate: PASS (sim limit %.4fx)\n", th.SimRatio)
		return
	}
	fmt.Fprintf(w, "gate: FAIL — %d violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(w, "  [%s] %s\n", v.Kind, v.Msg)
	}
}
