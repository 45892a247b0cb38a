// Command plumviz produces a legacy-VTK visualization of an adapted,
// load-balanced mesh: it runs the framework's initialization + one
// adaption cycle on the synthetic rotor-stand-in problem, finalizes the
// distributed mesh into a single global grid (paper Section 3's
// finalization phase), and writes it with the solution and ownership
// painted on.  With -trace the same run's simulated event timeline —
// every compute span, message injection, and receive wait of every rank
// — is exported as Chrome-tracing JSON (chrome://tracing,
// ui.perfetto.dev), the visual counterpart of the VTK mesh: the mesh
// shows where the work lives, the trace shows when each rank did it.
// Alongside the export, -trace prints the per-rank cost profile table
// (internal/profile): compute, messaging overhead, and comm-wait
// seconds decomposed by protocol (halo / collective / migration /
// other), plus each rank's critical-path share, and a summary of the
// event engine's host-plane counters (events, fast-path yield share,
// calendar high-water).
//
// With -ledger the command does not simulate at all: it reads a run
// ledger written by plumbench -obs and renders it back into the
// paper-style per-epoch league table — decision, prices, moved weight,
// edge cut, and critical-path decomposition per adaption epoch, plus
// the wait-blame decomposition when the run recorded it.  A truncated
// ledger (a run killed mid-stream) renders the epochs flushed before
// the cut with a warning instead of failing.
//
// With -blame the command renders a span file written by plumbench
// -spans: the per-epoch wait-blame tables (who the critical path
// waited on — lagging sender compute by rank and phase, contended
// links, wire latency), the aggregated sender-lag league across
// epochs, and the span census by phase.
//
// Usage: plumviz [-p procs] [-frac f] [-o out.vtk] [-trace out.json]
//
//	plumviz -ledger run.jsonl
//	plumviz -blame spans.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/dual"
	"plum/internal/event"
	"plum/internal/mesh"
	"plum/internal/msg"
	"plum/internal/obs"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/profile"
	"plum/internal/report"
	"plum/internal/solver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: exit 0 on success, 1 on I/O errors,
// 2 on usage errors (mirroring cmd/plumbench and cmd/plumdiff).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plumviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := fs.Int("p", 8, "simulated processors")
	frac := fs.Float64("frac", 0.2, "fraction of edges to refine")
	out := fs.String("o", "plum.vtk", "output VTK file")
	tracePath := fs.String("trace", "", "also write the run's event timeline as Chrome-tracing JSON")
	ledgerPath := fs.String("ledger", "", "render a plumbench -obs run ledger as a per-epoch"+
		" league table instead of running a simulation")
	blamePath := fs.String("blame", "", "render a plumbench -spans span file: per-epoch"+
		" wait-blame tables, the aggregated sender-lag league, and the span census")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plumviz: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *p < 1 {
		fmt.Fprintf(stderr, "plumviz: -p must be at least 1, got %d\n", *p)
		return 2
	}
	if !(*frac >= 0 && *frac <= 1) {
		fmt.Fprintf(stderr, "plumviz: -frac must be in [0, 1], got %g\n", *frac)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "plumviz: %v\n", err)
		return 1
	}

	if *ledgerPath != "" {
		if err := renderLedger(stdout, *ledgerPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *blamePath != "" {
		if err := renderBlame(stdout, *blamePath); err != nil {
			return fail(err)
		}
		return 0
	}

	global := mesh.Box(16, 12, 8, 4.0, 3.0, 2.0)
	g := dual.FromMesh(global)
	initPart := partition.Partition(g, *p, partition.Default())
	ind := adapt.ShockCylinderIndicator(mesh.Vec3{2.0, 1.5, 0}, mesh.Vec3{0, 0, 1}, 0.9, 0.4)
	cfg := core.DefaultConfig()

	// Event recording costs memory proportional to the run; only pay it
	// when the timeline was actually requested.  The traced run also
	// collects the phase spans in memory (nil sink), so the Chrome
	// export can nest each rank's records under its phases.
	run := func(fn func(*msg.Comm)) ([]float64, *event.Trace, *event.SpanLog) {
		if *tracePath == "" {
			return msg.RunModel(*p, msg.SP2Model(), fn), nil, nil
		}
		return msg.RunTracedSpans(*p, msg.SP2Model(), event.SpanOptions{}, fn)
	}

	var failed error
	times, trace, spans := run(func(c *msg.Comm) {
		d := pmesh.New(c, global, initPart, solver.NComp)
		ps := solver.NewParallel(d)
		ps.InitParallel(solver.GaussianPulse(mesh.Vec3{2, 1.5, 1}, 0.6))
		gv := g.WithWeights(g.WComp, g.WRemap)
		st := core.AdaptionStep(c, d, gv, ind, *frac, cfg)
		ps.Rebuild()
		for it := 0; it < 5; it++ {
			ps.Step(0.002)
		}
		gm := d.Finalize()
		if c.Rank() != 0 {
			return
		}
		fmt.Fprintf(stdout, "adapted to %d elements across %d processors (remap accepted: %v)\n",
			st.Counts.Elems, *p, st.Accepted)
		f, err := os.Create(*out)
		if err != nil {
			failed = err
			return
		}
		defer f.Close()
		if err := gm.WriteVTK(f, 0); err != nil {
			failed = err
			return
		}
		fmt.Fprintf(stdout, "wrote %s (density component as point data, root element as cell data)\n", *out)
	})
	if failed != nil {
		return fail(failed)
	}
	if *tracePath != "" {
		all := spans.All()
		if err := trace.WriteChromeFile(*tracePath, all); err != nil {
			return fail(err)
		}
		cp := event.CriticalPath(trace)
		fmt.Fprintf(stdout, "wrote %s (%d events, %d phase spans, makespan %.4fs: %.4fs compute, %.4fs overhead, %.4fs comm wait on the critical path)\n",
			*tracePath, len(trace.Records), len(all), msg.MaxTime(times),
			cp.Compute, cp.Overhead, cp.CommWait)

		// The numeric counterpart of the timeline: each rank's cost
		// decomposition — the same aggregation the measured-cost feedback
		// loop prices rebalancing decisions with (internal/profile).
		prof := profile.FromTrace(trace, 0, len(trace.Records), nil)
		t := report.NewTable("Per-rank cost profile (simulated seconds)",
			"Rank", "compute", "overhead", "halo wait", "coll wait",
			"mig wait", "other wait", "top phase", "CP share")
		for r, rp := range prof.Ranks {
			ph, sec := rp.TopPhase()
			top := "-"
			if sec > 0 {
				top = fmt.Sprintf("%s %.4f", ph, sec)
			}
			t.AddRow(r,
				fmt.Sprintf("%.4f", rp.Compute), fmt.Sprintf("%.4f", rp.Overhead),
				fmt.Sprintf("%.4f", rp.Wait[profile.ClassHalo]),
				fmt.Sprintf("%.4f", rp.Wait[profile.ClassCollective]),
				fmt.Sprintf("%.4f", rp.Wait[profile.ClassMigration]),
				fmt.Sprintf("%.4f", rp.Wait[profile.ClassOther]),
				top,
				fmt.Sprintf("%.1f%%", 100*prof.PathShare(r)))
		}
		t.Render(stdout)

		// Who the critical path waited on, transitively attributed.
		renderBlameReport(stdout, event.WaitBlame(trace, &cp))
		engineSummary(stdout, len(trace.Records))
	}
	return 0
}

// renderBlameReport prints one BlameReport as the standard culprit
// decomposition plus its top lag cells and edges.
func renderBlameReport(w io.Writer, b *event.BlameReport) {
	fmt.Fprintf(w, "Wait-blame: %.4fs attributed — %.4fs sender compute, %.4fs sender overhead,"+
		" %.4fs contention, %.4fs wire, %.4fs idle\n",
		b.Wait,
		b.ByKind[event.BlameSenderCompute], b.ByKind[event.BlameSenderOverhead],
		b.ByKind[event.BlameContention], b.ByKind[event.BlameWire],
		b.ByKind[event.BlameIdle])
	if lags := b.TopLag(5); len(lags) > 0 {
		t := report.NewTable("Top lagging senders (rank x phase, simulated seconds)",
			"Rank", "Phase", "lag(s)")
		for _, l := range lags {
			t.AddRow(l.Rank, l.Phase, fmt.Sprintf("%.4f", l.Seconds))
		}
		t.Render(w)
	}
	if edges := b.TopEdges(5); len(edges) > 0 {
		t := report.NewTable("Top delaying edges (post-send queue + wire, simulated seconds)",
			"Edge", "queue(s)", "wire(s)", "msgs")
		for _, e := range edges {
			t.AddRow(fmt.Sprintf("%d->%d", e.Src, e.Dst),
				fmt.Sprintf("%.4f", e.Queue), fmt.Sprintf("%.4f", e.Wire), e.Count)
		}
		t.Render(w)
	}
}

// engineSummary prints the event engine's host-plane counters for the
// run that just finished: the msg runtime flushed every world's
// scheduler stats into the obs registry, so the registry's totals are
// this process's totals.
func engineSummary(w io.Writer, events int) {
	v := obs.Default.Value
	fast := v("plum_engine_yields_total", "path", "fast")
	handoff := v("plum_engine_yields_total", "path", "handoff")
	share := 0.0
	if fast+handoff > 0 {
		share = fast / (fast + handoff)
	}
	fmt.Fprintf(w, "engine: %d trace events, %.0f yields (%.1f%% fast-path),"+
		" %.0f blocks, %.0f wakes, calendar high-water %.0f\n",
		events, fast+handoff, 100*share,
		v("plum_engine_blocks_total"), v("plum_engine_wakes_total"),
		v("plum_engine_calendar_highwater"))
}

// renderLedger reads a plumbench run ledger and renders the paper-style
// per-epoch league table.  A truncated ledger — the producing run was
// killed before the end record, or is still streaming — renders what
// was flushed, with a warning, instead of failing: the partial table is
// exactly what a post-mortem needs.
func renderLedger(w io.Writer, path string) error {
	lf, truncated, err := obs.ReadLedgerFile(path, true)
	if err != nil {
		return err
	}
	if truncated {
		fmt.Fprintf(w, "warning: ledger %s is truncated (no end record — run killed or still"+
			" streaming); rendering the %d epochs flushed before the cut\n",
			path, len(lf.Epochs))
	}
	m := lf.Manifest
	fmt.Fprintf(w, "ledger %s: %s run %s (config %s, git %s, %s %s/%s, GOMAXPROCS=%d)\n",
		path, m.Tool, m.Start, m.ConfigDigest, m.Git, m.GoVersion, m.GoOS, m.GoArch, m.GoMaxProcs)
	if len(lf.Epochs) == 0 {
		fmt.Fprintln(w, "no epoch records (only the epoch-driving experiments — implicit,"+
			" feedback — append epochs)")
		return nil
	}
	t := report.NewTable("Per-epoch league table",
		"Exp", "Model", "Run", "P", "epoch", "pricing", "decision",
		"imbal", "gain", "cost", "TotalV", "MaxV", "EdgeCut", "Elems", "Solve(s)", "CP wait")
	for _, e := range lf.Epochs {
		decision := "reject"
		switch {
		case e.Balanced:
			decision = "balanced"
		case e.Accepted:
			decision = "accept"
		}
		model := e.Model
		if model == "" {
			model = "flat"
		}
		waitShare := "-"
		if span := e.CPCompute + e.CPOverhead + e.CPWait; span > 0 {
			waitShare = fmt.Sprintf("%.1f%%", 100*e.CPWait/span)
		}
		t.AddRow(e.Exp, model, e.Run, e.P, e.Cycle, e.Pricing, decision,
			fmt.Sprintf("%.3f", e.Imbalance),
			fmt.Sprintf("%.4f", e.Gain), fmt.Sprintf("%.4f", e.Cost),
			e.TotalV, e.MaxV, e.EdgeCut, e.Elems,
			fmt.Sprintf("%.4f", e.SolveSeconds), waitShare)
	}
	t.Render(w)
	renderScenarioSummary(w, lf.Epochs)
	renderLedgerBlame(w, lf.Epochs)
	if lf.Metrics != nil {
		fmt.Fprintf(w, "host metrics: %.0f worlds, %.0f engine yields (%.0f fast-path),"+
			" %.0f msg-pool shell hits / %.0f misses\n",
			lf.Metrics["plum_worlds_finished_total"],
			lf.Metrics[`plum_engine_yields_total{path="fast"}`]+
				lf.Metrics[`plum_engine_yields_total{path="handoff"}`],
			lf.Metrics[`plum_engine_yields_total{path="fast"}`],
			lf.Metrics[`plum_msg_pool_shells_total{result="hit"}`],
			lf.Metrics[`plum_msg_pool_shells_total{result="miss"}`])
	}
	if truncated {
		fmt.Fprintf(w, "%d epochs (partial); no end record, no output checksum\n", len(lf.Epochs))
	} else {
		fmt.Fprintf(w, "%d epochs; output checksum %s\n", lf.End.Epochs, lf.End.OutputSHA256)
	}
	return nil
}

// renderScenarioSummary condenses scenario-corpus epochs (exp key
// "scenario/<name>", plumbench -exp scenarios -obs) into one row per
// scenario and pricing mode: the epoch decision string, the decision
// divergence between the two modes, the summed solve time, and where
// the run's critical-path waits were blamed.  Ledgers without scenario
// epochs print nothing.
func renderScenarioSummary(w io.Writer, epochs []obs.EpochRecord) {
	type key struct{ scen, run string }
	type agg struct {
		decisions string
		solve     float64
		wait      float64
		blame     map[string]float64
	}
	rows := map[key]*agg{}
	var names []string
	for _, e := range epochs {
		scen, ok := strings.CutPrefix(e.Exp, "scenario/")
		if !ok {
			continue
		}
		k := key{scen, e.Run}
		a := rows[k]
		if a == nil {
			a = &agg{blame: map[string]float64{}}
			rows[k] = a
			if e.Run == "analytic" {
				names = append(names, scen)
			}
		}
		switch {
		case e.Balanced:
			a.decisions += "B"
		case e.Accepted:
			a.decisions += "A"
		default:
			a.decisions += "R"
		}
		a.solve += e.SolveSeconds
		if b := e.Blame; b != nil {
			a.wait += b.Wait
			a.blame["sender comp"] += b.SenderCompute
			a.blame["sender ovhd"] += b.SenderOverhead
			a.blame["contention"] += b.Contention
			a.blame["wire"] += b.Wire
			a.blame["idle"] += b.Idle
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Strings(names)
	diff := func(a, b string) int {
		n := 0
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	topBlame := func(a *agg) string {
		top, sec := "-", 0.0
		for k, s := range a.blame {
			if s > sec || (s == sec && k < top) {
				top, sec = k, s
			}
		}
		if sec <= 0 {
			return "-"
		}
		return fmt.Sprintf("%s %.4f", top, sec)
	}
	t := report.NewTable("Scenario summary (one row per scenario and pricing mode)",
		"Scenario", "Run", "decisions", "diff", "Solve(s)", "CP wait(s)", "top blame")
	for _, scen := range names {
		an, me := rows[key{scen, "analytic"}], rows[key{scen, "measured"}]
		d := "-"
		if an != nil && me != nil {
			d = fmt.Sprintf("%d", diff(an.decisions, me.decisions))
		}
		for _, run := range []string{"analytic", "measured"} {
			a := rows[key{scen, run}]
			if a == nil {
				continue
			}
			t.AddRow(scen, run, a.decisions, d,
				fmt.Sprintf("%.4f", a.solve), fmt.Sprintf("%.4f", a.wait), topBlame(a))
		}
	}
	t.Render(w)
}

// renderLedgerBlame prints the per-epoch wait-blame decomposition for
// ledgers whose runs recorded it (plumbench -obs on a traced run).
func renderLedgerBlame(w io.Writer, epochs []obs.EpochRecord) {
	any := false
	for _, e := range epochs {
		if e.Blame != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	t := report.NewTable("Wait-blame by epoch (simulated seconds)",
		"Exp", "Model", "Run", "P", "epoch", "wait", "sender comp", "sender ovhd",
		"contention", "wire", "idle", "top lag")
	for _, e := range epochs {
		b := e.Blame
		if b == nil {
			continue
		}
		topLag := "-"
		if b.TopRank >= 0 {
			topLag = fmt.Sprintf("r%d/%s %.4f", b.TopRank, b.TopPhase, b.TopLag)
		}
		model := e.Model
		if model == "" {
			model = "flat"
		}
		t.AddRow(e.Exp, model, e.Run, e.P, e.Cycle,
			fmt.Sprintf("%.4f", b.Wait),
			fmt.Sprintf("%.4f", b.SenderCompute), fmt.Sprintf("%.4f", b.SenderOverhead),
			fmt.Sprintf("%.4f", b.Contention), fmt.Sprintf("%.4f", b.Wire),
			fmt.Sprintf("%.4f", b.Idle), topLag)
	}
	t.Render(w)
}

// renderBlame reads a plumbench -spans span file and renders, per world
// stream: the per-epoch wait-blame table, the sender-lag league
// aggregated across epochs, the most-delaying causality edges, and the
// span census by phase.
func renderBlame(w io.Writer, path string) error {
	worlds, err := event.ReadSpansFile(path)
	if err != nil {
		return err
	}
	for wi, sw := range worlds {
		fmt.Fprintf(w, "world %d: %s — P=%d, %d spans, %d epochs",
			wi, labelString(sw.Label), sw.P, len(sw.Spans), len(sw.Blame))
		if !sw.Complete {
			fmt.Fprint(w, " (stream truncated — run killed mid-stream)")
		}
		fmt.Fprintln(w)

		t := report.NewTable("Wait-blame by epoch (simulated seconds)",
			"epoch", "wait", "sender comp", "sender ovhd", "contention", "wire", "idle",
			"top lag", "top edge")
		for _, eb := range sw.Blame {
			topLag, topEdge := "-", "-"
			if len(eb.Lag) > 0 {
				l := eb.Lag[0]
				topLag = fmt.Sprintf("r%d/%s %.4f", l.Rank, l.Phase, l.Seconds)
			}
			if len(eb.Edges) > 0 {
				e := eb.Edges[0]
				topEdge = fmt.Sprintf("%d->%d %.4f", e.Src, e.Dst, e.Queue+e.Wire)
			}
			t.AddRow(eb.Epoch,
				fmt.Sprintf("%.4f", eb.Wait),
				fmt.Sprintf("%.4f", eb.SenderCompute), fmt.Sprintf("%.4f", eb.SenderOverhead),
				fmt.Sprintf("%.4f", eb.Contention), fmt.Sprintf("%.4f", eb.Wire),
				fmt.Sprintf("%.4f", eb.Idle), topLag, topEdge)
		}
		t.Render(w)

		renderLagLeague(w, sw)
		renderSpanCensus(w, sw)
	}
	return nil
}

// renderLagLeague aggregates the per-epoch top-lag cells and edges of
// one world stream across its epochs.  Because the stream serializes
// only each epoch's top-k cells (the rest folds into lag_other), the
// league is a lower bound per cell; the "other" row restores the total.
func renderLagLeague(w io.Writer, sw event.SpanWorld) {
	type cell struct {
		rank int
		ph   string
	}
	lag := map[cell]float64{}
	var other float64
	edges := map[[2]int]*event.EdgeBlame{}
	for _, eb := range sw.Blame {
		for _, l := range eb.Lag {
			lag[cell{l.Rank, l.Phase}] += l.Seconds
		}
		other += eb.LagOther
		for _, e := range eb.Edges {
			key := [2]int{e.Src, e.Dst}
			agg := edges[key]
			if agg == nil {
				agg = &event.EdgeBlame{Src: e.Src, Dst: e.Dst}
				edges[key] = agg
			}
			agg.Queue += e.Queue
			agg.Wire += e.Wire
			agg.Count += e.Count
		}
	}
	if len(lag) > 0 || other > 0 {
		var cells []event.LagEntry
		for c, s := range lag {
			cells = append(cells, event.LagEntry{Rank: c.rank, Phase: c.ph, Seconds: s})
		}
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].Seconds != cells[j].Seconds {
				return cells[i].Seconds > cells[j].Seconds
			}
			if cells[i].Rank != cells[j].Rank {
				return cells[i].Rank < cells[j].Rank
			}
			return cells[i].Phase < cells[j].Phase
		})
		if len(cells) > 10 {
			cells = cells[:10]
		}
		t := report.NewTable("Sender-lag league, all epochs (simulated seconds)",
			"Rank", "Phase", "lag(s)")
		for _, c := range cells {
			t.AddRow(c.Rank, c.Phase, fmt.Sprintf("%.4f", c.Seconds))
		}
		if other > 0 {
			t.AddRow("-", "other", fmt.Sprintf("%.4f", other))
		}
		t.Render(w)
	}
	if len(edges) > 0 {
		var all []event.EdgeBlame
		for _, e := range edges {
			all = append(all, *e)
		}
		sort.Slice(all, func(i, j int) bool {
			ti, tj := all[i].Queue+all[i].Wire, all[j].Queue+all[j].Wire
			if ti != tj {
				return ti > tj
			}
			if all[i].Src != all[j].Src {
				return all[i].Src < all[j].Src
			}
			return all[i].Dst < all[j].Dst
		})
		if len(all) > 10 {
			all = all[:10]
		}
		t := report.NewTable("Top delaying edges, all epochs (queue + wire, simulated seconds)",
			"Edge", "queue(s)", "wire(s)", "msgs")
		for _, e := range all {
			t.AddRow(fmt.Sprintf("%d->%d", e.Src, e.Dst),
				fmt.Sprintf("%.4f", e.Queue), fmt.Sprintf("%.4f", e.Wire), e.Count)
		}
		t.Render(w)
	}
}

// renderSpanCensus tabulates the stream's spans by phase.  Nested spans
// overlap their parents, so the seconds column sums span-local time,
// not a partition of the makespan.
func renderSpanCensus(w io.Writer, sw event.SpanWorld) {
	if len(sw.Spans) == 0 {
		return
	}
	var count [event.NumPhases]int
	var secs [event.NumPhases]float64
	for _, sp := range sw.Spans {
		count[sp.Phase]++
		secs[sp.Phase] += sp.T1 - sp.T0
	}
	t := report.NewTable("Span census by phase", "Phase", "spans", "seconds")
	for ph := event.Phase(0); ph < event.NumPhases; ph++ {
		if count[ph] == 0 {
			continue
		}
		t.AddRow(ph.String(), count[ph], fmt.Sprintf("%.4f", secs[ph]))
	}
	t.Render(w)
}

// labelString renders a stream-header label map in sorted-key order.
func labelString(label map[string]string) string {
	if len(label) == 0 {
		return "(unlabeled)"
	}
	keys := make([]string, 0, len(label))
	for k := range label {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + label[k]
	}
	return strings.Join(parts, " ")
}
