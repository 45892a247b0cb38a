package diff

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plum/internal/event"
	"plum/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureBase builds a small multi-run ledger by hand: an analytic
// implicit run with a balanced epoch, an accepted epoch with blame, and
// a rejected epoch.  Floats are deliberately messy (no exact binary
// representations) so the conservation tests exercise real rounding.
func fixtureBase() *obs.LedgerFile {
	return &obs.LedgerFile{
		Manifest: obs.Manifest{
			Kind: "manifest", Schema: obs.SchemaVersion, Tool: "diff_test",
			ConfigDigest: "cfg-1", Git: "base-sha",
		},
		Epochs: []obs.EpochRecord{
			{
				Kind: "epoch", Exp: "implicit", Run: "analytic", P: 4, Cycle: 0,
				Pricing: "analytic", Balanced: true,
				Imbalance: 1.02, SolveSeconds: 0.911, Elems: 1000,
				CPMakespan: 1.013, CPCompute: 0.7, CPOverhead: 0.1, CPWait: 0.2,
			},
			{
				Kind: "epoch", Exp: "implicit", Run: "analytic", P: 4, Cycle: 1,
				Pricing: "analytic", Accepted: true,
				Imbalance: 1.31, Gain: 0.41, Cost: 0.17,
				TotalV: 520, MaxV: 140, EdgeCut: 96, Elems: 1210,
				SolveSeconds: 1.207, PCGIters: 41,
				CPMakespan: 1.409, CPCompute: 0.91, CPOverhead: 0.13, CPWait: 0.35,
				Blame: &obs.BlameRecord{
					Culprits: event.Culprits{Wait: 0.35, SenderCompute: 0.21, SenderOverhead: 0.04,
						Contention: 0.06, Wire: 0.03, Idle: 0.01},
					TopRank: 2, TopPhase: "solve", TopLag: 0.13,
					TopEdges: []obs.BlameEdge{{Src: 2, Dst: 0, Seconds: 0.09}},
				},
			},
			{
				Kind: "epoch", Exp: "implicit", Run: "analytic", P: 4, Cycle: 2,
				Pricing:   "analytic",
				Imbalance: 1.09, Gain: 0.08, Cost: 0.22,
				TotalV: 0, MaxV: 0, EdgeCut: 96, Elems: 1210,
				SolveSeconds: 1.118,
				CPMakespan:   1.233, CPCompute: 0.88, CPOverhead: 0.11, CPWait: 0.23,
			},
		},
		Metrics: map[string]float64{"plum_worlds_total": 3, "plum_msgs_total": 512},
		End:     obs.End{Kind: "end", Epochs: 3},
	}
}

// fixtureFlip perturbs the base: epoch 1's verdict flips to reject
// (gain collapses), the blame top cell moves from rank 2 to rank 3, and
// epoch 2 gets slower with the growth carried by wait.
func fixtureFlip() *obs.LedgerFile {
	lf := fixtureBase()
	lf.Manifest.Git = "cur-sha"
	e1 := &lf.Epochs[1]
	e1.Accepted = false
	e1.Gain, e1.Cost = 0.11, 0.19
	e1.TotalV, e1.MaxV = 0, 0
	e1.CPMakespan, e1.CPWait = 1.521, 0.462
	e1.Blame = &obs.BlameRecord{
		Culprits: event.Culprits{Wait: 0.462, SenderCompute: 0.2, SenderOverhead: 0.04,
			Contention: 0.15, Wire: 0.06, Idle: 0.012},
		TopRank: 3, TopPhase: "halo", TopLag: 0.21,
		TopEdges: []obs.BlameEdge{{Src: 3, Dst: 1, Seconds: 0.17}},
	}
	e2 := &lf.Epochs[2]
	e2.CPMakespan, e2.CPWait = 1.377, 0.374
	e2.EdgeCut = 131
	lf.Metrics["plum_msgs_total"] = 607
	return lf
}

func TestSelfDiffZero(t *testing.T) {
	lf := fixtureBase()
	rep := Ledgers("a.jsonl", "a.jsonl", lf, fixtureBase(), Options{Metrics: true})
	if !rep.Zero() {
		t.Fatalf("self-diff not zero: %+v", rep)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("self-diff produced findings: %+v", rep.Findings)
	}
	if len(rep.Metrics) != 0 {
		t.Errorf("self-diff produced metric deltas: %+v", rep.Metrics)
	}
	tot := rep.Totals
	if tot.DTime != 0 || tot.DCompute != 0 || tot.DOverhead != 0 ||
		tot.DWait != 0 || tot.DResidual != 0 || tot.Flips != 0 {
		t.Errorf("self-diff totals nonzero: %+v", tot)
	}
	if vs := rep.Gate(DefaultThresholds()); len(vs) != 0 {
		t.Errorf("self-diff gate violations: %+v", vs)
	}
	// The report must say so in every format.
	var text bytes.Buffer
	rep.WriteText(&text)
	if !strings.Contains(text.String(), "no differences") {
		t.Errorf("text self-diff lacks zero banner:\n%s", text.String())
	}
}

// TestSelfDiffByteStable: rendering the same comparison twice (fresh
// parses, fresh reports) yields identical bytes — no map-order leaks.
// The CI determinism matrix runs this at GOMAXPROCS 1 and 8.
func TestSelfDiffByteStable(t *testing.T) {
	render := func() (string, string, string) {
		rep := Ledgers("base.jsonl", "cur.jsonl", fixtureBase(), fixtureFlip(), Options{Metrics: true})
		var text, md bytes.Buffer
		rep.WriteText(&text)
		rep.WriteMarkdown(&md)
		js, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return text.String(), md.String(), string(js)
	}
	t1, m1, j1 := render()
	for i := 0; i < 5; i++ {
		t2, m2, j2 := render()
		if t1 != t2 || m1 != m2 || j1 != j2 {
			t.Fatalf("render %d differs from first render", i+2)
		}
	}
}

// TestReportGolden pins the full text report of the flip fixture: a
// verdict flip, a moved blame cell, and a wait-carried slowdown must
// all be named, in rank order.
func TestReportGolden(t *testing.T) {
	rep := Ledgers("base.jsonl", "cur.jsonl", fixtureBase(), fixtureFlip(), Options{Metrics: true})
	var got bytes.Buffer
	rep.WriteText(&got)

	golden := filepath.Join("testdata", "report_flip.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report drifted from golden (run with -update to accept):\n%s", got.String())
	}
}

// TestConservationExact: the attribution identities hold with == (not
// approximately) at every level, on messy floats.
func TestConservationExact(t *testing.T) {
	rep := Ledgers("base.jsonl", "cur.jsonl", fixtureBase(), fixtureFlip(), Options{})
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	rd := &rep.Runs[0]
	var sumEpoch float64
	for _, ed := range rd.Epochs {
		if got := ed.DCompute + ed.DOverhead + ed.DWait + ed.DResidual; got != ed.DTime {
			t.Errorf("epoch %d: components sum %v != DTime %v", ed.Cycle, got, ed.DTime)
		}
		sumEpoch += ed.DTime
	}
	if sumEpoch != rd.DTime {
		t.Errorf("sum of epoch DTime %v != run DTime %v", sumEpoch, rd.DTime)
	}
	if got := rd.DCompute + rd.DOverhead + rd.DWait + rd.DResidual; got != rd.DTime {
		t.Errorf("run components sum %v != run DTime %v", got, rd.DTime)
	}
	tot := rep.Totals
	if got := tot.DCompute + tot.DOverhead + tot.DWait + tot.DResidual; got != tot.DTime {
		t.Errorf("total components sum %v != total DTime %v", got, tot.DTime)
	}
	if got := rd.CurTime - rd.BaseTime; math.Abs(got-rd.DTime) > 1e-12 {
		// CurTime-BaseTime may reassociate differently from ΣΔ; the
		// canonical end-to-end delta is ΣΔ, but they must agree closely.
		t.Errorf("CurTime-BaseTime %v vs DTime %v", got, rd.DTime)
	}
}

// TestFlipAndBlameFindings: the ranked findings name the flipped epoch
// and the moved blame cell.
func TestFlipAndBlameFindings(t *testing.T) {
	rep := Ledgers("base.jsonl", "cur.jsonl", fixtureBase(), fixtureFlip(), Options{})
	if rep.Totals.Flips != 1 {
		t.Fatalf("flips = %d, want 1", rep.Totals.Flips)
	}
	var kinds []string
	var all strings.Builder
	for _, f := range rep.Findings {
		kinds = append(kinds, f.Kind)
		all.WriteString(f.Msg + "\n")
	}
	for _, want := range []string{"verdict-flip", "sim-time", "blame", "drift"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("findings lack kind %q; got %v", want, kinds)
		}
	}
	if !strings.Contains(all.String(), "accept -> reject") {
		t.Errorf("no flip direction named:\n%s", all.String())
	}
	if !strings.Contains(all.String(), "r2/solve") || !strings.Contains(all.String(), "r3/halo") {
		t.Errorf("moved blame cell not named:\n%s", all.String())
	}
}

// TestModeFlipAlignment: a `-measured` ledger diffs against its
// analytic twin via the pricing-mode wildcard.
func TestModeFlipAlignment(t *testing.T) {
	base := fixtureBase()
	cur := fixtureBase()
	for i := range cur.Epochs {
		cur.Epochs[i].Run = "measured"
		cur.Epochs[i].Pricing = "measured"
	}
	rep := Ledgers("a.jsonl", "b.jsonl", base, cur, Options{})
	if len(rep.BaseOnly) != 0 || len(rep.CurOnly) != 0 {
		t.Fatalf("mode flip not aligned: baseOnly=%v curOnly=%v", rep.BaseOnly, rep.CurOnly)
	}
	if len(rep.Runs) != 1 || !rep.Runs[0].ModeFlip {
		t.Fatalf("want one mode-flip run, got %+v", rep.Runs)
	}
	// Same numbers on both sides: only the pricing labels differ.
	if rep.Runs[0].DTime != 0 {
		t.Errorf("mode-flip DTime = %v, want 0", rep.Runs[0].DTime)
	}
	if rep.Runs[0].Zero {
		t.Errorf("mode-flip run claims Zero despite pricing change")
	}
}

// TestUnalignedRuns: a run present on one side only surfaces as an
// alignment finding, not a silent drop.
func TestUnalignedRuns(t *testing.T) {
	base := fixtureBase()
	cur := fixtureBase()
	extra := cur.Epochs[0]
	extra.Exp = "feedback"
	extra.Model = "fattree"
	cur.Epochs = append(cur.Epochs, extra)
	rep := Ledgers("a.jsonl", "b.jsonl", base, cur, Options{})
	if len(rep.CurOnly) != 1 {
		t.Fatalf("curOnly = %v, want 1 entry", rep.CurOnly)
	}
	if rep.Zero() {
		t.Error("report with unaligned run claims Zero")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "alignment" && strings.Contains(f.Msg, "feedback/fattree") {
			found = true
		}
	}
	if !found {
		t.Errorf("no alignment finding for the extra run: %+v", rep.Findings)
	}
}

func TestGateViolations(t *testing.T) {
	rep := Ledgers("base.jsonl", "cur.jsonl", fixtureBase(), fixtureFlip(), Options{})
	th := DefaultThresholds()
	vs := rep.Gate(th)
	if len(vs) == 0 {
		t.Fatal("regressed diff passed the gate")
	}
	hasSim := false
	for _, v := range vs {
		if v.Kind == "sim-time" {
			hasSim = true
		}
	}
	if !hasSim {
		t.Errorf("no sim-time violation: %+v", vs)
	}

	th.FailOnFlip = true
	vs = rep.Gate(th)
	hasFlip := false
	for _, v := range vs {
		if v.Kind == "verdict-flip" {
			hasFlip = true
		}
	}
	if !hasFlip {
		t.Errorf("FailOnFlip produced no verdict-flip violation: %+v", vs)
	}

	// Incomparable digests: fail only when required.
	cur := fixtureFlip()
	cur.Manifest.ConfigDigest = "cfg-2"
	rep2 := Ledgers("a.jsonl", "b.jsonl", fixtureBase(), cur, Options{})
	hasComp := false
	for _, v := range rep2.Gate(DefaultThresholds()) {
		if v.Kind == "comparability" {
			hasComp = true
		}
	}
	if !hasComp {
		t.Error("incomparable pair passed RequireComparable gate")
	}
	th2 := DefaultThresholds()
	th2.RequireComparable = false
	for _, v := range rep2.Gate(th2) {
		if v.Kind == "comparability" {
			t.Errorf("comparability violation despite RequireComparable=false: %+v", v)
		}
	}

	// An improvement passes.
	imp := Ledgers("cur.jsonl", "base.jsonl", fixtureFlip(), fixtureBase(), Options{})
	for _, v := range imp.Gate(DefaultThresholds()) {
		if v.Kind == "sim-time" {
			t.Errorf("improvement flagged as sim-time regression: %+v", v)
		}
	}
}

func spanFixture(run string, lagShift float64) event.SpanWorld {
	return event.SpanWorld{
		P:     4,
		Label: map[string]string{"exp": "implicit", "model": "", "run": run, "p": "4"},
		Spans: make([]event.Span, 8),
		Blame: []event.EpochBlame{{
			K: "blame", Epoch: 0,
			Culprits: event.Culprits{Wait: 0.3 + lagShift, SenderCompute: 0.2 + lagShift},
			Lag: []event.LagEntry{
				{Rank: 1, Phase: "solve", Seconds: 0.1},
				{Rank: 2, Phase: "halo", Seconds: 0.05 + lagShift},
			},
			LagOther: 0.02,
			Edges:    []event.EdgeBlame{{Src: 1, Dst: 0, Queue: 0.04, Wire: 0.01}},
		}},
	}
}

func TestSpanDiff(t *testing.T) {
	// Self-diff: zero.
	ds := Spans([]event.SpanWorld{spanFixture("analytic", 0)},
		[]event.SpanWorld{spanFixture("analytic", 0)}, Options{})
	if len(ds) != 1 || !ds[0].Zero {
		t.Fatalf("span self-diff not zero: %+v", ds)
	}
	if fs := SpanFindings(ds); len(fs) != 0 {
		t.Errorf("span self-diff produced findings: %+v", fs)
	}

	// A grown lag cell is found and named, through a mode flip.
	ds = Spans([]event.SpanWorld{spanFixture("analytic", 0)},
		[]event.SpanWorld{spanFixture("measured", 0.07)}, Options{})
	if len(ds) != 1 || ds[0].Zero || !ds[0].ModeFlip {
		t.Fatalf("span mode-flip diff wrong: %+v", ds)
	}
	if len(ds[0].Cells) == 0 || ds[0].Cells[0].Rank != 2 || ds[0].Cells[0].Phase != "halo" {
		t.Fatalf("top moved cell wrong: %+v", ds[0].Cells)
	}
	if math.Abs(ds[0].Cells[0].Delta-0.07) > 1e-15 {
		t.Errorf("cell delta = %v, want 0.07", ds[0].Cells[0].Delta)
	}
	fs := SpanFindings(ds)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "r2/halo") {
		t.Errorf("span finding does not name the cell: %+v", fs)
	}
}

// TestExactTwinBeatsModeFlip: ledgers and span streams align through
// the same two passes, so with base [analytic, measured] against cur
// [measured] both pair measured with measured and leave analytic
// base-only, whichever order the base lists them in.
func TestExactTwinBeatsModeFlip(t *testing.T) {
	measuredRun := func(lf *obs.LedgerFile) *obs.LedgerFile {
		for i := range lf.Epochs {
			lf.Epochs[i].Run = "measured"
			lf.Epochs[i].Pricing = "measured"
		}
		return lf
	}
	base := fixtureBase()
	base.Epochs = append(base.Epochs, measuredRun(fixtureBase()).Epochs...)
	rep := Ledgers("a.jsonl", "b.jsonl", base, measuredRun(fixtureBase()), Options{})
	if len(rep.Runs) != 1 || rep.Runs[0].ModeFlip || !rep.Runs[0].Zero {
		t.Errorf("ledger: want one zero measured/measured run, got %+v", rep.Runs)
	}
	if len(rep.BaseOnly) != 1 || rep.BaseOnly[0].Run != "analytic" || len(rep.CurOnly) != 0 {
		t.Errorf("ledger: baseOnly=%v curOnly=%v, want the analytic run base-only", rep.BaseOnly, rep.CurOnly)
	}

	for _, order := range [][]string{{"analytic", "measured"}, {"measured", "analytic"}} {
		var worlds []event.SpanWorld
		for _, run := range order {
			worlds = append(worlds, spanFixture(run, 0))
		}
		ds := Spans(worlds, []event.SpanWorld{spanFixture("measured", 0)}, Options{})
		var pairs, baseOnly []SpanWorldDelta
		for _, d := range ds {
			if d.DSpans < 0 {
				baseOnly = append(baseOnly, d)
			} else {
				pairs = append(pairs, d)
			}
		}
		if len(pairs) != 1 || pairs[0].ModeFlip || !pairs[0].Zero {
			t.Errorf("spans %v: want one zero measured/measured pair, got %+v", order, pairs)
		}
		if len(baseOnly) != 1 || !strings.Contains(baseOnly[0].Label, "/analytic/") {
			t.Errorf("spans %v: want the analytic world base-only, got %+v", order, baseOnly)
		}
		if len(ds) != 2 {
			t.Errorf("spans %v: %d deltas, want 2", order, len(ds))
		}
	}
}

// TestLedgerFiles: the disk path — write with the obs writer, read
// back strictly, self-diff is zero.
func TestLedgerFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lf *obs.LedgerFile) string {
		path := filepath.Join(dir, name)
		l, err := obs.Create(path, lf.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range lf.Epochs {
			l.Add(e)
		}
		if err := l.Close(lf.Metrics, ""); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", fixtureBase())
	b := write("b.jsonl", fixtureFlip())

	rep, err := LedgerFiles(a, a, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Zero() {
		t.Error("on-disk self-diff not zero")
	}
	rep, err = LedgerFiles(a, b, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Zero() || rep.Totals.Flips != 1 {
		t.Errorf("on-disk flip diff wrong: zero=%v flips=%d", rep.Zero(), rep.Totals.Flips)
	}
}

// leagueFixture extends spanFixture with a second blamed epoch: a lag
// cell of epoch 0 grows, a third rank lags, and epoch 0's edge is
// blamed again beside a new one, so every cross-epoch sum — cells,
// lag_other and edge delay — takes two terms.
func leagueFixture(run string, lagShift float64) event.SpanWorld {
	w := spanFixture(run, lagShift)
	e1 := w.Blame[0]
	e1.Epoch = 1
	e1.Wait += 0.117
	e1.SenderOverhead = 0.031 + lagShift
	e1.Contention = 0.029
	e1.Idle = 0.013
	e1.Lag = []event.LagEntry{
		{Rank: 2, Phase: "halo", Seconds: 0.061 + 2*lagShift},
		{Rank: 3, Phase: "solve", Seconds: 0.043},
	}
	e1.LagOther = 0.017 + lagShift
	e1.Edges = []event.EdgeBlame{
		{Src: 1, Dst: 0, Queue: 0.023, Wire: 0.019 + lagShift, Count: 2},
		{Src: 3, Dst: 2, Queue: 0.011, Wire: 0.007, Count: 1},
	}
	w.Blame = append(w.Blame, e1)
	return w
}

// TestBlameOutputsPinned pins the bytes plumdiff writes from blame: the
// markdown and JSON reports of the flip fixture (per-epoch blame
// deltas) and the span-diff text and JSON of the spanFixture and
// leagueFixture pairs (per-epoch deltas, summed cells, lag_other and
// edges).
func TestBlameOutputsPinned(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	js := func(v any) []byte {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	rep := Ledgers("base.jsonl", "cur.jsonl", fixtureBase(), fixtureFlip(), Options{Metrics: true})
	var md bytes.Buffer
	rep.WriteMarkdown(&md)
	spans := func(fixture func(string, float64) event.SpanWorld) (text, data []byte) {
		ds := Spans([]event.SpanWorld{fixture("analytic", 0)},
			[]event.SpanWorld{fixture("measured", 0.07)}, Options{})
		var buf bytes.Buffer
		(&Report{Spans: ds}).writeSpanText(&buf)
		return buf.Bytes(), js(ds)
	}
	spanText, spanJSON := spans(spanFixture)
	leagueText, leagueJSON := spans(leagueFixture)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"flip markdown", md.Bytes(), "b52659fa5018e7f7a61740f649276ec533d57d04f744eeddbd0c9e47ddc3408e"},
		{"flip JSON", js(rep), "d140a07e2a706bcdd80a4b05b720865317d5f6701ee0f011832f8bc8e12dd6c0"},
		{"span text", spanText, "5ab4c01d1302dfd3960a9409f34d432918317cccb39da037f1f177417a08ebd3"},
		{"span JSON", spanJSON, "801a5f036a6b8a24be482a82787782ab7a4708c9547a2a568c108b0d0c8f6105"},
		{"league text", leagueText, "a60e5d27a09a1b11e25832d86488ac3728e5d6ad22d4a1ad5b39b36b8bd08918"},
		{"league JSON", leagueJSON, "6efcd495cf3fd019039e7a4020677119284bcf0ab2ec30d09866b1be5413a1be"},
	} {
		if got := sum(c.got); got != c.want {
			t.Errorf("%s SHA-256 = %s, want %s:\n%s", c.name, got, c.want, c.got)
		}
	}
}
