// Package diff computes exact differential analyses of simulated runs:
// given two artifacts of the same kind — run ledgers (obs) or
// span/blame streams (event) — it aligns them record by record and
// attributes the end-to-end simulated-time delta down the stack: which
// runs moved, which epochs flipped their accept/reject verdict, which
// critical-path component (compute, overhead, wait) carried the change,
// which sender-lag cell of the blame table grew, and which
// partition-quality term (edge cut, imbalance, TotalV) drifted.
//
// Because every simulated output is a pure function of its
// configuration (the determinism the golden tests enforce), the diff is
// exact: no statistics, no tolerances.  Two invariants hold by
// construction, not approximation:
//
//   - self-identity: diffing a ledger against itself yields a report
//     with zero deltas everywhere (IEEE x-x = +0 for finite x);
//   - conservation: at every level, the attributed deltas sum exactly
//     to the level above.  Per epoch, the makespan delta equals
//     Δcompute + Δoverhead + Δwait + Δresidual, where Δresidual is
//     DEFINED as the remainder (it measures critical-path gaps the
//     three components do not cover).  Per run, the end-to-end delta
//     is DEFINED as the sum of the per-epoch deltas, and the run-level
//     residual as the remainder after the summed components.  Nothing
//     is lost to reassociation.
//
// Alignment is structural: epochs group by run key (experiment, model,
// pricing mode, P) and align by cycle number.  A run present in only
// one ledger is re-tried with the pricing mode wildcarded — so a
// `-measured` run diffs cleanly against its analytic twin, which is the
// paper's own comparison — and reported as added/removed otherwise.
package diff

import (
	"fmt"
	"math"
	"sort"

	"plum/internal/obs"
)

// ReportSchema versions the JSON form of a Report.
const ReportSchema = 1

// RunKey identifies one run (one epoch stream) within a ledger.
type RunKey struct {
	Exp   string `json:"exp"`
	Model string `json:"model"`
	Run   string `json:"run"` // pricing mode: "analytic" | "measured"
	P     int    `json:"p"`
}

func (k RunKey) String() string {
	model := k.Model
	if model == "" {
		model = "flat"
	}
	return fmt.Sprintf("%s/%s/%s/P=%d", k.Exp, model, k.Run, k.P)
}

// baseKey drops the pricing mode: the wildcard used by mode-flip
// alignment.
func (k RunKey) modeless() RunKey { k.Run = ""; return k }

// Verdict names an epoch's rebalancing outcome.
func Verdict(e *obs.EpochRecord) string {
	switch {
	case e.Balanced:
		return "balanced"
	case e.Accepted:
		return "accept"
	default:
		return "reject"
	}
}

// EpochDelta is the exact difference of one aligned epoch pair
// (current minus base).  DMakespan == DCompute + DOverhead + DWait +
// DResidual exactly (DResidual is defined as the remainder).
type EpochDelta struct {
	Cycle int `json:"cycle"`

	VerdictBase string `json:"verdict_base"`
	VerdictCur  string `json:"verdict_cur"`
	Flipped     bool   `json:"flipped"`
	PricingBase string `json:"pricing_base,omitempty"`
	PricingCur  string `json:"pricing_cur,omitempty"`

	// Time is the epoch's simulated-time delta: critical-path makespan
	// when both sides were traced, solve seconds otherwise (Approx
	// marks the fallback).
	DTime  float64 `json:"d_time"`
	Approx bool    `json:"approx,omitempty"`

	DCompute  float64 `json:"d_compute"`
	DOverhead float64 `json:"d_overhead"`
	DWait     float64 `json:"d_wait"`
	DResidual float64 `json:"d_residual"`

	DSolve     float64 `json:"d_solve"`
	DGain      float64 `json:"d_gain"`
	DCost      float64 `json:"d_cost"`
	DImbalance float64 `json:"d_imbalance"`
	DTotalV    int64   `json:"d_total_v"`
	DMaxV      int64   `json:"d_max_v"`
	DEdgeCut   int64   `json:"d_edge_cut"`
	DElems     int     `json:"d_elems"`
	DPCGIters  int     `json:"d_pcg_iters"`

	Blame *BlameDelta `json:"blame,omitempty"`

	// Zero reports whether every compared field of the pair is
	// identical (verdicts, prices, counts, times, and blame).
	Zero bool `json:"zero"`
}

// BlameDelta is the wait-blame movement of one aligned epoch pair, from
// the ledger's embedded blame summaries.
type BlameDelta struct {
	DWait           float64 `json:"d_wait"`
	DSenderCompute  float64 `json:"d_sender_compute"`
	DSenderOverhead float64 `json:"d_sender_overhead"`
	DContention     float64 `json:"d_contention"`
	DWire           float64 `json:"d_wire"`
	DIdle           float64 `json:"d_idle"`

	// The heaviest sender-lag cell on each side ("r3/solve 0.0123" or
	// "-" when none was attributed), and whether it moved.
	TopBase  string `json:"top_base"`
	TopCur   string `json:"top_cur"`
	TopMoved bool   `json:"top_moved"`
}

func (b *BlameDelta) zero() bool {
	return b == nil || (b.DWait == 0 && b.DSenderCompute == 0 && b.DSenderOverhead == 0 &&
		b.DContention == 0 && b.DWire == 0 && b.DIdle == 0 && !b.TopMoved)
}

// RunDelta is the aligned comparison of one run across the two ledgers.
type RunDelta struct {
	Key RunKey `json:"key"`
	// CurKey differs from Key only under mode-flip alignment (the
	// analytic run of one ledger matched against the measured run of
	// the other).
	CurKey   RunKey `json:"cur_key"`
	ModeFlip bool   `json:"mode_flip,omitempty"`

	Epochs []EpochDelta `json:"epochs"`
	// BaseOnlyCycles/CurOnlyCycles list cycle numbers present on one
	// side only (a run that ran longer, or was truncated).
	BaseOnlyCycles []int `json:"base_only_cycles,omitempty"`
	CurOnlyCycles  []int `json:"cur_only_cycles,omitempty"`

	// BaseTime/CurTime sum each side's per-epoch times over the ALIGNED
	// epochs; DTime is the sum of the per-epoch deltas (the canonical
	// end-to-end delta — conservation holds against this, exactly).
	BaseTime float64 `json:"base_time"`
	CurTime  float64 `json:"cur_time"`
	DTime    float64 `json:"d_time"`

	// Component sums over aligned epochs; DResidual is defined as
	// DTime - DCompute - DOverhead - DWait so the run-level identity is
	// exact regardless of float reassociation.
	DCompute  float64 `json:"d_compute"`
	DOverhead float64 `json:"d_overhead"`
	DWait     float64 `json:"d_wait"`
	DResidual float64 `json:"d_residual"`

	Flips int `json:"flips"`
	// Zero: every aligned epoch is identical and no epoch is unpaired.
	Zero bool `json:"zero"`
}

// Ratio returns CurTime/BaseTime (1 when the base ran in zero time).
func (r *RunDelta) Ratio() float64 {
	if r.BaseTime > 0 {
		return r.CurTime / r.BaseTime
	}
	return 1
}

// Source summarizes one compared ledger.
type Source struct {
	File         string `json:"file"`
	Tool         string `json:"tool,omitempty"`
	ConfigDigest string `json:"config_digest,omitempty"`
	Git          string `json:"git,omitempty"`
	Schema       int    `json:"schema,omitempty"`
	Start        string `json:"start,omitempty"`
	Epochs       int    `json:"epochs"`
	Truncated    bool   `json:"truncated,omitempty"`
}

// Finding is one ranked "what changed" statement.  Severity orders the
// findings (simulated seconds of impact where applicable, a comparable
// weight otherwise); ties break deterministically.
type Finding struct {
	Kind     string  `json:"kind"` // sim-time | verdict-flip | component | blame | drift | alignment | config | bench
	Run      string  `json:"run,omitempty"`
	Epoch    int     `json:"epoch"` // -1: not epoch-scoped
	Seconds  float64 `json:"seconds,omitempty"`
	Severity float64 `json:"severity"`
	Msg      string  `json:"msg"`
}

// Totals aggregates the ledger comparison.  DResidual is again the
// exact remainder, so DTime == DCompute+DOverhead+DWait+DResidual.
type Totals struct {
	BaseTime  float64 `json:"base_time"`
	CurTime   float64 `json:"cur_time"`
	DTime     float64 `json:"d_time"`
	DCompute  float64 `json:"d_compute"`
	DOverhead float64 `json:"d_overhead"`
	DWait     float64 `json:"d_wait"`
	DResidual float64 `json:"d_residual"`

	Flips         int `json:"flips"`
	EpochsAligned int `json:"epochs_aligned"`
	EpochsUnpaird int `json:"epochs_unpaired"`
}

// MetricDelta is one host-plane counter's movement.  Host metrics are
// machine data — informational, never gated, never part of Zero.
type MetricDelta struct {
	Name  string  `json:"name"`
	Base  float64 `json:"base"`
	Cur   float64 `json:"cur"`
	Delta float64 `json:"delta"`
}

// Report is the full differential analysis.
type Report struct {
	Schema int    `json:"schema"`
	Base   Source `json:"base"`
	Cur    Source `json:"cur"`

	// Comparable: the two manifests carry equal config digests, so the
	// runs are the same simulated program and any delta is a code
	// change.  An incomparable diff is still exact — it just compares
	// two different questions (e.g. -measured on vs off).
	Comparable bool `json:"comparable"`

	Runs     []RunDelta `json:"runs"`
	BaseOnly []RunKey   `json:"base_only,omitempty"`
	CurOnly  []RunKey   `json:"cur_only,omitempty"`

	Totals   Totals        `json:"totals"`
	Findings []Finding     `json:"findings"`
	Metrics  []MetricDelta `json:"metrics,omitempty"`

	Spans []SpanWorldDelta `json:"spans,omitempty"`
}

// Zero reports whether the simulated planes of the two ledgers are
// identical: every run aligned, every aligned epoch byte-equivalent.
// Host metrics are excluded by design.
func (r *Report) Zero() bool {
	if len(r.BaseOnly) != 0 || len(r.CurOnly) != 0 {
		return false
	}
	for i := range r.Runs {
		if !r.Runs[i].Zero {
			return false
		}
	}
	return true
}

// Options configures a ledger diff.
type Options struct {
	// TopK bounds ranked lists in findings and renderings (default 8).
	TopK int
	// Metrics includes the host-plane counter diff (informational).
	Metrics bool
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return 8
	}
	return o.TopK
}

// run groups one ledger's epochs under their run keys, preserving first
// appearance order.
type runGroup struct {
	key    RunKey
	epochs []obs.EpochRecord
}

func groupRuns(lf *obs.LedgerFile) []runGroup {
	byKey := map[RunKey]int{}
	var groups []runGroup
	for _, e := range lf.Epochs {
		k := RunKey{Exp: e.Exp, Model: e.Model, Run: e.Run, P: e.P}
		i, ok := byKey[k]
		if !ok {
			i = len(groups)
			byKey[k] = i
			groups = append(groups, runGroup{key: k})
		}
		groups[i].epochs = append(groups[i].epochs, e)
	}
	return groups
}

// Ledgers computes the differential analysis of two parsed ledgers.
// baseFile/curFile only label the report.
func Ledgers(baseFile, curFile string, base, cur *obs.LedgerFile, opt Options) *Report {
	rep := &Report{
		Schema: ReportSchema,
		Base:   sourceOf(baseFile, base),
		Cur:    sourceOf(curFile, cur),
	}
	rep.Comparable = base.Manifest.ConfigDigest == cur.Manifest.ConfigDigest &&
		base.Manifest.ConfigDigest != ""

	bg := groupRuns(base)
	cg := groupRuns(cur)
	curUsed := make([]bool, len(cg))

	// Pass 1: exact key matches, in base order.
	curByKey := map[RunKey]int{}
	for i, g := range cg {
		curByKey[g.key] = i
	}
	type pairing struct {
		bi, ci int
		flip   bool
	}
	var pairs []pairing
	var unmatched []int
	for bi, g := range bg {
		if ci, ok := curByKey[g.key]; ok && !curUsed[ci] {
			curUsed[ci] = true
			pairs = append(pairs, pairing{bi, ci, false})
		} else {
			unmatched = append(unmatched, bi)
		}
	}
	// Pass 2: mode-flip fallback — wildcard the pricing mode; pair when
	// exactly one unused counterpart matches.
	for _, bi := range unmatched {
		want := bg[bi].key.modeless()
		match, n := -1, 0
		for ci, g := range cg {
			if !curUsed[ci] && g.key.modeless() == want {
				match = ci
				n++
			}
		}
		if n == 1 {
			curUsed[match] = true
			pairs = append(pairs, pairing{bi, match, true})
		} else {
			rep.BaseOnly = append(rep.BaseOnly, bg[bi].key)
		}
	}
	for ci, g := range cg {
		if !curUsed[ci] {
			rep.CurOnly = append(rep.CurOnly, g.key)
		}
	}
	// Deterministic run order: base-file appearance order.
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].bi < pairs[j].bi })

	for _, p := range pairs {
		rd := diffRun(bg[p.bi], cg[p.ci], p.flip)
		rep.Runs = append(rep.Runs, rd)
		rep.Totals.BaseTime += rd.BaseTime
		rep.Totals.CurTime += rd.CurTime
		rep.Totals.DTime += rd.DTime
		rep.Totals.DCompute += rd.DCompute
		rep.Totals.DOverhead += rd.DOverhead
		rep.Totals.DWait += rd.DWait
		rep.Totals.Flips += rd.Flips
		rep.Totals.EpochsAligned += len(rd.Epochs)
		rep.Totals.EpochsUnpaird += len(rd.BaseOnlyCycles) + len(rd.CurOnlyCycles)
	}
	rep.Totals.DResidual = rep.Totals.DTime - rep.Totals.DCompute -
		rep.Totals.DOverhead - rep.Totals.DWait

	if opt.Metrics {
		rep.Metrics = diffMetrics(base.Metrics, cur.Metrics, opt.topK())
	}
	rep.Findings = ledgerFindings(rep, opt.topK())
	return rep
}

func sourceOf(file string, lf *obs.LedgerFile) Source {
	return Source{
		File:         file,
		Tool:         lf.Manifest.Tool,
		ConfigDigest: lf.Manifest.ConfigDigest,
		Git:          lf.Manifest.Git,
		Schema:       lf.Manifest.Schema,
		Start:        lf.Manifest.Start,
		Epochs:       len(lf.Epochs),
	}
}

// epochTime selects the comparable per-epoch time: the critical-path
// makespan when both sides were traced, else the solve seconds.
func epochTime(b, c *obs.EpochRecord) (tb, tc float64, approx bool) {
	if b.CPMakespan > 0 && c.CPMakespan > 0 {
		return b.CPMakespan, c.CPMakespan, false
	}
	return b.SolveSeconds, c.SolveSeconds, true
}

func diffRun(bg, cg runGroup, flip bool) RunDelta {
	rd := RunDelta{Key: bg.key, CurKey: cg.key, ModeFlip: flip, Zero: !flip}

	curByCycle := map[int]*obs.EpochRecord{}
	for i := range cg.epochs {
		curByCycle[cg.epochs[i].Cycle] = &cg.epochs[i]
	}
	seen := map[int]bool{}
	for i := range bg.epochs {
		b := &bg.epochs[i]
		c, ok := curByCycle[b.Cycle]
		if !ok {
			rd.BaseOnlyCycles = append(rd.BaseOnlyCycles, b.Cycle)
			rd.Zero = false
			continue
		}
		seen[b.Cycle] = true
		ed := diffEpoch(b, c)
		rd.Epochs = append(rd.Epochs, ed)
		tb, tc, _ := epochTime(b, c)
		rd.BaseTime += tb
		rd.CurTime += tc
		rd.DTime += ed.DTime
		rd.DCompute += ed.DCompute
		rd.DOverhead += ed.DOverhead
		rd.DWait += ed.DWait
		if ed.Flipped {
			rd.Flips++
		}
		if !ed.Zero {
			rd.Zero = false
		}
	}
	for i := range cg.epochs {
		if !seen[cg.epochs[i].Cycle] {
			rd.CurOnlyCycles = append(rd.CurOnlyCycles, cg.epochs[i].Cycle)
			rd.Zero = false
		}
	}
	rd.DResidual = rd.DTime - rd.DCompute - rd.DOverhead - rd.DWait
	return rd
}

func diffEpoch(b, c *obs.EpochRecord) EpochDelta {
	tb, tc, approx := epochTime(b, c)
	ed := EpochDelta{
		Cycle:       b.Cycle,
		VerdictBase: Verdict(b),
		VerdictCur:  Verdict(c),
		PricingBase: b.Pricing,
		PricingCur:  c.Pricing,
		DTime:       tc - tb,
		Approx:      approx,
		DCompute:    c.CPCompute - b.CPCompute,
		DOverhead:   c.CPOverhead - b.CPOverhead,
		DWait:       c.CPWait - b.CPWait,
		DSolve:      c.SolveSeconds - b.SolveSeconds,
		DGain:       c.Gain - b.Gain,
		DCost:       c.Cost - b.Cost,
		DImbalance:  c.Imbalance - b.Imbalance,
		DTotalV:     c.TotalV - b.TotalV,
		DMaxV:       c.MaxV - b.MaxV,
		DEdgeCut:    c.EdgeCut - b.EdgeCut,
		DElems:      c.Elems - b.Elems,
		DPCGIters:   c.PCGIters - b.PCGIters,
	}
	ed.Flipped = ed.VerdictBase != ed.VerdictCur
	ed.DResidual = ed.DTime - ed.DCompute - ed.DOverhead - ed.DWait
	ed.Blame = diffBlame(b.Blame, c.Blame)
	ed.Zero = !ed.Flipped && ed.PricingBase == ed.PricingCur &&
		ed.DTime == 0 && ed.DCompute == 0 && ed.DOverhead == 0 && ed.DWait == 0 &&
		ed.DSolve == 0 && ed.DGain == 0 && ed.DCost == 0 && ed.DImbalance == 0 &&
		ed.DTotalV == 0 && ed.DMaxV == 0 && ed.DEdgeCut == 0 && ed.DElems == 0 &&
		ed.DPCGIters == 0 && ed.Blame.zero()
	return ed
}

func topCell(b *obs.BlameRecord) string {
	if b == nil || b.TopRank < 0 {
		return "-"
	}
	return fmt.Sprintf("r%d/%s %.4f", b.TopRank, b.TopPhase, b.TopLag)
}

func diffBlame(b, c *obs.BlameRecord) *BlameDelta {
	if b == nil && c == nil {
		return nil
	}
	var zb, zc obs.BlameRecord
	zb.TopRank, zc.TopRank = -1, -1
	if b == nil {
		b = &zb
	}
	if c == nil {
		c = &zc
	}
	bd := &BlameDelta{
		DWait:           c.Wait - b.Wait,
		DSenderCompute:  c.SenderCompute - b.SenderCompute,
		DSenderOverhead: c.SenderOverhead - b.SenderOverhead,
		DContention:     c.Contention - b.Contention,
		DWire:           c.Wire - b.Wire,
		DIdle:           c.Idle - b.Idle,
		TopBase:         topCell(b),
		TopCur:          topCell(c),
	}
	bd.TopMoved = b.TopRank != c.TopRank || b.TopPhase != c.TopPhase || b.TopLag != c.TopLag
	if bd.zero() {
		return nil
	}
	return bd
}

// diffMetrics compares the host-plane counter snapshots: the topK
// largest absolute movers among keys present on either side.
func diffMetrics(base, cur map[string]float64, topK int) []MetricDelta {
	if base == nil && cur == nil {
		return nil
	}
	keys := map[string]bool{}
	for k := range base {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	var out []MetricDelta
	for k := range keys {
		b, c := base[k], cur[k]
		if b == c {
			continue
		}
		out = append(out, MetricDelta{Name: k, Base: b, Cur: c, Delta: c - b})
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Delta), math.Abs(out[j].Delta)
		if ai != aj {
			return ai > aj
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// componentName labels the largest-magnitude critical-path component of
// a delta set.
func componentName(dc, do, dw, dr float64) (string, float64) {
	name, v := "compute", dc
	if math.Abs(do) > math.Abs(v) {
		name, v = "overhead", do
	}
	if math.Abs(dw) > math.Abs(v) {
		name, v = "wait", dw
	}
	if math.Abs(dr) > math.Abs(v) {
		name, v = "path gaps", dr
	}
	return name, v
}

// ledgerFindings ranks what changed: run-level time movement, verdict
// flips, the dominating critical-path component, blame-cell shifts, and
// partition-quality drift, most impactful first.
func ledgerFindings(rep *Report, topK int) []Finding {
	var fs []Finding
	if rep.Base.Schema != rep.Cur.Schema {
		fs = append(fs, Finding{
			Kind: "config", Epoch: -1, Severity: math.Inf(1),
			Msg: fmt.Sprintf("ledger schema differs: base v%d vs current v%d",
				rep.Base.Schema, rep.Cur.Schema),
		})
	}
	if !rep.Comparable {
		fs = append(fs, Finding{
			Kind: "config", Epoch: -1, Severity: math.MaxFloat64,
			Msg: fmt.Sprintf("config digests differ (base %s, current %s): the two ledgers"+
				" simulate different programs; deltas attribute the configuration change",
				orDash(rep.Base.ConfigDigest), orDash(rep.Cur.ConfigDigest)),
		})
	}
	for _, k := range rep.BaseOnly {
		fs = append(fs, Finding{
			Kind: "alignment", Run: k.String(), Epoch: -1, Severity: math.MaxFloat64 / 2,
			Msg: fmt.Sprintf("run %s exists only in the base ledger", k),
		})
	}
	for _, k := range rep.CurOnly {
		fs = append(fs, Finding{
			Kind: "alignment", Run: k.String(), Epoch: -1, Severity: math.MaxFloat64 / 2,
			Msg: fmt.Sprintf("run %s exists only in the current ledger", k),
		})
	}
	for i := range rep.Runs {
		rd := &rep.Runs[i]
		name := rd.Key.String()
		if rd.ModeFlip {
			name = fmt.Sprintf("%s vs %s", rd.Key, rd.CurKey)
		}
		for _, cyc := range rd.BaseOnlyCycles {
			fs = append(fs, Finding{
				Kind: "alignment", Run: name, Epoch: cyc, Severity: math.MaxFloat64 / 4,
				Msg: fmt.Sprintf("run %s: epoch %d exists only in the base ledger", name, cyc),
			})
		}
		for _, cyc := range rd.CurOnlyCycles {
			fs = append(fs, Finding{
				Kind: "alignment", Run: name, Epoch: cyc, Severity: math.MaxFloat64 / 4,
				Msg: fmt.Sprintf("run %s: epoch %d exists only in the current ledger", name, cyc),
			})
		}
		if rd.DTime != 0 {
			comp, cv := componentName(rd.DCompute, rd.DOverhead, rd.DWait, rd.DResidual)
			dir := "slower"
			if rd.DTime < 0 {
				dir = "faster"
			}
			fs = append(fs, Finding{
				Kind: "sim-time", Run: name, Epoch: -1,
				Seconds: rd.DTime, Severity: math.Abs(rd.DTime),
				Msg: fmt.Sprintf("run %s: %+.6fs end-to-end simulated time (%.3fx, %s);"+
					" largest component: %s %+.6fs",
					name, rd.DTime, rd.Ratio(), dir, comp, cv),
			})
		}
		for _, ed := range rd.Epochs {
			sev := math.Abs(ed.DTime)
			if ed.Flipped {
				fs = append(fs, Finding{
					Kind: "verdict-flip", Run: name, Epoch: ed.Cycle,
					Seconds: ed.DTime, Severity: sev + math.Abs(ed.DGain) + math.Abs(ed.DCost),
					Msg: fmt.Sprintf("run %s epoch %d: verdict flipped %s -> %s"+
						" (gain %+.4f, cost %+.4f, TotalV %+d, MaxV %+d; epoch time %+.6fs)",
						name, ed.Cycle, ed.VerdictBase, ed.VerdictCur,
						ed.DGain, ed.DCost, ed.DTotalV, ed.DMaxV, ed.DTime),
				})
			}
			if b := ed.Blame; b != nil {
				w := math.Max(math.Abs(b.DWait), math.Abs(b.DSenderCompute))
				if b.TopMoved || w > 0 {
					fs = append(fs, Finding{
						Kind: "blame", Run: name, Epoch: ed.Cycle,
						Seconds: b.DWait, Severity: w,
						Msg: fmt.Sprintf("run %s epoch %d: attributed wait %+.6fs"+
							" (sender compute %+.6fs, overhead %+.6fs, contention %+.6fs,"+
							" wire %+.6fs, idle %+.6fs); top lag cell %s -> %s",
							name, ed.Cycle, b.DWait, b.DSenderCompute, b.DSenderOverhead,
							b.DContention, b.DWire, b.DIdle, b.TopBase, b.TopCur),
					})
				}
			}
			if ed.DEdgeCut != 0 || ed.DTotalV != 0 || ed.DImbalance != 0 {
				fs = append(fs, Finding{
					Kind: "drift", Run: name, Epoch: ed.Cycle,
					Severity: math.Abs(ed.DTime),
					Msg: fmt.Sprintf("run %s epoch %d: partition drift — edge cut %+d,"+
						" TotalV %+d, MaxV %+d, imbalance %+.4f, elems %+d",
						name, ed.Cycle, ed.DEdgeCut, ed.DTotalV, ed.DMaxV,
						ed.DImbalance, ed.DElems),
				})
			}
		}
	}
	RankFindings(fs)
	if len(fs) > topK {
		fs = fs[:topK]
	}
	return fs
}

// RankFindings orders findings most severe first with a fully
// deterministic tie-break, so reports are byte-stable.  Callers that
// append findings from another plane (spans, bench) re-rank the merged
// list with it.
func RankFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		if fs[i].Run != fs[j].Run {
			return fs[i].Run < fs[j].Run
		}
		if fs[i].Epoch != fs[j].Epoch {
			return fs[i].Epoch < fs[j].Epoch
		}
		return fs[i].Msg < fs[j].Msg
	})
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// LedgerFiles reads both ledgers from disk (strictly, or leniently
// tolerating truncation) and diffs them.
func LedgerFiles(basePath, curPath string, lenient bool, opt Options) (*Report, error) {
	base, btrunc, err := obs.ReadLedgerFile(basePath, lenient)
	if err != nil {
		return nil, err
	}
	cur, ctrunc, err := obs.ReadLedgerFile(curPath, lenient)
	if err != nil {
		return nil, err
	}
	rep := Ledgers(basePath, curPath, base, cur, opt)
	rep.Base.Truncated = btrunc
	rep.Cur.Truncated = ctrunc
	return rep, nil
}
